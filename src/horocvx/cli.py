"""Command line interface.

Every invocation that writes an output file also writes a run manifest
(`<output>.manifest.json`) recording the command, parameters, input
file hashes, all output paths, package version, and grid, so a run can
be reproduced exactly; identical manifests imply bit-identical outputs.
One function builds it from the parsed arguments: the parameters are
every option but the output paths, plus `n`, `k` and `p` for `flow`;
the inputs are the files that `--K`, `--L`, `--f` and `--config` name.
The JSON commands write report and manifest through `_emit`; a report
holding NaN or infinity is an error, not written.

Exit codes: 0 success, 1 verification failure, a failed check on a
computed result (an overflow) or an output that cannot be written (a
directory, or in none: found before the run), 2 usage error: argparse's
or an `ArgumentError`.  This module parses text into values and owns
only the rules of its own options and config keys; a value's rule lives
in the kernel that takes it: `--k` in `hconvex.check_k`, `--radius` and
a flow config's `initial_radius` in `support_of_ball`, a `--center`
point in `support_of_point`, `--seed` in `random_h_convex_fields`.

Start-up is part of every command's cost, so this module imports at top
level only what every numeric command uses (`sphere_grid` and `hconvex`,
which brings `lorentz`); each `_cmd_*` imports its own kernels when it
runs.  `mkfield` and `measure` load no further module, `psum` and
`dilate` load `psum`, `quermass`, `steiner` and `weighted` load
`quermass`, the other curvature-data commands (`kw`, `ballsolve`,
`assumption-h`) load `problems`, `psum` and `quermass`, `flow` loads
`flow` with those three, `project` loads `euclid_bridge` and `psum` but
not `quermass`, and `verify` loads `verify` with everything but `flow`
and `problems`.

Every field input is an option, and `main` loads each once through
`_load_fields`, passing the `--K`, `--L` and `--f` files to the handler
as SupportFields (`flow`'s `--K` and `--f` are optional).  A field that
cannot be read, parsed or validated (values JSON numbers, finite and
positive, one per grid node) is a usage error naming its file, and so
are two field inputs of one command on different grids (`--K` and `--L`
or `--f`, or `--f` and the ball on a flow config's `grid`), naming both.
So is an `--out` or `--terminal` that names an input file, which it
would replace before the manifest hashes it, and an `--out` and a
`--terminal` that name one file.

A flow config holds settings only: `flow.FlowConfig`'s fields but `f`,
plus `grid` (a spec string, as `--grid` takes) and `initial_radius`.
The start is `--K`; without it, the centered ball of `initial_radius`
(default log 2) on `grid`, or else on `--f`'s grid.  `--K` with `grid`
or `initial_radius`, no start at all, or a start off S^n for the
config's `n` is a usage error.  FlowConfig checks its values when it is
built; its ArgumentError is a usage error (`bad flow config <path>:
...`), as is a config file that cannot be read or parsed.  A start
that `flow.make_state` refuses (one that is not uniformly h-convex)
fails the flow: exit 1, an `error:` line, no trace.  Each of the run's
warnings (f failing assumption H) is a `warning:` line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .hconvex import (
    SupportField, common_grid, convexity, measure_density, random_h_convex_fields, support_of_ball
)
from .lorentz import hpoint, origin
from .sphere_grid import (
    ArgumentError,
    Grid,
    as_real,
    field_to_json_dict,
    grid_from_json_dict,
    grid_to_json_dict,
    integrate,
    load_field,
)


def _finite(text: str) -> float:
    """argparse type of the float options: a finite number, so that NaN
    and infinity stop at the flag that gave them (exit 2)."""
    try:
        return as_real(float(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from None


def _parse_grid(spec: str) -> Grid:
    """The grid of s1:N or s2:L[xM], built from its JSON form, whose reader
    holds each kind's rules (M = 2 L)."""
    kind, _, rest = spec.partition(":")
    polar, _, azimuth = rest.partition("x")
    try:
        if kind == "s1":
            return grid_from_json_dict(1, {"type": "uniform_s1", "nodes": int(rest)})
        if kind == "s2":
            extra = {"azimuth": int(azimuth)} if azimuth else {}
            return grid_from_json_dict(2, {"type": "gl_product", "polar": int(polar), **extra})
    except ValueError as exc:
        raise ArgumentError(f"bad grid spec {spec!r}: {exc}") from None
    raise ArgumentError(f"bad grid spec {spec!r}; expected s1:N or s2:LxM")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_scalar(path: str) -> SupportField:
    """The one loader of field inputs (support fields and data f): a field
    JSON file.  Values must be finite and positive; any read, parse or
    validation error is an ArgumentError naming the file."""
    try:
        grid, values, _ = load_field(path)
        return SupportField(grid, values)
    except FileNotFoundError:
        raise ArgumentError(f"no such field file: {path}") from None
    except KeyError as exc:
        raise ArgumentError(f"bad field file {path}: missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ArgumentError(f"bad field file {path}: {exc}") from None


def _grid_spec(grid: Grid) -> str:
    """The grid as `--grid` spells it: s1:N or s2:LxM."""
    return f"s{grid.n}:" + "x".join(str(r) for r in grid.resolution)


def _same_grid(*named: tuple[str, SupportField]) -> None:
    """`common_grid` of (source, field) pairs, its ArgumentError reworded
    to name the first source and the one on another grid."""
    for source, L in named[1:]:
        first, K = named[0]
        try:
            common_grid(K, L)
        except ArgumentError:
            raise ArgumentError(
                f"{first} is on {_grid_spec(K.grid)} but {source} is on {_grid_spec(L.grid)}"
            ) from None


def _load_fields(entries: dict[str, tuple[str, str]]) -> dict[str, SupportField]:
    """The field inputs of one command: entries maps a name to its source
    and its path (`_load_scalar`); the fields must share one grid."""
    fields = {name: _load_scalar(path) for name, (_, path) in entries.items()}
    _same_grid(*((source, fields[name]) for name, (source, _) in entries.items()))
    return fields


def _dump_json(path: str, obj) -> None:
    """obj as JSON; ValueError, before the file is opened, if it holds NaN or inf."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# Parsed options the manifest does not list as parameters: the handler,
# the command and the output paths.
_NOT_PARAMETERS = frozenset({"func", "command", "out", "terminal"})
# Options that name input files; main vets the outputs against them and
# passes the field files, the first three, to the handler by name.
_FIELD_OPTIONS = ("K", "L", "f")
_INPUT_OPTIONS = (*_FIELD_OPTIONS, "config")


def _refuse_overwrite(args, inputs: dict[str, str]) -> None:
    """Vet --out and --terminal before anything runs; nothing is created.
    ArgumentError, naming both, if one names an input file, which it
    would replace before the manifest hashes it, or if the two name one
    file, existing or not; the OSError that open would raise if one is a
    directory or its directory does not exist.  inputs maps a source's
    description to its path."""
    options = vars(args)
    out, terminal = options.get("out"), options.get("terminal")
    if out and terminal and (
        os.path.realpath(out) == os.path.realpath(terminal)
        or os.path.exists(out) and os.path.exists(terminal) and os.path.samefile(out, terminal)
    ):
        raise ArgumentError(f"--out {out} and --terminal {terminal} name the same file")
    for key, out in (("out", out), ("terminal", terminal)):
        if not out:
            continue
        for source, path in inputs.items():
            if os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path):
                raise ArgumentError(f"--{key} {out} would overwrite the input {source}")
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
            code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
            raise OSError(code, os.strerror(code), out)


def _write_manifest(args, grid: Grid | None) -> None:
    """Write the run manifest of the parsed args beside each output.
    Parameters, input files and outputs all come from args, so a command
    that records more stores it on args first."""
    options = vars(args)
    inputs = [options[key] for key in _INPUT_OPTIONS if options.get(key) is not None]
    outputs = sorted(path for path in (options.get("out"), options.get("terminal")) if path)
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in options.items() if k not in _NOT_PARAMETERS},
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": outputs,
        "version": __version__,
        "grid": grid_to_json_dict(grid) if grid is not None else None,
    }
    for out in outputs:
        _dump_json(out + ".manifest.json", manifest)


def _emit(args, grid: Grid | None, report) -> int:
    """Dump report to --out and write the manifest; exit code 0.  Both
    writers are looked up by name at call time, so wrappers see each call."""
    _dump_json(args.out, report)
    _write_manifest(args, grid)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_mkfield(args) -> int:
    for option, mode in (("radius", "ball"), ("center", "ball"), ("seed", "random")):
        if getattr(args, option) is not None and not getattr(args, mode):
            raise ArgumentError(f"--{option} needs --{mode}")
    # The default center, on args so that the manifest records it.
    args.center = "origin" if args.center is None else args.center
    grid = _parse_grid(args.grid)
    if args.ball:
        try:
            # The point's coordinate count and hyperboloid rule are
            # support_of_point's.
            coords = None if args.center == "origin" else [float(x) for x in args.center.split(",")]
        except ValueError as exc:
            raise ArgumentError(f"bad --center {args.center!r}: {exc}") from None
        if args.radius is None:
            raise ArgumentError("--ball requires --radius")
        center = origin(grid.n) if coords is None else hpoint(coords)
        values = support_of_ball(grid, center, args.radius).phi
    elif args.random:
        values = random_h_convex_fields(args.seed or 0, [grid], 1)[0].phi
    else:
        try:
            values = SupportField(grid, np.full(grid.size, args.constant)).phi
        except ValueError as exc:
            raise ArgumentError(f"bad --constant {args.constant}: {exc}") from None
    return _emit(args, grid, field_to_json_dict(grid, values, kind="support"))


def _cmd_psum(args, K: SupportField, L: SupportField) -> int:
    from .psum import p_sum

    result = p_sum(args.a, K, args.p, args.b, L)
    return _emit(args, K.grid, field_to_json_dict(result.grid, result.phi, kind="support"))


def _cmd_dilate(args, K: SupportField) -> int:
    from .psum import p_dilate

    result = p_dilate(args.a, args.p, K)
    return _emit(args, K.grid, field_to_json_dict(result.grid, result.phi, kind="support"))


def _cmd_quermass(args, K: SupportField) -> int:
    from .quermass import k_mean_radius, modified_quermass

    n = K.grid.n
    ks = [args.k] if args.k is not None else list(range(n + 1))
    values = {}
    for k in ks:
        rep = modified_quermass(K, k)
        values[f"W{k}"] = {
            "value": rep.value,
            "method": rep.method,
            "mean_radius": k_mean_radius(K, k),
        }
    return _emit(args, K.grid, {"n": n, "quermass": values})


def _cmd_steiner(args, K: SupportField) -> int:
    from dataclasses import asdict

    from .quermass import steiner_check, weighted_steiner_check

    check = weighted_steiner_check if args.kind == "weighted" else steiner_check
    return _emit(args, K.grid, {**asdict(check(K, args.rho)), "kind": args.kind})


def _cmd_weighted(args, K: SupportField) -> int:
    from .quermass import S_functional, minkowski_formula_residuals, weighted_volume

    mink = minkowski_formula_residuals(K)
    return _emit(args, K.grid, {
        "weighted_volume": weighted_volume(K),
        "S": S_functional(K),
        "minkowski_classical_residuals": mink.classical,
        "minkowski_shifted_residuals": mink.shifted,
    })


def _cmd_measure(args, K: SupportField) -> int:
    density = measure_density(K, args.p, args.k)
    report = field_to_json_dict(K.grid, density, kind="measure-density")
    report.update(total=integrate(K.grid, density), p=args.p, k=args.k)
    return _emit(args, K.grid, report)


def _cmd_kw(args, K: SupportField, f: SupportField) -> int:
    from dataclasses import asdict

    from .problems import kw_residual

    rep = kw_residual(K, f.phi, args.k)
    return _emit(args, K.grid, {
        **asdict(rep),
        "k": args.k,
        "max_abs_coordinate_integral": max(abs(v) for v in rep.coordinate_integrals),
    })


def _cmd_ballsolve(args) -> int:
    from dataclasses import asdict

    from .problems import ball_solutions

    return _emit(args, None, asdict(ball_solutions(args.n, args.k, args.p, args.gamma)))


def _cmd_assumption_h(args, f: SupportField) -> int:
    from dataclasses import asdict

    from .problems import check_assumption_h

    rep = check_assumption_h(f.phi, f.grid, args.k, args.p)
    return _emit(args, f.grid, {**asdict(rep), "k": args.k, "p": args.p})


def _cmd_flow(args, K: SupportField | None = None, f: SupportField | None = None) -> int:
    from dataclasses import MISSING, fields

    from .flow import FlowConfig, run as run_flow

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ArgumentError(f"no such config file: {args.config}") from None
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"bad config file {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ArgumentError(f"flow config {args.config} must be a JSON object")
    # FlowConfig's fields but f (--f), which it checks itself; grid and
    # initial_radius are read only here, and support_of_ball checks the radius.
    settings = {fld.name: fld for fld in fields(FlowConfig) if fld.name != "f"}
    unknown = sorted(set(cfg) - set(settings) - {"grid", "initial_radius"})
    if unknown:
        raise ArgumentError(f"unknown flow config key(s): {', '.join(unknown)}")
    for key, fld in settings.items():
        if fld.default is MISSING and key not in cfg:
            raise ArgumentError(f"flow config missing key {key!r}")
    try:
        config = FlowConfig(**{key: cfg[key] for key in settings if key in cfg},
                            f=None if f is None else f.phi)
        if not isinstance(cfg.get("grid", ""), str):
            raise ArgumentError(f"flow config grid must be a spec like s1:64, got {cfg['grid']!r}")
    except ArgumentError as exc:
        raise ArgumentError(f"bad flow config {args.config}: {exc}") from None
    # The start: --K; else the centered ball of initial_radius on the
    # config's grid, which --f must share; else that ball on --f's grid.
    if K is not None:
        if {"grid", "initial_radius"} & set(cfg):  # either would be ignored
            raise ArgumentError(f"--K {args.K} is the start, so flow config {args.config} "
                                "may give neither 'grid' nor 'initial_radius'")
        source, phi0 = f"--K {args.K}", K
    else:
        if "grid" in cfg:
            grid = _parse_grid(cfg["grid"])
            source = "flow config grid"
        elif f is not None:
            grid, source = f.grid, f"--f {args.f}"
        else:
            raise ArgumentError("flow needs --K, a flow config grid, or --f")
        try:
            phi0 = support_of_ball(grid, origin(grid.n), cfg.get("initial_radius", math.log(2.0)))
        except ArgumentError as exc:
            raise ArgumentError(f"bad flow config {args.config}: initial_radius: {exc}") from None
        if f is not None:
            _same_grid((source, phi0), (f"--f {args.f}", f))
    if phi0.grid.n != config.n:
        raise ArgumentError(f"flow config has n = {config.n} but {source} lives on S^{phi0.grid.n}")
    result = run_flow(config, phi0)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    result.trace.to_csv(args.out)
    if args.terminal:
        # The terminal field and every other result field but the trace.
        terminal = field_to_json_dict(result.terminal.grid, result.terminal.phi, kind="support")
        terminal.update((fld.name, getattr(result, fld.name)) for fld in fields(result)
                        if fld.name not in ("terminal", "trace"))
        _dump_json(args.terminal, terminal)
    args.n, args.k, args.p = config.n, config.k, config.p
    _write_manifest(args, phi0.grid)
    print(
        f"flow {result.status}: steps={result.steps} t={result.t_final:.6g} "
        f"gamma={result.gamma:.9g} gamma_variation={result.gamma_variation:.3g}"
    )
    return 0 if result.status == "converged" else 1


def _cmd_project(args, K: SupportField) -> int:
    from .euclid_bridge import euclid_volume, project

    hat = project(K)
    obj = field_to_json_dict(hat.grid, hat.phi, kind="euclidean-support")
    if convexity(K).classification == "uniformly-h-convex":
        obj["euclidean_volume"] = euclid_volume(hat)
    return _emit(args, K.grid, obj)


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    if args.suite == "all":
        records = verify_mod.run_all(exploratory=args.exploratory)
    else:
        # Refuses an unknown suite name with an ArgumentError (exit 2).
        records = verify_mod.run_suite(args.suite)
    by_suite: dict[str, list] = {}
    for r in records:
        by_suite.setdefault(r.suite, []).append(r)
    for suite, rs in by_suite.items():
        exploratory = suite in verify_mod.EXPLORATORY_SUITES
        failed = [r for r in rs if not r.passed]
        status = "recorded" if exploratory else ("ok" if not failed else "FAIL")
        print(f"{suite}: {len(rs)} records, {status}")
        for r in failed if not exploratory else []:
            print(f"  FAIL {r.case}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} gap={r.gap:.3g}")
    if args.out:
        verify_mod.write_records_csv(args.out, records)
        _write_manifest(args, None)
    return 0 if verify_mod.all_passed(records) else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horocvx",
        description="Horospherically convex geometry: sums, quermassintegrals, flows.",
    )
    parser.add_argument("--version", action="version", version=f"horocvx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # The options that many subcommands share, declared once: the JSON
    # report and the support field K.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--K", required=True)

    def add(name: str, handler, about: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about, parents=parents)
        p.set_defaults(func=handler)
        return p

    p = add("mkfield", _cmd_mkfield, "write a support field JSON", out)
    p.add_argument("--grid", required=True, help="s1:N or s2:LxM")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ball", action="store_true", help="geodesic ball support field")
    mode.add_argument("--constant", type=_finite, default=None, help="constant field value")
    mode.add_argument("--random", action="store_true", help="random uniformly h-convex field")
    p.add_argument("--center", default=None, help="with --ball: 'origin' or x_1,...,x_{n+1}")
    p.add_argument("--radius", type=_finite, default=None, help="with --ball")
    p.add_argument("--seed", type=int, default=None, help="with --random")

    p = add("psum", _cmd_psum, "hyperbolic p-sum of two support fields", field, out)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--L", required=True)

    p = add("dilate", _cmd_dilate, "p-dilation of a support field", field, out)
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--p", type=_finite, required=True)

    p = add("quermass", _cmd_quermass, "modified quermassintegrals and mean radii", field, out)
    p.add_argument("--k", type=int, default=None)

    p = add("steiner", _cmd_steiner, "Steiner expansion residuals for outer parallels",
            field, out)
    p.add_argument("--rho", type=_finite, required=True)
    p.add_argument("--kind", choices=["shifted", "weighted"], default="shifted")

    add("weighted", _cmd_weighted, "weighted volume, S functional, Minkowski residuals",
        field, out)

    p = add("measure", _cmd_measure, "surface area measure density and total mass", field, out)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("kw", _cmd_kw, "solvability obstruction integrals for curvature data", field, out)
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, default=0)

    p = add("ballsolve", _cmd_ballsolve, "classify constant-data ball solutions", out)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, required=True)

    p = add("assumption-h", _cmd_assumption_h,
            "check the structural convexity condition on data f", out)
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=_finite, required=True)

    p = add("flow", _cmd_flow, "run the normalized curvature flow from a start field and data")
    p.add_argument("--config", required=True, help="flow settings JSON")
    p.add_argument("--K", default=None,
                   help="start field; default: the config's initial_radius ball")
    p.add_argument("--f", default=None, help="data field; default: f = 1")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--terminal", default=None, help="terminal support field JSON path")

    add("project", _cmd_project, "Euclidean support function of the projected body", field, out)

    p = add("verify", _cmd_verify, "run inequality and identity suites")
    p.add_argument("suite", help="a suite name, or 'all'")
    p.add_argument("--out", default=None, help="records CSV path")
    p.add_argument("--exploratory", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    options = vars(args)
    sources = {key: (f"--{key} {options[key]}", options[key]) for key in _INPUT_OPTIONS
               if options.get(key) is not None}
    try:
        _refuse_overwrite(args, dict(sources.values()))
        fields = _load_fields({key: sources[key] for key in _FIELD_OPTIONS if key in sources})
        return args.func(args, **fields)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ArgumentError) else 1


if __name__ == "__main__":
    sys.exit(main())
