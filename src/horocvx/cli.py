"""Command line interface.

Every invocation that writes an output file also writes a run manifest
(`<output>.manifest.json`) recording the command, parameters, input
file hashes, all output paths, package version, and grid, so a run can
be reproduced exactly; identical manifests imply bit-identical outputs.
One function builds it from the parsed arguments: the parameters are
every option but the output paths, plus `n`, `k` and `p` for `flow`;
the inputs are the files that `--K`, `--L`, `--f` and `--config` name,
plus the field files a flow config names.  The JSON commands write
report and manifest through `_emit`; a report holding NaN or infinity
is an error, not written.

Exit codes: 0 success, 1 verification failure, a failed check on a
computed result (an overflow) or an output that cannot be written (a
directory, or in none: found before the run), 2 usage error: argparse's
or an `ArgumentError`, this module's or a kernel's, whose rules live
there only.

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

Every field input, a `--K`, `--L` or `--f` file or a flow config's
`initial` or `f` (a path or an inline field object), goes through one
loader and becomes a SupportField: a field that cannot be read, parsed
or validated (values JSON numbers, finite and positive, one per grid
node) is a usage error naming its source.  Two field inputs of one
command (`--K` and `--L`, `--K` and `--f`, a flow config's `initial` and
`f`) must lie on one grid, a flow config's fields on S^n for its `n`,
and a flow config gives `initial` or `grid`, and `initial` or
`initial_radius`: otherwise it is a usage error naming both sources.
So is an `--out` or `--terminal` that names an input file, which it
would replace before the manifest hashes it, and an `--out` and a
`--terminal` that name one file.

A flow config's keys are `flow.FlowConfig`'s fields plus `initial`,
`grid` (a spec string, as `--grid` takes) and `initial_radius`.
FlowConfig checks its values when it is built; its ArgumentError is a
usage error (`bad flow config <path>: ...`), as is a config file that
cannot be read or parsed.  What `flow.make_state` refuses (f failing
assumption H under "strict", odd f under enforced evenness, an initial
field that is not uniformly h-convex) fails the flow: exit 1, an
`error:` line, no trace.
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
from .lorentz import hpoint, origin, validate_hpoint
from .sphere_grid import (
    ArgumentError,
    Grid,
    as_real,
    field_from_json_dict,
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


def _seed(text: str) -> int:
    """argparse type of mkfield --seed: an integer >= 0, as the RNG requires."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


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


def _load_scalar(source) -> SupportField:
    """The one loader of field inputs (support fields and data f): a path
    to a field JSON file, or a field dict given inline in a flow config.
    Values must be finite and positive; any read, parse or validation
    error is an ArgumentError naming the source."""
    what = f"field file {source}" if isinstance(source, str) else "inline field"
    try:
        grid, values, _ = (load_field if isinstance(source, str) else field_from_json_dict)(source)
        return SupportField(grid, values)
    except FileNotFoundError:
        raise ArgumentError(f"no such field file: {source}") from None
    except KeyError as exc:
        raise ArgumentError(f"bad {what}: missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ArgumentError(f"bad {what}: {exc}") from None


def _grid_spec(grid: Grid) -> str:
    """The grid as `--grid` spells it: s1:N or s2:LxM."""
    return f"s{grid.n}:" + "x".join(str(r) for r in grid.resolution)


def _same_grid(first: SupportField, first_source, second: SupportField, second_source) -> None:
    """`common_grid`'s ArgumentError, reworded to name both sources."""
    try:
        common_grid(first, second)
    except ArgumentError:
        raise ArgumentError(
            f"{first_source} is on {_grid_spec(first.grid)} but "
            f"{second_source} is on {_grid_spec(second.grid)}"
        ) from None


def _dump_json(path: str, obj) -> None:
    """obj as JSON; ValueError, before the file is opened, if it holds NaN or inf."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# Parsed options the manifest does not list as parameters: the handler,
# the command and the output paths.
_NOT_PARAMETERS = frozenset({"func", "command", "out", "terminal"})
# Options that name input files.
_INPUT_OPTIONS = ("K", "L", "f", "config")


def _refuse_overwrite(args, more_inputs: dict[str, str] | None = None) -> None:
    """Vet --out and --terminal before anything runs; nothing is created.
    ArgumentError, naming both, if one names an input file, which it
    would replace before the manifest hashes it, or if the two name one
    file, existing or not; the OSError that open would raise if one is a
    directory or its directory does not exist.  more_inputs maps a
    source's description to its path."""
    options = vars(args)
    out, terminal = options.get("out"), options.get("terminal")
    if out and terminal and (
        os.path.realpath(out) == os.path.realpath(terminal)
        or os.path.exists(out) and os.path.exists(terminal) and os.path.samefile(out, terminal)
    ):
        raise ArgumentError(f"--out {out} and --terminal {terminal} name the same file")
    inputs = {f"--{key} {options[key]}": options[key] for key in _INPUT_OPTIONS
              if options.get(key)}
    inputs.update(more_inputs or {})
    for key, out in (("out", out), ("terminal", terminal)):
        if not out:
            continue
        for source, path in inputs.items():
            if os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path):
                raise ArgumentError(f"--{key} {out} would overwrite the input {source}")
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
            code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
            raise OSError(code, os.strerror(code), out)


def _write_manifest(args, grid: Grid | None, *more_inputs: str) -> None:
    """Write the run manifest of the parsed args beside each output.

    Parameters, input files and outputs all come from args, so a
    command that records more stores it on args first; more_inputs are
    input files that no option names.
    """
    options = vars(args)
    inputs = [options[key] for key in _INPUT_OPTIONS if key in options] + list(more_inputs)
    outputs = sorted(path for path in (options.get("out"), options.get("terminal")) if path)
    manifest = {
        "command": args.command,
        "parameters": {
            key: value for key, value in options.items() if key not in _NOT_PARAMETERS
        },
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
        if args.center == "origin":
            center = origin(grid.n)
        else:
            try:
                coords = [float(x) for x in args.center.split(",")]
                if len(coords) != grid.n + 1:
                    raise ValueError(f"needs {grid.n + 1} spatial coordinates")
                center = hpoint(coords)
                validate_hpoint(center)
            except ValueError as exc:
                raise ArgumentError(f"bad --center {args.center!r}: {exc}") from None
        if args.radius is None:
            raise ArgumentError("--ball requires --radius")
        values = support_of_ball(grid, center, args.radius).phi
    elif args.random:
        values = random_h_convex_fields(args.seed or 0, [grid], 1)[0].phi
    else:
        if args.constant <= 0.0:
            raise ArgumentError("--constant must be positive")
        values = np.full(grid.size, args.constant)
    return _emit(args, grid, field_to_json_dict(grid, values, kind="support"))


def _cmd_psum(args) -> int:
    from .psum import p_sum

    K = _load_scalar(args.K)
    L = _load_scalar(args.L)
    _same_grid(K, f"--K {args.K}", L, f"--L {args.L}")
    result = p_sum(args.a, K, args.p, args.b, L)
    return _emit(args, K.grid, field_to_json_dict(result.grid, result.phi, kind="support"))


def _cmd_dilate(args) -> int:
    from .psum import p_dilate

    K = _load_scalar(args.K)
    result = p_dilate(args.a, args.p, K)
    return _emit(args, K.grid, field_to_json_dict(result.grid, result.phi, kind="support"))


def _cmd_quermass(args) -> int:
    from .quermass import k_mean_radius, modified_quermass

    K = _load_scalar(args.K)
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


def _cmd_steiner(args) -> int:
    from dataclasses import asdict

    from .quermass import steiner_check, weighted_steiner_check

    K = _load_scalar(args.K)
    if args.kind == "weighted":
        report = asdict(weighted_steiner_check(K, args.rho))
    else:
        report = asdict(steiner_check(K, args.rho))
        report["shifted_residuals"] = report.pop("residuals")
    return _emit(args, K.grid, {**report, "kind": args.kind})


def _cmd_weighted(args) -> int:
    from .quermass import S_functional, minkowski_formula_residuals, weighted_volume

    K = _load_scalar(args.K)
    mink = minkowski_formula_residuals(K)
    return _emit(args, K.grid, {
        "weighted_volume": weighted_volume(K),
        "S": S_functional(K),
        "minkowski_classical_residuals": mink.classical,
        "minkowski_shifted_residuals": mink.shifted,
    })


def _cmd_measure(args) -> int:
    K = _load_scalar(args.K)
    density = measure_density(K, args.p, args.k)
    report = field_to_json_dict(K.grid, density, kind="measure-density")
    report.update(total=integrate(K.grid, density), p=args.p, k=args.k)
    return _emit(args, K.grid, report)


def _cmd_kw(args) -> int:
    from dataclasses import asdict

    from .problems import kw_residual

    K = _load_scalar(args.K)
    f = _load_scalar(args.f)
    _same_grid(K, f"--K {args.K}", f, f"--f {args.f}")
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


def _cmd_assumption_h(args) -> int:
    from dataclasses import asdict

    from .problems import check_assumption_h

    f = _load_scalar(args.f)
    rep = check_assumption_h(f.phi, f.grid, args.k, args.p)
    return _emit(args, f.grid, {**asdict(rep), "k": args.k, "p": args.p})


def _cmd_flow(args) -> int:
    from dataclasses import MISSING, fields, replace

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
    # FlowConfig's fields, which it checks itself; f, one of them, is a
    # field input, loaded below with initial.  grid and initial_radius are
    # read only here.
    settings = {fld.name: fld for fld in fields(FlowConfig) if fld.name != "f"}
    unknown = sorted(set(cfg) - set(settings) - {"f", "initial", "grid", "initial_radius"})
    if unknown:
        raise ArgumentError(f"unknown flow config key(s): {', '.join(unknown)}")
    for key, fld in settings.items():
        if fld.default is MISSING and key not in cfg:
            raise ArgumentError(f"flow config missing key {key!r}")
    try:
        config = FlowConfig(**{key: cfg[key] for key in settings if key in cfg})
        r0 = as_real(cfg.get("initial_radius", math.log(2.0)), "flow config initial_radius")
        if r0 < 0.0:
            raise ArgumentError(f"flow config initial_radius must be nonnegative, got {r0}")
        if not isinstance(cfg.get("grid", ""), str):
            raise ArgumentError(f"flow config grid must be a spec like s1:64, got {cfg['grid']!r}")
    except ArgumentError as exc:
        raise ArgumentError(f"bad flow config {args.config}: {exc}") from None
    loaded, sources, inputs = {}, {}, {}
    for key in ("f", "initial"):
        entry = cfg.get(key)
        if entry is None:
            continue
        sources[key] = f"flow config {key} " + (entry if isinstance(entry, str) else "(inline)")
        if isinstance(entry, str):
            inputs[sources[key]] = entry
        try:
            loaded[key] = _load_scalar(entry)
        except ArgumentError as exc:
            raise ArgumentError(f"flow config {key}: {exc}") from None
    _refuse_overwrite(args, inputs)
    f_field = loaded.get("f")
    if "initial" in loaded:
        # The initial field fixes the grid and the start; a grid or a
        # radius would be ignored.
        for key in ("grid", "initial_radius"):
            if key in cfg:
                raise ArgumentError(f"flow config gives both 'initial' and {key!r}; give one")
        phi0 = loaded["initial"]
    else:
        if "grid" in cfg:
            grid = _parse_grid(cfg["grid"])
        elif f_field is not None:
            grid = f_field.grid
        else:
            raise ArgumentError("flow config needs 'initial', 'grid', or 'f'")
        phi0 = support_of_ball(grid, origin(grid.n), r0)
        sources["initial"] = (
            f"flow config grid {_grid_spec(grid)}" if "grid" in cfg else sources["f"]
        )
    if phi0.grid.n != config.n:
        raise ArgumentError(
            f"flow config has n = {config.n} but {sources['initial']} lives on S^{phi0.grid.n}"
        )
    if f_field is not None:
        _same_grid(phi0, sources["initial"], f_field, sources["f"])
        config = replace(config, f=f_field.phi)
    result = run_flow(config, phi0)
    result.trace.to_csv(args.out)
    if args.terminal:
        # The terminal field and every other result field but the trace.
        terminal = field_to_json_dict(result.terminal.grid, result.terminal.phi, kind="support")
        terminal.update((fld.name, getattr(result, fld.name)) for fld in fields(result)
                        if fld.name not in ("terminal", "trace"))
        _dump_json(args.terminal, terminal)
    args.n, args.k, args.p = config.n, config.k, config.p
    _write_manifest(args, phi0.grid, *inputs.values())
    print(
        f"flow {result.status}: steps={result.steps} t={result.t_final:.6g} "
        f"gamma={result.gamma:.9g} gamma_variation={result.gamma_variation:.3g}"
    )
    return 0 if result.status == "converged" else 1


def _cmd_project(args) -> int:
    from .euclid_bridge import euclid_volume, project

    K = _load_scalar(args.K)
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
        exploratory = suite.startswith("xp_")
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

    p = sub.add_parser("mkfield", help="write a support field JSON")
    p.add_argument("--grid", required=True, help="s1:N or s2:LxM")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ball", action="store_true", help="geodesic ball support field")
    mode.add_argument("--constant", type=_finite, default=None, help="constant field value")
    mode.add_argument("--random", action="store_true", help="random uniformly h-convex field")
    p.add_argument("--center", default=None, help="with --ball: 'origin' or x_1,...,x_{n+1}")
    p.add_argument("--radius", type=_finite, default=None, help="with --ball")
    p.add_argument("--seed", type=_seed, default=None, help="with --random")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mkfield)

    p = sub.add_parser("psum", help="hyperbolic p-sum of two support fields")
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--b", type=_finite, required=True)
    p.add_argument("--L", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_psum)

    p = sub.add_parser("dilate", help="p-dilation of a support field")
    p.add_argument("--a", type=_finite, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("quermass", help="modified quermassintegrals and mean radii")
    p.add_argument("--K", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quermass)

    p = sub.add_parser("steiner", help="Steiner expansion residuals for outer parallels")
    p.add_argument("--K", required=True)
    p.add_argument("--rho", type=_finite, required=True)
    p.add_argument("--kind", choices=["shifted", "weighted"], default="shifted")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_steiner)

    p = sub.add_parser("weighted", help="weighted volume, S functional, Minkowski residuals")
    p.add_argument("--K", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_weighted)

    p = sub.add_parser("measure", help="surface area measure density and total mass")
    p.add_argument("--K", required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("kw", help="solvability obstruction integrals for curvature data")
    p.add_argument("--K", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_kw)

    p = sub.add_parser("ballsolve", help="classify constant-data ball solutions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ballsolve)

    p = sub.add_parser("assumption-h", help="check the structural convexity condition on data f")
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assumption_h)

    p = sub.add_parser("flow", help="run the normalized curvature flow from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--terminal", default=None, help="terminal support field JSON path")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("project", help="Euclidean support function of the projected body")
    p.add_argument("--K", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("verify", help="run inequality and identity suites")
    p.add_argument("suite", help="a suite name, or 'all'")
    p.add_argument("--out", default=None, help="records CSV path")
    p.add_argument("--exploratory", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _refuse_overwrite(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ArgumentError) else 1


if __name__ == "__main__":
    sys.exit(main())
