"""Command line interface.

Every invocation that writes an output file also writes a run manifest
(`<output>.manifest.json`) recording the command, parameters, input
file hashes, all output paths, seed, package version, and grid, so a
run can be reproduced exactly; identical manifests imply bit-identical
outputs.  Exit codes: 0 success, 1 verification failure, 2 usage error.

Start-up is part of every command's cost, so this module imports at top
level only what every numeric command uses (`sphere_grid` and `hconvex`,
which brings `lorentz`); each `_cmd_*` imports its own kernels when it
runs.  `mkfield` loads no further module, `psum` and `dilate` load
`psum`, `quermass`, `steiner` and `weighted` load `quermass`, the
curvature-data commands (`measure`, `kw`, `ballsolve`, `assumption-h`)
load `problems` and `quermass`, `flow` loads `flow` with those two,
`project` loads `euclid_bridge` and `psum` but not `quermass`, and
`verify` loads `verify` with everything but `flow` and `problems`.

Every field input, a `--K`, `--L` or `--f` file or a flow config's
`initial` or `f` (a path or an inline field object), goes through one
loader and becomes a SupportField: a field that cannot be read, parsed
or validated (values finite and positive, one per grid node) is a
usage error naming its source.  Two field inputs of one command (`--K`
and `--L`, `--K` and `--f`, a flow config's `initial` and `f`) must lie
on one grid, a flow config's fields on S^n for its `n`, and a flow
config gives `initial` or `grid`, not both: otherwise it is a usage
error naming both sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .hconvex import SupportField, convexity, random_h_convex_fields, support_of_ball
from .lorentz import hpoint, origin, validate_hpoint
from .sphere_grid import (
    Grid,
    as_integer,
    field_from_json_dict,
    field_to_json_dict,
    grid_from_json_dict,
    grid_to_json_dict,
    integrate,
    load_field,
    make_grid,
)


class UsageError(Exception):
    pass


def _as_real(value, what: str) -> float:
    """value as a float; ValueError unless it is a finite number (not a
    bool, not a string)."""
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    ):
        return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _finite(text: str) -> float:
    """argparse type of the float options: a finite number, so that NaN
    and infinity stop at the flag that gave them (exit 2)."""
    try:
        return _as_real(float(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from None


def _nonnegative(text: str) -> float:
    """argparse type of --radius: a finite number >= 0."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of --gamma and --rho: a finite number > 0."""
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as the RNG requires."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _check_k(k: int, n: int) -> int:
    """k as an index 0..n of the quermassintegrals on S^n."""
    if not 0 <= k <= n:
        raise UsageError(f"--k must lie in 0..{n} for n = {n}, got {k}")
    return k


def _parse_grid(spec: str) -> Grid:
    try:
        kind, _, rest = spec.partition(":")
        if kind == "s1":
            return make_grid(1, int(rest))
        if kind == "s2":
            polar, _, azimuth = rest.partition("x")
            grid = make_grid(2, int(polar))
            if azimuth and int(azimuth) != grid.resolution[1]:
                raise ValueError(
                    f"azimuth count must be twice the polar count, got {azimuth}"
                )
            return grid
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from None
    raise UsageError(f"bad grid spec {spec!r}; expected s1:N or s2:LxM")


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
    error is a UsageError naming the source."""
    what = f"field file {source}" if isinstance(source, str) else "inline field"
    try:
        if isinstance(source, str):
            grid, values, _ = load_field(source)
        else:
            grid, values, _ = field_from_json_dict(source)
        return SupportField(grid, values)
    except FileNotFoundError:
        raise UsageError(f"no such field file: {source}") from None
    except KeyError as exc:
        raise UsageError(f"bad {what}: missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {what}: {exc}") from None


def _grid_spec(grid: Grid) -> str:
    """The grid as `--grid` spells it: s1:N or s2:LxM."""
    return f"s{grid.n}:" + "x".join(str(r) for r in grid.resolution)


def _same_grid(first: SupportField, first_source, second: SupportField, second_source) -> None:
    """UsageError, naming both sources, unless two fields share one grid."""
    if first.grid != second.grid:
        raise UsageError(
            f"{first_source} is on {_grid_spec(first.grid)} but "
            f"{second_source} is on {_grid_spec(second.grid)}"
        )


def _dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(
    command: str,
    parameters: dict,
    inputs: list[str],
    outputs: list[str],
    seed: int | None,
    grid: Grid | None,
) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": sorted(outputs),
        "seed": seed,
        "version": __version__,
        "grid": grid_to_json_dict(grid) if grid is not None else None,
    }
    for out in outputs:
        _dump_json(out + ".manifest.json", manifest)


def _field_json(field: SupportField, kind: str, extra: dict | None = None) -> dict:
    obj = field_to_json_dict(field.grid, field.phi, kind=kind)
    if extra:
        obj.update(extra)
    return obj


# ---------------------------------------------------------------------------
# subcommands


def _cmd_mkfield(args) -> int:
    grid = _parse_grid(args.grid)
    if args.ball:
        if args.center == "origin":
            center = origin(grid.n)
        else:
            coords = np.array([float(x) for x in args.center.split(",")])
            if coords.size == grid.n + 1:
                center = hpoint(coords)
            elif coords.size == grid.n + 2:
                validate_hpoint(coords)
                center = coords
            else:
                raise UsageError(
                    f"--center needs {grid.n + 1} spatial or {grid.n + 2} ambient coordinates"
                )
        if args.radius is None:
            raise UsageError("--ball requires --radius")
        K = support_of_ball(grid, center, args.radius)
        values = K.phi
    elif args.constant is not None:
        if args.constant <= 0.0:
            raise UsageError("--constant must be positive")
        values = np.full(grid.size, args.constant)
    elif args.random:
        fields = random_h_convex_fields(args.seed or 0, [grid], 1)
        values = fields[0].phi
    else:
        raise UsageError("mkfield needs one of --ball, --constant, --random")
    obj = field_to_json_dict(grid, values, kind="support")
    _dump_json(args.out, obj)
    _write_manifest(
        "mkfield",
        {
            "grid": args.grid,
            "ball": args.ball,
            "center": args.center,
            "radius": args.radius,
            "constant": args.constant,
            "random": args.random,
        },
        [],
        [args.out],
        args.seed,
        grid,
    )
    return 0


def _cmd_psum(args) -> int:
    from .psum import p_sum

    K = _load_scalar(args.K)
    L = _load_scalar(args.L)
    _same_grid(K, f"--K {args.K}", L, f"--L {args.L}")
    result = p_sum(args.a, K, args.p, args.b, L)
    _dump_json(args.out, _field_json(result, "support"))
    _write_manifest(
        "psum",
        {"a": args.a, "p": args.p, "b": args.b, "K": args.K, "L": args.L},
        [args.K, args.L],
        [args.out],
        None,
        K.grid,
    )
    return 0


def _cmd_dilate(args) -> int:
    from .psum import p_dilate

    K = _load_scalar(args.K)
    result = p_dilate(args.a, args.p, K)
    _dump_json(args.out, _field_json(result, "support"))
    _write_manifest(
        "dilate",
        {"a": args.a, "p": args.p, "K": args.K},
        [args.K],
        [args.out],
        None,
        K.grid,
    )
    return 0


def _cmd_quermass(args) -> int:
    from .quermass import I_k_inverse, modified_quermass

    K = _load_scalar(args.K)
    n = K.grid.n
    ks = [_check_k(args.k, n)] if args.k is not None else list(range(n + 1))
    values = {}
    for k in ks:
        rep = modified_quermass(K, k)
        values[f"W{k}"] = {
            "value": rep.value,
            "method": rep.method,
            "mean_radius": I_k_inverse(n, k, rep.value),
        }
    report = {"n": n, "quermass": values}
    _dump_json(args.out, report)
    _write_manifest(
        "quermass",
        {"K": args.K, "k": args.k},
        [args.K],
        [args.out],
        None,
        K.grid,
    )
    return 0


def _cmd_steiner(args) -> int:
    from .quermass import steiner_check, weighted_steiner_check

    K = _load_scalar(args.K)
    if args.kind == "weighted":
        rep = weighted_steiner_check(K, args.rho)
        report = {
            "rho": args.rho,
            "kind": "weighted",
            "residual_integral_form": rep.residual_integral_form,
            "residual_closed_form": rep.residual_closed_form,
            "scale": rep.scale,
        }
    else:
        rep = steiner_check(K, args.rho)
        report = {
            "rho": args.rho,
            "kind": args.kind,
            "shifted_residuals": rep.residuals,
            "classical_residual": rep.classical_residual,
            "scale": rep.scale,
        }
    _dump_json(args.out, report)
    _write_manifest(
        "steiner",
        {"K": args.K, "rho": args.rho, "kind": args.kind},
        [args.K],
        [args.out],
        None,
        K.grid,
    )
    return 0


def _cmd_weighted(args) -> int:
    from .quermass import S_functional, minkowski_formula_residuals, weighted_volume

    K = _load_scalar(args.K)
    mink = minkowski_formula_residuals(K)
    report = {
        "weighted_volume": weighted_volume(K),
        "S": S_functional(K),
        "minkowski_classical_residuals": mink.classical,
        "minkowski_shifted_residuals": mink.shifted,
    }
    _dump_json(args.out, report)
    _write_manifest(
        "weighted", {"K": args.K}, [args.K], [args.out], None, K.grid
    )
    return 0


def _cmd_measure(args) -> int:
    from .problems import measure_density

    K = _load_scalar(args.K)
    density = measure_density(K, args.p, _check_k(args.k, K.grid.n))
    total = integrate(K.grid, density)
    obj = field_to_json_dict(K.grid, density, kind="measure-density")
    obj["total"] = total
    obj["p"] = args.p
    obj["k"] = args.k
    _dump_json(args.out, obj)
    _write_manifest(
        "measure",
        {"K": args.K, "p": args.p, "k": args.k},
        [args.K],
        [args.out],
        None,
        K.grid,
    )
    return 0


def _cmd_kw(args) -> int:
    from .problems import kw_residual

    K = _load_scalar(args.K)
    f = _load_scalar(args.f)
    _same_grid(K, f"--K {args.K}", f, f"--f {args.f}")
    rep = kw_residual(K, f.phi, _check_k(args.k, K.grid.n))
    report = {
        "k": args.k,
        "coordinate_integrals": list(rep.coordinate_integrals),
        "max_abs_coordinate_integral": max(
            abs(v) for v in rep.coordinate_integrals
        ),
        "general_identity_residual": rep.general_identity_residual,
    }
    _dump_json(args.out, report)
    _write_manifest(
        "kw",
        {"K": args.K, "f": args.f, "k": args.k},
        [args.K, args.f],
        [args.out],
        None,
        K.grid,
    )
    return 0


def _cmd_ballsolve(args) -> int:
    from .problems import ball_solutions

    n = args.n
    if n not in (1, 2):
        raise UsageError(f"--n must be 1 or 2, got {n}")
    # k = n leaves no curvature factor, so no ball equation.
    if not 0 <= args.k < n:
        raise UsageError(f"--k must lie in 0..{n - 1} for n = {n}, got {args.k}")
    # p < -n lies outside the k >= 1 range; at k = 0 it has one ball.
    if args.p < -n and args.k > 0:
        raise UsageError(f"--p must be at least -n = {-n} for --k >= 1, got {args.p}")
    rep = ball_solutions(n, args.k, args.p, args.gamma)
    report = {
        "case": rep.case,
        "n": rep.n,
        "k": rep.k,
        "p": rep.p,
        "gamma": rep.gamma,
        "gamma0": rep.gamma0,
        "t0": rep.t0,
        "c_values": list(rep.c_values),
        "radii": list(rep.radii),
        "residuals": list(rep.residuals),
    }
    _dump_json(args.out, report)
    _write_manifest(
        "ballsolve",
        {"n": args.n, "k": args.k, "p": args.p, "gamma": args.gamma},
        [],
        [args.out],
        None,
        None,
    )
    return 0


def _cmd_assumption_h(args) -> int:
    from .problems import check_assumption_h

    f = _load_scalar(args.f)
    rep = check_assumption_h(f.phi, f.grid, f.grid.n, _check_k(args.k, f.grid.n), args.p)
    report = {
        "passes": rep.passes,
        "regime": rep.regime,
        "k": args.k,
        "p": args.p,
        "worst_node": rep.worst_node,
        "worst_eigenvalue": rep.worst_eigenvalue,
    }
    _dump_json(args.out, report)
    _write_manifest(
        "assumption-h",
        {"f": args.f, "k": args.k, "p": args.p},
        [args.f],
        [args.out],
        None,
        f.grid,
    )
    return 0


FLOW_CONFIG_KEYS = frozenset({
    "n", "k", "p", "f", "initial", "grid", "initial_radius", "seed",
    "dt_initial", "max_dt", "eps_stop", "max_steps", "enforce_even",
    "assumption_mode", "trace_every",
})


def _cmd_flow(args) -> int:
    from .flow import FlowConfig, run as run_flow

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such config file: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad config file {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"flow config {args.config} must be a JSON object")
    unknown = sorted(set(cfg) - FLOW_CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown flow config key(s): {', '.join(unknown)}")
    inputs = [args.config]
    try:
        n = as_integer(cfg["n"], "flow config n")
        k = as_integer(cfg["k"], "flow config k")
        p = _as_real(cfg["p"], "flow config p")
        r0 = _as_real(cfg.get("initial_radius", math.log(2.0)), "flow config initial_radius")
        # Only the keys the file gives; FlowConfig holds the defaults.
        options = {}
        for key in ("max_dt", "eps_stop"):
            if key in cfg:
                options[key] = _as_real(cfg[key], f"flow config {key}")
        if cfg.get("dt_initial") is not None:
            options["dt_initial"] = _as_real(cfg["dt_initial"], "flow config dt_initial")
        for key in ("max_steps", "trace_every"):
            if key in cfg:
                options[key] = as_integer(cfg[key], f"flow config {key}")
        enforce_even = cfg.get("enforce_even")
        if not isinstance(enforce_even, (bool, type(None))):
            raise ValueError(
                f"flow config enforce_even must be true, false or null, got {enforce_even!r}"
            )
        if enforce_even is not None:
            options["enforce_even"] = enforce_even
        if "assumption_mode" in cfg:
            options["assumption_mode"] = cfg["assumption_mode"]
    except KeyError as exc:
        raise UsageError(f"flow config missing key {exc}") from None
    except ValueError as exc:
        raise UsageError(f"bad flow config {args.config}: {exc}") from None
    fields, sources = {}, {}
    for key in ("f", "initial"):
        entry = cfg.get(key)
        if entry is None:
            continue
        if isinstance(entry, str):
            inputs.append(entry)
        sources[key] = f"flow config {key} " + (entry if isinstance(entry, str) else "(inline)")
        try:
            fields[key] = _load_scalar(entry)
        except UsageError as exc:
            raise UsageError(f"flow config {key}: {exc}") from None
    f_field = fields.get("f")
    if "initial" in fields:
        # The initial field fixes the grid; a second grid would be ignored.
        if "grid" in cfg:
            raise UsageError("flow config gives both 'initial' and 'grid'; give one")
        phi0 = fields["initial"]
    else:
        if isinstance(cfg.get("grid"), str):
            grid = _parse_grid(cfg["grid"])
        elif "grid" in cfg:
            try:
                grid = grid_from_json_dict(n, cfg["grid"])
            except (KeyError, ValueError) as exc:
                raise UsageError(f"bad grid in {args.config}: {exc}") from None
        elif f_field is not None:
            grid = f_field.grid
        else:
            raise UsageError("flow config needs 'initial', 'grid', or 'f'")
        phi0 = support_of_ball(grid, origin(grid.n), r0)
        sources["initial"] = (
            f"flow config grid {_grid_spec(grid)}" if "grid" in cfg else sources["f"]
        )
    if phi0.grid.n != n:
        raise UsageError(
            f"flow config has n = {n} but {sources['initial']} lives on S^{phi0.grid.n}"
        )
    if f_field is not None:
        _same_grid(phi0, sources["initial"], f_field, sources["f"])
    config = FlowConfig(
        n=n,
        k=k,
        p=p,
        f=f_field.phi if f_field is not None else None,
        **options,
    )
    result = run_flow(config, phi0)
    outputs = []
    result.trace.to_csv(args.out)
    outputs.append(args.out)
    if args.terminal:
        extra = {
            "status": result.status,
            "gamma": result.gamma,
            "gamma_variation": result.gamma_variation,
            "steps": result.steps,
            "t_final": result.t_final,
            "warnings": result.warnings,
        }
        _dump_json(args.terminal, _field_json(result.terminal, "support", extra))
        outputs.append(args.terminal)
    _write_manifest(
        "flow",
        {"config": args.config, "n": n, "k": k, "p": p},
        inputs,
        outputs,
        cfg.get("seed"),
        phi0.grid,
    )
    print(
        f"flow {result.status}: steps={result.steps} t={result.t_final:.6g} "
        f"gamma={result.gamma:.9g} gamma_variation={result.gamma_variation:.3g}"
    )
    return 0 if result.status == "converged" else 1


def _cmd_project(args) -> int:
    from .euclid_bridge import euclid_volume, project

    K = _load_scalar(args.K)
    hat = project(K)
    extra = {}
    if convexity(K).classification == "uniformly-h-convex":
        extra["euclidean_volume"] = euclid_volume(hat)
    obj = field_to_json_dict(hat.grid, hat.phi, kind="euclidean-support")
    obj.update(extra)
    _dump_json(args.out, obj)
    _write_manifest(
        "project", {"K": args.K}, [args.K], [args.out], None, K.grid
    )
    return 0


def _cmd_verify(args) -> int:
    from . import verify as verify_mod

    known = ("all",) + verify_mod.SUITES + verify_mod.EXPLORATORY_SUITES
    if args.suite not in known:
        raise UsageError(f"unknown suite {args.suite!r}; known: {', '.join(known)}")
    tol = verify_mod.DEFAULT_TOL if args.tol is None else args.tol
    eq_tol = verify_mod.DEFAULT_EQ_TOL if args.eq_tol is None else args.eq_tol
    corpus = verify_mod.Corpus(seed=args.seed or 0)
    if args.suite == "all":
        records = verify_mod.run_all(
            corpus, tol=tol, eq_tol=eq_tol, exploratory=args.exploratory
        )
    else:
        records = verify_mod.run_suite(args.suite, corpus, tol=tol, eq_tol=eq_tol)
    by_suite: dict[str, list] = {}
    for r in records:
        by_suite.setdefault(r.suite, []).append(r)
    for suite, rs in by_suite.items():
        exploratory = suite.startswith("xp_")
        failed = [r for r in rs if not r.passed]
        status = "recorded" if exploratory else ("ok" if not failed else "FAIL")
        print(f"{suite}: {len(rs)} records, {status}")
        for r in failed if not exploratory else []:
            print(
                f"  FAIL {r.case}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} gap={r.gap:.3g}"
            )
    outputs = []
    if args.out:
        verify_mod.write_records_csv(args.out, records)
        outputs.append(args.out)
        _write_manifest(
            "verify",
            {
                "suite": args.suite,
                "tol": tol,
                "eq_tol": eq_tol,
                "exploratory": args.exploratory,
            },
            [],
            outputs,
            args.seed,
            None,
        )
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
    p.add_argument("--ball", action="store_true", help="geodesic ball support field")
    p.add_argument("--center", default="origin", help="'origin' or comma separated coordinates")
    p.add_argument("--radius", type=_nonnegative, default=None)
    p.add_argument("--constant", type=_finite, default=None, help="constant field value")
    p.add_argument("--random", action="store_true", help="seeded random uniformly h-convex field")
    p.add_argument("--seed", type=_seed, default=None)
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
    p.add_argument("--rho", type=_positive, required=True)
    p.add_argument("--kind", choices=["shifted", "classical", "weighted"], default="shifted")
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
    p.add_argument("--gamma", type=_positive, required=True)
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
    p.add_argument("--tol", type=_finite, default=None, help="default: verify.DEFAULT_TOL")
    p.add_argument("--eq-tol", type=_finite, default=None, help="default: verify.DEFAULT_EQ_TOL")
    p.add_argument("--exploratory", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
