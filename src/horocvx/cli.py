"""Command line interface.

Every invocation that writes an output file also writes a run manifest
(`<output>.manifest.json`) recording the command, parameters, input
file hashes, all output paths, seed, package version, and grid, so a
run can be reproduced exactly; identical manifests imply bit-identical
outputs.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, verify as verify_mod
from .euclid_bridge import EuclideanSupport, euclid_volume, project
from .flow import FlowConfig, run as run_flow
from .hconvex import SupportField, convexity, support_of_ball
from .lorentz import hpoint, origin, validate_hpoint
from .problems import (
    ball_solutions,
    check_assumption_h,
    kw_residual,
    measure_density,
)
from .psum import p_dilate, p_sum
from .quermass import (
    I_k_inverse,
    S_functional,
    minkowski_formula_residuals,
    modified_quermass,
    steiner_check,
    weighted_steiner_check,
    weighted_volume,
)
from .sphere_grid import (
    Grid,
    ScalarField,
    field_from_json_dict,
    field_to_json_dict,
    grid_from_json_dict,
    grid_to_json_dict,
    integrate,
    make_grid,
)


class UsageError(Exception):
    pass


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


def _load_scalar(path: str) -> ScalarField:
    try:
        with open(path) as fh:
            grid, values, _ = field_from_json_dict(json.load(fh))
        return ScalarField(grid, values)
    except FileNotFoundError:
        raise UsageError(f"no such field file: {path}") from None
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise UsageError(f"bad field file {path}: {exc}") from None


def _load_support(path: str) -> SupportField:
    f = _load_scalar(path)
    return SupportField(f.grid, f.values)


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


def _field_json(field, kind: str, extra: dict | None = None) -> dict:
    values = field.phi if hasattr(field, "phi") else field.values
    obj = field_to_json_dict(field.grid, np.asarray(values), kind=kind)
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
        fields = verify_mod.random_h_convex_fields(args.seed or 0, [grid], 1)
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
    K = _load_support(args.K)
    L = _load_support(args.L)
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
    K = _load_support(args.K)
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
    K = _load_support(args.K)
    n = K.grid.n
    ks = [args.k] if args.k is not None else list(range(n + 1))
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
    K = _load_support(args.K)
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
    K = _load_support(args.K)
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
    K = _load_support(args.K)
    density = measure_density(K, args.p, args.k)
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
    K = _load_support(args.K)
    f = _load_scalar(args.f)
    rep = kw_residual(K, f.values, args.k)
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
    rep = ball_solutions(args.n, args.k, args.p, args.gamma)
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
    f = _load_scalar(args.f)
    rep = check_assumption_h(f.values, f.grid, f.grid.n, args.k, args.p)
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


def _resolve_field_entry(entry, inputs: list[str]) -> ScalarField:
    if isinstance(entry, str):
        inputs.append(entry)
        return _load_scalar(entry)
    grid, values, _ = field_from_json_dict(entry)
    return ScalarField(grid, values)


FLOW_CONFIG_KEYS = frozenset({
    "n", "k", "p", "f", "initial", "grid", "initial_radius", "seed",
    "dt_initial", "max_dt", "eps_stop", "max_steps", "enforce_even",
    "assumption_mode", "trace_every",
})


def _cmd_flow(args) -> int:
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
        n = int(cfg["n"])
        k = int(cfg["k"])
        p = float(cfg["p"])
    except KeyError as exc:
        raise UsageError(f"flow config missing key {exc}") from None
    f_field = None
    if cfg.get("f") is not None:
        f_field = _resolve_field_entry(cfg["f"], inputs)
    if cfg.get("initial") is not None:
        init = _resolve_field_entry(cfg["initial"], inputs)
        phi0 = SupportField(init.grid, init.values)
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
        r0 = float(cfg.get("initial_radius", math.log(2.0)))
        phi0 = support_of_ball(grid, origin(grid.n), r0)
    config = FlowConfig(
        n=n,
        k=k,
        p=p,
        f=f_field.values if f_field is not None else None,
        dt_initial=None if cfg.get("dt_initial") is None else float(cfg["dt_initial"]),
        max_dt=float(cfg.get("max_dt", 0.05)),
        eps_stop=float(cfg.get("eps_stop", 1e-6)),
        max_steps=int(cfg.get("max_steps", 200000)),
        enforce_even=cfg.get("enforce_even"),
        assumption_mode=cfg.get("assumption_mode", "strict"),
        trace_every=int(cfg.get("trace_every", 1)),
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
    K = _load_support(args.K)
    hat = project(K)
    extra = {}
    if convexity(K).classification == "uniformly-h-convex":
        extra["euclidean_volume"] = euclid_volume(
            EuclideanSupport(hat.grid, hat.u_hat)
        )
    obj = field_to_json_dict(hat.grid, hat.u_hat, kind="euclidean-support")
    obj.update(extra)
    _dump_json(args.out, obj)
    _write_manifest(
        "project", {"K": args.K}, [args.K], [args.out], None, K.grid
    )
    return 0


def _cmd_verify(args) -> int:
    corpus = verify_mod.Corpus(seed=args.seed or 0)
    if args.suite == "all":
        records = verify_mod.run_all(
            corpus, tol=args.tol, eq_tol=args.eq_tol, exploratory=args.exploratory
        )
    else:
        records = verify_mod.run_suite(
            args.suite, corpus, tol=args.tol, eq_tol=args.eq_tol
        )
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
                "tol": args.tol,
                "eq_tol": args.eq_tol,
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
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--constant", type=float, default=None, help="constant field value")
    p.add_argument("--random", action="store_true", help="seeded random uniformly h-convex field")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mkfield)

    p = sub.add_parser("psum", help="hyperbolic p-sum of two support fields")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--L", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_psum)

    p = sub.add_parser("dilate", help="p-dilation of a support field")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
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
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--kind", choices=["shifted", "classical", "weighted"], default="shifted")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_steiner)

    p = sub.add_parser("weighted", help="weighted volume, S functional, Minkowski residuals")
    p.add_argument("--K", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_weighted)

    p = sub.add_parser("measure", help="surface area measure density and total mass")
    p.add_argument("--K", required=True)
    p.add_argument("--p", type=float, required=True)
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
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ballsolve)

    p = sub.add_parser("assumption-h", help="check the structural convexity condition on data f")
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
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
    p.add_argument("suite", choices=("all",) + verify_mod.SUITES + verify_mod.EXPLORATORY_SUITES)
    p.add_argument("--out", default=None, help="records CSV path")
    p.add_argument("--tol", type=float, default=verify_mod.DEFAULT_TOL)
    p.add_argument("--eq-tol", type=float, default=verify_mod.DEFAULT_EQ_TOL)
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
