"""Outside-in layer tracing and FFT counting for the horocvx benchmark.

Nothing here edits the package.  Layers import each other's functions by
name (``flow`` binds ``_parts``, ``integrate`` and ``band_project`` as its
own globals, ``hconvex`` binds ``gradient`` and ``hessian``), so wrapping
``horocvx.sphere_grid.gradient`` alone would miss most calls.  Installing
a wrapper therefore rebinds every attribute of every ``horocvx.*`` module
that *is* the wrapped function object, and uninstalling puts the original
objects back.

Wrapped names are resolved once, when a ``Tracer`` is built.  A name that
no longer exists (a later refactor may delete ``_parts`` or
``_homotopy_value``) is reported in ``Tracer.absent`` and its metrics read
zero; it never raises.

A span's self time is its duration minus the time covered by its child
spans.  Spans are aggregated as they close (calls, self and inclusive
nanoseconds per name), so memory stays flat over long flow solves.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "horocvx"

FFT_FUNCTIONS = (
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)


@dataclass(frozen=True)
class Layer:
    """One traced function: span name, defining module and attribute.

    ``label_arg`` names a parameter whose value is appended to the span
    name (one span per verify suite); ``sum_arg`` names a numeric
    parameter summed over calls (the homotopy order); ``keep_starts``
    records every call's start time (flow step intervals).
    """

    name: str
    module: str
    attr: str
    label_arg: str | None = None
    sum_arg: str | None = None
    keep_starts: bool = False


LAYERS = (
    Layer("sphere_grid.gradient", "sphere_grid", "gradient"),
    Layer("sphere_grid.hessian", "sphere_grid", "hessian"),
    Layer("sphere_grid.laplacian", "sphere_grid", "laplacian"),
    Layer("sphere_grid.band_project", "sphere_grid", "band_project"),
    Layer("sphere_grid.resample", "sphere_grid", "resample"),
    Layer("sphere_grid.integrate", "sphere_grid", "integrate"),
    Layer("hconvex.parts", "hconvex", "_parts"),
    Layer("hconvex.boundary_data", "hconvex", "boundary_data"),
    Layer("hconvex.convexity", "hconvex", "convexity"),
    Layer("quermass.homotopy", "quermass", "_homotopy_value", sum_arg="order"),
    Layer("quermass.modified_quermass", "quermass", "modified_quermass"),
    Layer("quermass.I_k", "quermass", "I_k"),
    Layer("quermass.I_k_inverse", "quermass", "I_k_inverse"),
    Layer("flow.run", "flow", "run"),
    Layer("flow.step", "flow", "step", keep_starts=True),
    Layer("flow.evaluate", "flow", "_evaluate"),
    Layer("flow.dt_policy", "flow", "_dt_policy"),
    Layer("problems.measure_density", "problems", "measure_density"),
    Layer("problems.kw_residual", "problems", "kw_residual"),
    Layer("problems.check_assumption_h", "problems", "check_assumption_h"),
    Layer("psum.p_sum", "psum", "p_sum"),
    Layer("psum.p_dilate", "psum", "p_dilate"),
    Layer("psum.two_point_ball", "psum", "two_point_ball"),
    Layer("euclid_bridge.project", "euclid_bridge", "project"),
    Layer("euclid_bridge.firey_sum", "euclid_bridge", "firey_sum"),
    Layer("euclid_bridge.euclid_volume", "euclid_bridge", "euclid_volume"),
    Layer("verify", "verify", "run_suite", label_arg="name"),
    Layer("cli.write_manifest", "cli", "_write_manifest"),
    Layer("cli.dump_json", "cli", "_dump_json"),
    Layer("cli.load_scalar", "cli", "_load_scalar"),
)

# Span names whose calls and self time are reported as per-layer metrics.
REPORTED_SPANS = tuple(
    layer.name
    for layer in LAYERS
    if layer.name not in ("flow.run", "verify") and not layer.name.startswith("cli.")
)
PASS_SPANS = tuple(f"sphere_grid.{op}" for op in
                   ("gradient", "hessian", "laplacian", "band_project", "resample"))
# Fixed here rather than read from horocvx.verify, so that the metric
# names stay the same when the package changes.
VERIFY_SUITES = (
    "bm_balls", "bm_k_n", "af_chain", "min_I_Kball", "min_I_p1_Lball", "min_II",
    "weighted_af", "weighted_iso", "weighted_vol_cmp", "hk_n1", "euclid",
    "counterexample", "xp_bm_general", "xp_min_I", "xp_min_II", "xp_weighted_bm",
    "xp_weighted_min", "xp_weighted_scaling",
)
CLI_COMMANDS = ("mkfield", "psum", "quermass", "steiner", "flow")
CLI_SELF_SPANS = ("cli.write_manifest", "cli.dump_json", "cli.load_scalar")


def _package_modules(extra=()):
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    return mods + list(extra)


def _rebind(originals: dict, make_wrapper, extra_modules=()) -> list:
    """Point every module attribute holding an original at its wrapper.

    ``originals`` maps a key to a function; returns the (module, attr,
    original) triples needed to undo the rebinding.
    """
    by_id = {id(fn): (key, fn) for key, fn in originals.items()}
    wrappers = {}
    undo = []
    for mod in _package_modules(extra_modules):
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is None:
                continue
            key, fn = hit
            if key not in wrappers:
                wrappers[key] = make_wrapper(key, fn)
            setattr(mod, attr, wrappers[key])
            undo.append((mod, attr, fn))
    return undo


def _restore(undo: list) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)
    undo.clear()


class _Rebinding:
    """Install and uninstall wrappers around ``self._originals``.

    Subclasses set ``_originals`` (key -> function) and ``_modules``
    (modules outside the package to scan as well) and define
    ``_make_wrapper(key, fn)``.
    """

    _modules: tuple = ()

    def install(self) -> None:
        if not self._undo:
            self._undo = _rebind(self._originals, self._make_wrapper, self._modules)

    def uninstall(self) -> None:
        _restore(self._undo)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class FFTCounter(_Rebinding):
    """Counter-only rebinding of the ``numpy.fft`` transform entry points.

    One call is one spectral analysis or synthesis of one field.
    ``counts`` holds the calls per entry point since the last ``reset``.
    """

    def __init__(self):
        # Imported here, so that numpy loads only after horocvx has set the
        # BLAS thread variables.
        import numpy.fft

        self._modules = (numpy.fft,)
        self._originals = {name: getattr(numpy.fft, name) for name in FFT_FUNCTIONS}
        self._undo: list = []
        self.reset()

    @property
    def calls(self) -> int:
        return sum(self.counts.values())

    def reset(self) -> None:
        self.counts = dict.fromkeys(FFT_FUNCTIONS, 0)

    def _make_wrapper(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class Tracer(_Rebinding):
    """Spans around the calls into each horocvx layer."""

    def __init__(self, layers=LAYERS):
        self.absent = []
        self._originals = {}
        self._by_name = {}
        for layer in layers:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer.module}")
                fn = getattr(module, layer.attr)
            except (ImportError, AttributeError):
                self.absent.append(layer.name)
                continue
            self._originals[layer.name] = fn
            self._by_name[layer.name] = layer
        self._undo: list = []
        self._stack = []  # open spans: [name, child_ns, parent name]
        self.reset()

    def reset(self) -> None:
        self.spans = {}  # name -> [calls, self_ns, incl_ns, raised, arg_sum]
        self.nested_ns = {}  # "child<parent" -> inclusive ns
        self.starts = {}  # name -> call start times, for keep_starts layers
        self._stack.clear()

    def _make_wrapper(self, key, fn):
        layer = self._by_name[key]
        params = list(inspect.signature(fn).parameters)
        label_pos = params.index(layer.label_arg) if layer.label_arg else None
        sum_pos = params.index(layer.sum_arg) if layer.sum_arg else None
        clock = time.perf_counter_ns

        def arg(pos, name, args, kwargs):
            return args[pos] if len(args) > pos else kwargs.get(name)

        def traced(*args, **kwargs):
            name = layer.name
            if label_pos is not None:
                name = f"{name}.{arg(label_pos, layer.label_arg, args, kwargs)}"
            frame = self._open(name)
            start = clock()
            raised = 0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                stat = self._close(frame, clock() - start, raised)
                if sum_pos is not None:
                    stat[4] += arg(sum_pos, layer.sum_arg, args, kwargs) or 0
                if layer.keep_starts:
                    self.starts.setdefault(name, []).append(start)

        traced.__wrapped__ = fn
        return traced

    def _open(self, name: str) -> list:
        frame = [name, 0, self._stack[-1][0] if self._stack else None]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, dur: int, raised: int) -> list:
        name, child_ns, parent = frame
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0, 0, 0, 0]
        stat[0] += 1
        stat[1] += dur - child_ns
        stat[2] += dur
        stat[3] += raised
        if parent is not None:
            key = f"{name}<{parent}"
            self.nested_ns[key] = self.nested_ns.get(key, 0) + dur
        return stat

    @contextmanager
    def span(self, name: str):
        """A span around a block, nested like the wrapped calls."""
        frame = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter_ns() - start, 0)

    def raw(self) -> dict:
        """Aggregates in a JSON-ready form that ``merge_raw`` can sum."""
        intervals = []
        for times in self.starts.values():
            intervals.extend(b - a for a, b in zip(times, times[1:]))
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "nested_ns": dict(self.nested_ns),
            "step_intervals_ns": intervals,
            "absent": list(self.absent),
        }


def merge_raw(raws: list) -> dict:
    """Sum the aggregates of several traced processes or iterations."""
    out = {"spans": {}, "nested_ns": {}, "step_intervals_ns": [], "absent": []}
    for raw in raws:
        for name, stat in raw["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0, 0, 0, 0])
            for i, v in enumerate(stat):
                acc[i] += v
        for key, v in raw["nested_ns"].items():
            out["nested_ns"][key] = out["nested_ns"].get(key, 0) + v
        out["step_intervals_ns"].extend(raw["step_intervals_ns"])
        out["absent"] = sorted(set(out["absent"]) | set(raw["absent"]))
    return out


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def coverage(raw: dict, wall_s: float) -> float:
    """Sum of span self times over the wall time of the traced region."""
    total = sum(stat[1] for stat in raw["spans"].values()) * 1e-9
    return total / wall_s if wall_s > 0 else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics derived from spans, as {name: (value, unit)}."""
    spans = raw["spans"]

    def stat(name, i):
        return spans.get(name, [0, 0, 0, 0, 0])[i]

    m = {}
    for name in REPORTED_SPANS:
        m[f"{name}.calls"] = (stat(name, 0), "count")
        m[f"{name}.self_s"] = (stat(name, 1) * 1e-9, "s")
    m["sphere_grid.passes"] = (sum(stat(n, 0) for n in PASS_SPANS), "count")
    m["quermass.homotopy.order_sum"] = (stat("quermass.homotopy", 4), "count")
    m["flow.step.rejected"] = (stat("flow.step", 3), "count")
    m["flow.trace_row_s"] = (raw["nested_ns"].get("quermass.homotopy<flow.run", 0) * 1e-9, "s")
    intervals_ms = [v * 1e-6 for v in raw["step_intervals_ns"]]
    m["flow.iter_ms.p50"] = (_percentile(intervals_ms, 0.50), "ms")
    m["flow.iter_ms.p99"] = (_percentile(intervals_ms, 0.99), "ms")
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.s"] = (stat(f"verify.{suite}", 2) * 1e-9, "s")
    m["cli.import_s"] = (stat("cli.import", 2) * 1e-9, "s")
    for name in CLI_SELF_SPANS:
        m[f"{name}.self_s"] = (stat(name, 1) * 1e-9, "s")
    return m


def add_span(raw: dict, name: str, dur_ns: int) -> None:
    """Record a span timed by hand (one that no wrapper can see)."""
    stat = raw["spans"].setdefault(name, [0, 0, 0, 0, 0])
    stat[0] += 1
    stat[1] += dur_ns
    stat[2] += dur_ns


def median_metrics(per_iteration: list) -> dict:
    """Median over iterations of each {name: (value, unit)} metric."""
    out = {}
    for name, (_, unit) in per_iteration[0].items():
        out[name] = (statistics.median(it[name][0] for it in per_iteration), unit)
    return out
