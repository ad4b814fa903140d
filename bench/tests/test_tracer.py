"""The layer tracer and the FFT counter, checked against hand counts."""

import time

import numpy as np

import horocvx.flow
import horocvx.hconvex
from horocvx import sphere_grid
from horocvx.hconvex import SupportField
from horocvx.quermass import modified_quermass
from horocvx.sphere_grid import make_grid
from tracer import LAYERS, FFTCounter, Layer, Tracer, layer_metrics


def _s1_body(n=64):
    grid = make_grid(1, n)
    theta = grid._cache["theta"]
    return SupportField(grid, 2.0 + 0.1 * np.cos(2.0 * theta))


def _s2_body(L=8):
    grid = make_grid(2, L)
    z = grid.nodes
    return SupportField(grid, 2.0 * (1.0 + 0.02 * (3.0 * z[:, 2] ** 2 - 1.0)))


def test_parts_bound_in_two_modules_lands_in_one_layer():
    original = horocvx.hconvex._parts
    K = _s1_body()
    tracer = Tracer()
    with tracer:
        assert horocvx.flow._parts is horocvx.hconvex._parts is not original
        horocvx.flow._parts(K)
        horocvx.hconvex._parts(K)
    assert horocvx.flow._parts is original and horocvx.hconvex._parts is original
    assert tracer.spans["hconvex.parts"][0] == 2
    # Each _parts makes one gradient and one Hessian pass, nested under it.
    assert tracer.spans["sphere_grid.gradient"][0] == 2
    assert tracer.spans["sphere_grid.hessian"][0] == 2
    assert tracer.nested_ns["sphere_grid.gradient<hconvex.parts"] > 0


def test_self_times_are_nonnegative_and_fit_inside_the_wall():
    tracer = Tracer()
    start = time.perf_counter_ns()
    with tracer:
        for K in (_s1_body(), _s2_body()):
            for k in range(K.grid.n + 1):
                modified_quermass(K, k)
    wall = time.perf_counter_ns() - start
    selfs = [stat[1] for stat in tracer.spans.values()]
    assert selfs and min(selfs) >= 0
    assert sum(selfs) <= wall
    for stat in tracer.spans.values():
        assert stat[1] <= stat[2]


def test_missing_names_are_reported_absent():
    layers = tuple(l for l in LAYERS if l.name != "hconvex.parts") + (
        Layer("hconvex.parts", "hconvex", "_no_such_function"),
        Layer("nowhere.f", "no_such_module", "f"),
    )
    tracer = Tracer(layers)
    assert tracer.absent == ["hconvex.parts", "nowhere.f"]
    with tracer:
        modified_quermass(_s1_body(), 0)
    raw = tracer.raw()
    assert raw["absent"] == ["hconvex.parts", "nowhere.f"]
    metrics = layer_metrics(raw)
    assert metrics["hconvex.parts.calls"] == (0, "count")
    assert metrics["sphere_grid.gradient.calls"][0] > 0


def test_homotopy_order_sum_and_raised_counts():
    tracer = Tracer()
    K = _s1_body()
    with tracer:
        horocvx.quermass._homotopy_value(K, 0, 16)
        horocvx.quermass._homotopy_value(K, 0, order=8)
        try:
            horocvx.flow._evaluate(None, np.array([-1.0]))
        except horocvx.flow.FlowStepError:
            pass
    assert tracer.spans["quermass.homotopy"][0] == 2
    assert tracer.spans["quermass.homotopy"][4] == 24
    assert tracer.spans["flow.evaluate"][3] == 1


def test_fft_counter_matches_hand_counts():
    s2 = _s2_body()
    s1 = _s1_body()
    original = np.fft.rfft
    cases = (
        (lambda: sphere_grid.hessian(s2.grid, s2.phi), 1, 6),
        (lambda: sphere_grid.gradient(s2.grid, s2.phi), 1, 2),
        (lambda: sphere_grid.gradient(s1.grid, s1.phi), 1, 1),
    )
    for call, rfft, irfft in cases:
        with FFTCounter() as counter:
            call()
        assert counter.counts["rfft"] == rfft
        assert counter.counts["irfft"] == irfft
        assert counter.calls == rfft + irfft
    assert np.fft.rfft is original
