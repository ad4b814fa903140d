"""Each workload's correctness check passes on a real result, trips on a
corrupted one, and a tripped check raises fail_frac; the speed-probe
scaling of wall times; BENCHMARK.json names the metrics the runner
prints."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from horocvx.hconvex import SupportField
from run import END_TO_END, WORKLOADS, Runner
from speed import compute_probe, process_probe, scaled_stretches
from tracer import FFTCounter
from workloads import make_workload

ROOT = Path(__file__).resolve().parents[2]


def corrupt(name, result):
    """A copy of ``result`` with one deliberate defect."""
    if name.startswith("flow-"):
        phi = result.terminal.phi.copy()
        phi[0] *= 1.0 + 1e-3
        return replace(result, terminal=SupportField(result.terminal.grid, phi))
    if name == "verify-all":
        return [replace(result[0], passed=not result[0].passed)] + result[1:]
    path = result.tmp / "M.json"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    return result


class Replay:
    """A workload whose run returns a result computed beforehand."""

    def __init__(self, workload, result):
        self.workload = workload
        self.result = result
        self.ops = workload.ops

    def run(self, traced=False):
        return self.result

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def cleanup(self, result):
        pass


def fail_frac(workload, result):
    runner = Runner(Replay(workload, result))
    runner.iterate(traced=False)
    return len(runner.failures) / runner.attempted


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_trips_on_corrupted_result(name, tmp_path):
    workload = make_workload(name, 0, ROOT, tmp_path)
    result = workload.run()
    try:
        assert workload.check(result) == []
        assert fail_frac(workload, result) == 0.0
        bad = corrupt(name, result)
        assert workload.check(bad)
        assert fail_frac(workload, bad) > 0.0
    finally:
        workload.cleanup(result)


def test_benchmark_json_names_match_the_runner(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    workload = make_workload("verify-all", 0, ROOT, tmp_path)
    runner = Runner(workload)
    runner.iterate(traced=True)
    traced = set(runner.layers[0]) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced


def test_stretches_are_scaled_by_the_mean_of_their_two_probes():
    ms = 1_000_000
    ref = 330_000
    # Probes as (start, end, kernel ns): the first stretch ran at the
    # reference speed, the second while the probes read twice as slow
    # on average (1x before it, 3x after it).
    samples = [(0, 1 * ms, ref), (101 * ms, 102 * ms, ref), (302 * ms, 303 * ms, 3 * ref)]
    (raw1, scaled1), (raw2, scaled2) = scaled_stretches(samples, ref)
    assert (raw1, scaled1) == pytest.approx((0.1, 0.1))
    assert (raw2, scaled2) == pytest.approx((0.2, 0.1))


@pytest.mark.parametrize("make_probe", [compute_probe, process_probe])
def test_probe_time_is_left_out_of_the_region(make_probe):
    probe = make_probe()
    probe.start()
    probe.probe()
    probe.probe()
    (_, first_end, _), (second_start, second_end, _), (third_start, _, _) = probe.samples
    raw, _ = probe.totals()
    assert raw == pytest.approx(((second_start - first_end) + (third_start - second_end)) * 1e-9)
    assert all(k > 0 for _, _, k in probe.samples)


def test_probe_transforms_are_not_counted_as_the_programs():
    probe = compute_probe()
    with FFTCounter() as counter:
        probe.probe()
    assert counter.calls == 0
