"""horocvx benchmark: four workloads, exact work counts, a layer trace.

    python3 bench/run.py --workload flow-s1 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one table

Run from the root of a source tree (``src/horocvx`` must exist; nothing
needs installing).  Each workload runs in this process with
``HOROCVX_THREADS=1``.  ``--trace 0`` prints the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics.  Wall times are scaled to a reference CPU
speed by ``speed.py``; the record keeps the raw times.  The line before
last is the full result record (environment, samples, digests); the last
line is the summary ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when a correctness check fails and 2 on a usage or
set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import (
    CLI_COMMANDS,
    FFTCounter,
    Tracer,
    coverage,
    layer_metrics,
    median_metrics,
    merge_raw,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("flow-s1", "flow-s2", "verify-all", "cli-pipeline")
SETUP_REPEATS = 5
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "fft_calls")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload inputs and exit (times setup_s)")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of this tree; None outside a git checkout of it."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        **{var: os.environ.get(var) for var in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "HOROCVX_THREADS")},
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def upper_percentile(samples: list) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 21:
        return None
    ordered = sorted(samples)
    i = n - 11
    return {"percentile": round(100.0 * i / (n - 1), 1), "value": ordered[i], "n": n}


def time_setups(workload: str, seed: int) -> list:
    """``(raw_s, scaled_s)`` of fresh processes that only set the workload
    up, each between two process probes."""
    if workload == "cli-pipeline":
        from workloads import child_env, launch

        env = child_env(ROOT)

        def setup():
            launch(["--version"], "plain", os.devnull, ROOT, env)
    else:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]

        # With stderr on a pipe, run() waits for the pipe to close instead
        # of polling the child with sleeps of up to 50 ms under the timeout.
        def setup():
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, timeout=120)
    probe = speed.process_probe()
    probe.start()
    for _ in range(SETUP_REPEATS):
        setup()
        probe.probe()
    return probe.stretches()


class Runner:
    """Timed iterations of one workload, with checks and optional tracing."""

    MIN_UNTRACED = 2

    def __init__(self, workload):
        self.wl = workload
        self.counter = FFTCounter()
        self.tracer = Tracer()
        # Work that runs in child processes is timed against the process
        # probe, work in this process against the compute probe.
        self.probe = speed.process_probe() if workload.in_children else speed.compute_probe()
        self.probe_hook = speed.ProbeAtCalls(*workload.marks, self.probe)
        self.walls = {False: [], True: []}
        self.scaled = []
        self.probe_ns = []
        self.fft = []
        self.layers = []
        self.counts = {}
        self.digests = set()
        self.failures = []
        self.attempted = 0
        self.absent = []

    def iterate(self, traced: bool) -> None:
        wl = self.wl
        self.counter.reset()
        self.tracer.reset()
        if not traced:
            self.probe.start()
        self.counter.install()
        # The tracer and the probe hook both rebind their functions, so only
        # one of them is installed at a time.
        (self.tracer if traced else self.probe_hook).install()
        start = time.perf_counter_ns()
        try:
            result = wl.run(traced)
        except Exception as exc:  # one failed iteration: record it and go on
            self.attempted += wl.ops
            self.failures.extend([f"{type(exc).__name__}: {exc}"] * wl.ops)
            return
        finally:
            end = time.perf_counter_ns()
            self.tracer.uninstall()
            self.probe_hook.uninstall()
            self.counter.uninstall()
            if not traced:
                self.probe.probe()
        try:
            self.attempted += wl.ops
            self.failures.extend(wl.check(result))
            self.digests.add(wl.digest(result))
            self.counts = wl.counts(result)
            self.record(traced, start, end, result)
        finally:
            wl.cleanup(result)

    def record(self, traced: bool, start: int, end: int, result) -> None:
        wall = (end - start) * 1e-9
        fft_calls = self.counter.calls
        commands = dict.fromkeys(CLI_COMMANDS, 0.0)
        raws = [self.tracer.raw()]
        for run_ in getattr(result, "commands", ()):
            stats = run_.stats or {}
            fft_calls += stats.get("fft_calls", 0)
            commands[run_.command] += run_.wall_ns * 1e-9
            if "raw" in stats:
                raws.append(stats["raw"])
        if not traced:
            raw, scaled = self.probe.totals()
            self.walls[False].append(raw)
            self.scaled.append(scaled)
            self.probe_ns.extend(k for _, _, k in self.probe.samples)
            self.fft.append(fft_calls)
            return
        self.walls[True].append(wall)
        raw = merge_raw(raws)
        m = layer_metrics(raw)
        for command, seconds in commands.items():
            m[f"cli.{command}.s"] = (seconds, "s")
        m["flow_steps"] = (self.counts.get("flow_steps", 0), "count")
        m["verify.records"] = (self.counts.get("verify.records", 0), "count")
        m["trace.coverage"] = (coverage(raw, wall), "ratio")
        self.absent = raw["absent"]
        self.layers.append(m)

    def measure(self, seconds: float, trace: bool) -> None:
        """Iterate until the next iteration would end past ``seconds``.

        An untraced run makes at least two iterations; a traced run
        alternates untraced and traced iterations, at least one of each.
        """
        start = time.perf_counter()
        sequence = [False, True] if trace else [False]
        minimum = 2 if trace else self.MIN_UNTRACED
        i = 0
        while True:
            self.iterate(sequence[i % len(sequence)])
            i += 1
            elapsed = time.perf_counter() - start
            if i >= minimum and elapsed + elapsed / i > seconds:
                break


def fmt(value, unit: str) -> str:
    return str(int(value)) if unit == "count" else f"{value:.4g}"


def worker(args) -> int:
    if not (ROOT / "src" / "horocvx" / "__init__.py").is_file():
        fail(f"no horocvx sources under {ROOT / 'src'}; run from a source checkout")
    os.environ["HOROCVX_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import horocvx  # sets the BLAS thread variables before numpy loads

    if Path(horocvx.__file__).resolve().parent != ROOT / "src" / "horocvx":
        fail(f"imported horocvx from {horocvx.__file__}, not from this tree")
    from workloads import make_workload

    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    if args.setup_only:
        make_workload(args.workload, args.seed, ROOT, workdir)
        return 0

    # The probe must time the CPU the work runs on, and the two CPUs of the
    # shared machine slow down independently, so this process and every
    # process it starts stay on one CPU.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = environment()
    env["cpu"] = cpu
    setups = time_setups(args.workload, args.seed)
    wl = make_workload(args.workload, args.seed, ROOT, workdir)
    runner = Runner(wl)
    runner.measure(args.seconds, bool(args.trace))

    if args.workload == "cli-pipeline":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    env["loadavg_end"] = list(os.getloadavg())
    walls = runner.walls[False]
    scaled = runner.scaled
    failed = len(runner.failures)
    attempted = max(runner.attempted, 1)
    counts = dict(runner.counts)
    counts["fft_calls"] = statistics.median_low(runner.fft) if runner.fft else 0
    end_to_end = dict(zip(END_TO_END, (
        (statistics.median(scaled) if scaled else 0.0, "s"),
        (statistics.median(s for _, s in setups), "s"),
        (rss_kb / 1024.0, "MB"),
        (counts["fft_calls"], "count"),
    )))
    metrics = end_to_end
    if args.trace:
        # Empty only when every traced iteration failed, so correct is false.
        metrics = median_metrics(runner.layers) if runner.layers else {}
        if runner.layers and walls:
            overhead = statistics.median(runner.walls[True]) - statistics.median(walls)
            metrics["trace.overhead_s"] = (overhead, "s")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": {"iteration_scaled_s": scaled, "iteration_raw_s": walls,
                    "traced_iteration_raw_s": runner.walls[True],
                    "setup_scaled_s": [s for _, s in setups],
                    "setup_raw_s": [r for r, _ in setups]},
        "wall_s_upper": upper_percentile(scaled),
        "wall_raw_s": statistics.median(walls) if walls else None,
        "probe_ns": {"reference": runner.probe.reference_ns,
                     "median": statistics.median(runner.probe_ns) if runner.probe_ns else None},
        "counts": counts,
        "fail_frac": failed / attempted,
        "failures": runner.failures[:20],
        "digests": sorted(runner.digests),
        "absent": runner.absent,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    lines = {name: f"{fmt(value, unit)} {unit}" for name, (value, unit) in metrics.items()}
    lines.setdefault("flow_steps", f"{counts.get('flow_steps', '-')} count")
    lines["fail_frac"] = f"{failed / attempted:.6g} ratio"
    for name, text in lines.items():
        print(f"{args.workload} {name} {text}")
    print(json.dumps(record))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own worker process, then one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        record = json.loads(lines[-2])
        rows.append((name, record, json.loads(lines[-1])))
    for name, record, summary in rows:
        e2e = record["end_to_end"]
        cells = [f"{k} {fmt(v['value'], v['unit'])} {v['unit']}" for k, v in e2e.items()]
        cells.append(f"flow_steps {record['counts'].get('flow_steps', '-')} count")
        cells.append(f"fail_frac {record['fail_frac']:.3g} ratio")
        print(f"{name:13s} " + " | ".join(cells))
        if args.trace:
            for k, v in summary["metrics"].items():
                print(f"{name:13s}   {k} {fmt(v['value'], v['unit'])} {v['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
