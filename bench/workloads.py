"""The four benchmark workloads: inputs from a seed, one timed operation
sequence, and the correctness check of its result.

Each workload object is built once per worker (its construction is the
set-up that ``setup_s`` times), then ``run`` is called repeatedly inside
the timed region and ``check`` after each call, outside it.  ``check``
returns one message per failed operation; ``ops`` is the number of
operations one ``run`` attempts, so failures / (ops * runs) is fail_frac.
``marks`` names the function at whose calls the speed probe may run
(flow steps, verify suites, CLI commands), so that the timed region is
probed at least once per such call or per probe interval;
``in_children`` says whether the timed work runs in child processes,
which picks the kind of speed probe.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from horocvx import flow, verify
from horocvx.flow import TRACE_COLUMNS, FlowConfig
from horocvx.hconvex import SupportField
from horocvx.problems import kw_residual, pde_residual
from horocvx.quermass import I_k, modified_quermass
from horocvx.sphere_grid import make_grid

BENCH_DIR = Path(__file__).resolve().parent

# Seeded inputs stay within 2.5% of the acceptance amplitudes (seed 0
# reproduces them exactly) and vary the phase freely, so every seed does
# nearly the same work: the flow step count moves by about 1% per 1% of
# amplitude, and the benchmark's spread is taken across seeds.
S1_AMPLITUDE = (0.195, 0.205)
S2_Y20 = (0.022, 0.023)
S2_Y22 = (0.0585, 0.0615)


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return _sha256_bytes(fh.read())


class FlowS1:
    """n=1, k=0, p=2 on s1:96 from phi = 2 with f = 1 + a cos(2 theta + phase)."""

    name = "flow-s1"
    ops = 1
    marks = (flow, "step")
    in_children = False

    def __init__(self, seed: int):
        if seed == 0:
            self.amplitude, self.phase = 0.2, 0.0
        else:
            rng = np.random.default_rng(seed)
            self.amplitude = float(rng.uniform(*S1_AMPLITUDE))
            self.phase = float(rng.uniform(0.0, 2.0 * math.pi))
        grid = make_grid(1, 96)
        theta = grid._cache["theta"]
        self.f = 1.0 + self.amplitude * np.cos(2.0 * theta + self.phase)
        self.body = SupportField(grid, np.full(grid.size, 2.0))
        self.config = FlowConfig(n=1, k=0, p=2.0, f=self.f, eps_stop=1e-6)

    def run(self, traced: bool = False):
        # Looked up at call time, so that a traced run sees the wrapper.
        return flow.run(self.config, self.body)

    def check(self, result) -> list[str]:
        if result.status != "converged":
            return [f"status {result.status}"]
        _, pde_sup = pde_residual(result.terminal, result.gamma * self.f, 2.0, 0)
        kw = max(abs(v) for v in kw_residual(result.terminal, self.f, 0).coordinate_integrals)
        wk = result.trace.column("Wk")
        drift = float(np.max(np.abs(wk - wk[0])))
        bad = [
            f"{label} {value:.3e} > {limit:g}"
            for label, value, limit in (
                ("pde residual", pde_sup, 1e-4),
                ("gamma variation", result.gamma_variation, 1e-3),
                ("KW coordinate integral", kw, 1e-8),
                ("W_k drift", drift, 1e-6),
            )
            if not value <= limit
        ]
        return ["; ".join(bad)] if bad else []

    def counts(self, result) -> dict:
        return {"flow_steps": result.steps}

    def digest(self, result) -> str:
        return _sha256_bytes(np.ascontiguousarray(result.terminal.phi, dtype="<f8").tobytes())

    def cleanup(self, result) -> None:
        pass


class FlowS2(FlowS1):
    """n=2, k=1, p=1 on s2:16 from an even Y20 + Y22 body, f = 1."""

    name = "flow-s2"

    def __init__(self, seed: int):
        if seed == 0:
            self.y20, self.y22 = 0.0225, 0.06
        else:
            rng = np.random.default_rng(seed)
            self.y20 = float(rng.uniform(*S2_Y20))
            self.y22 = float(rng.uniform(*S2_Y22))
        grid = make_grid(2, 16)
        z = grid.nodes
        self.body = SupportField(
            grid,
            2.0 * (1.0 + self.y20 * (3.0 * z[:, 2] ** 2 - 1.0)
                   + self.y22 * (z[:, 0] ** 2 - z[:, 1] ** 2)),
        )
        self.config = FlowConfig(n=2, k=1, p=1.0, eps_stop=1e-6)
        self.w0 = modified_quermass(self.body, self.config.k).value

    def check(self, result) -> list[str]:
        if result.status != "converged":
            return [f"status {result.status}"]
        jp = result.trace.column("Jp")
        phi = result.terminal.phi
        mean = float(np.mean(phi))
        bad = [
            f"{label} {value:.3e} > {limit:g}"
            for label, value, limit in (
                ("W_k drift", float(np.max(np.abs(result.trace.column("Wk") - self.w0))), 1e-6),
                ("J_p rise", float(np.max(np.diff(jp))) if len(jp) > 1 else 0.0, 1e-12),
                ("flatness", float(np.max(np.abs(phi - mean))) / mean, 1e-4),
                ("radius round trip", abs(I_k(2, 1, math.log(mean)) - self.w0), 1e-4),
            )
            if not value <= limit
        ]
        return ["; ".join(bad)] if bad else []


class VerifyAll:
    """``verify.run_all`` over the seeded corpus, exploratory suites included."""

    name = "verify-all"
    in_children = False

    def __init__(self, seed: int, workdir: Path):
        self.corpus = verify.Corpus(seed=seed)
        self.marks = (verify, "run_suite")
        self.workdir = workdir
        self.suites = verify.SUITES + verify.EXPLORATORY_SUITES
        self.ops = len(self.suites)

    def run(self, traced: bool = False):
        return verify.run_all(self.corpus, exploratory=True)

    def check(self, records) -> list[str]:
        failures = []
        for suite in self.suites:
            rs = [r for r in records if r.suite == suite]
            if not rs:
                failures.append(f"{suite}: no records")
            elif suite.startswith("xp_"):
                if not all(math.isfinite(r.gap) for r in rs):
                    failures.append(f"{suite}: non-finite gap")
            elif not verify.all_passed(rs):
                failures.append(f"{suite}: {sum(not r.passed for r in rs)} failed records")
            elif suite == "counterexample":
                negative = [r for r in rs if r.gap < 0.0]
                expected = all("scale2" in r.case and "cross-check" not in r.case
                               for r in negative)
                if not negative or not expected or len({r.gap for r in negative}) != 1:
                    failures.append(f"{suite}: negative gaps {[r.case for r in negative]}")
        return failures

    def counts(self, records) -> dict:
        return {"verify.records": len(records)}

    def digest(self, records) -> str:
        fd, path = tempfile.mkstemp(suffix=".csv", dir=self.workdir)
        os.close(fd)
        try:
            verify.write_records_csv(path, records)
            return _sha256_file(path)
        finally:
            os.unlink(path)

    def cleanup(self, records) -> None:
        pass


# The README session: two fields, their 2-sum, its quermassintegrals and
# Steiner residuals, then the ball flow (which converges at step 0).
CLI_FLOW_CONFIG = {"n": 1, "k": 0, "p": 0.0, "grid": "s1:96",
                   "initial_radius": 0.6931, "eps_stop": 1e-6}


def cli_commands(seed: int) -> list:
    """(command, argv, inputs, outputs) of the session, in order."""
    return [
        ("mkfield", ["mkfield", "--grid", "s1:128", "--random", "--seed", str(seed),
                     "--out", "K.json"], [], ["K.json"]),
        ("mkfield", ["mkfield", "--grid", "s1:128", "--ball", "--center", "origin",
                     "--radius", "0.9", "--out", "L.json"], [], ["L.json"]),
        ("psum", ["psum", "--a", "1.0", "--K", "K.json", "--p", "2.0", "--b", "1.0",
                  "--L", "L.json", "--out", "M.json"], ["K.json", "L.json"], ["M.json"]),
        ("quermass", ["quermass", "--K", "M.json", "--k", "0", "--out", "w.json"],
         ["M.json"], ["w.json"]),
        ("steiner", ["steiner", "--K", "M.json", "--rho", "0.3", "--kind", "shifted",
                     "--out", "steiner.json"], ["M.json"], ["steiner.json"]),
        ("flow", ["flow", "--config", "flow.json", "--out", "trace.csv",
                  "--terminal", "terminal.json"], ["flow.json"],
         ["trace.csv", "terminal.json"]),
    ]


def launch(argv: list, mode: str, stats_path, cwd, env) -> tuple[int, int]:
    """Run one ``horocvx`` command through the launcher; (exit code, wall ns)."""
    cmd = [sys.executable, str(BENCH_DIR / "cli_launch.py"), mode, str(stats_path), *argv]
    start = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, time.perf_counter_ns() - start


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class CommandRun:
    command: str
    argv: list
    inputs: list
    outputs: list
    returncode: int
    wall_ns: int
    stats: dict | None


@dataclass
class CliResult:
    tmp: Path
    commands: list


class CliPipeline:
    """The README session, one ``horocvx`` process per command."""

    name = "cli-pipeline"
    in_children = True

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.commands = cli_commands(seed)
        self.ops = len(self.commands)
        self.marks = (sys.modules[__name__], "launch")
        self.env = child_env(root)
        self.workdir = workdir

    def run(self, traced: bool = False) -> CliResult:
        """The session; command processes trace their layers when ``traced``."""
        tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        with open(tmp / "flow.json", "w") as fh:
            json.dump(CLI_FLOW_CONFIG, fh)
        runs = []
        for i, (command, argv, inputs, outputs) in enumerate(self.commands):
            stats_path = tmp / f".stats-{i}.json"
            rc, wall = launch(argv, "trace" if traced else "count", stats_path, tmp, self.env)
            stats = None
            if stats_path.exists():
                with open(stats_path) as fh:
                    stats = json.load(fh)
                stats_path.unlink()
            runs.append(CommandRun(command, argv, inputs, outputs, rc, wall, stats))
        return CliResult(tmp, runs)

    def check(self, result: CliResult) -> list[str]:
        failures = []
        for run_ in result.commands:
            problems = self._check_command(result.tmp, run_)
            if problems:
                failures.append(f"{' '.join(run_.argv[:1])} -> {run_.outputs}: {problems}")
        return failures

    @staticmethod
    def _check_command(tmp: Path, run_: CommandRun) -> str:
        if run_.returncode != 0:
            return f"exit code {run_.returncode}"
        for out in run_.outputs:
            path = tmp / out
            try:
                if out.endswith(".csv"):
                    with open(path, newline="") as fh:
                        rows = list(csv.reader(fh))
                    if tuple(rows[0]) != TRACE_COLUMNS or len(rows) < 2:
                        return f"{out}: bad trace header or no rows"
                    for row in rows[1:]:
                        list(map(float, row))
                else:
                    with open(path) as fh:
                        json.load(fh)
                with open(str(path) + ".manifest.json") as fh:
                    manifest = json.load(fh)
            except (OSError, ValueError, IndexError) as exc:
                return f"{out}: {exc}"
            if sorted(manifest["outputs"]) != sorted(run_.outputs):
                return f"{out}: manifest lists {manifest['outputs']}"
            if sorted(manifest["inputs"]) != sorted(run_.inputs):
                return f"{out}: manifest inputs {sorted(manifest['inputs'])}"
            for name, digest in manifest["inputs"].items():
                if _sha256_file(tmp / name) != digest:
                    return f"{out}: input hash of {name} does not match the file"
        return ""

    def counts(self, result: CliResult) -> dict:
        return {}

    def digest(self, result: CliResult) -> str:
        h = hashlib.sha256()
        for run_ in result.commands:
            for out in run_.outputs:
                path = result.tmp / out
                if path.exists():
                    h.update(f"{out}:{_sha256_file(path)}\n".encode())
        return h.hexdigest()

    def cleanup(self, result: CliResult) -> None:
        shutil.rmtree(result.tmp, ignore_errors=True)


def make_workload(name: str, seed: int, root: Path, workdir: Path):
    if name == "flow-s1":
        return FlowS1(seed)
    if name == "flow-s2":
        return FlowS2(seed)
    if name == "verify-all":
        return VerifyAll(seed, workdir)
    if name == "cli-pipeline":
        return CliPipeline(seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")
