"""Machine-speed probes: wall times scaled to a fixed reference speed.

Other tenants of a shared host slow a CPU for seconds to minutes, by up
to half, and CPU time tracks wall time while they do, so the process is
not descheduled: it runs slower.  A run's raw wall time therefore follows
how long the run spent slowed, not only what the program costs (see
NOTES.md, "Speed probes").

A ``SpeedProbe`` times a short fixed kernel on the same CPU as the work,
at the start and end of every timed region and every ``INTERVAL_NS`` in
between, at the calls ``ProbeAtCalls`` wraps.  A stretch of work between
two probes is scaled by the probe's reference time over the mean kernel
time of those two probes, so a stretch that ran while the CPU was slowed
by some factor counts as if it ran at the reference speed.  Probe time
is left out of both the raw and the scaled times.

The kernel has to slow down the way the work does.  ``compute_probe``
runs small FFTs, float arithmetic and dict updates in this process, the
mix of the in-process workloads; ``process_probe`` starts a bare
interpreter, because start-up work (exec, loading, page faults) slows
differently from in-process arithmetic.
"""

from __future__ import annotations

import subprocess
import sys
import time

from tracer import _Rebinding

# Each kernel's time on an uncontended CPU of the machine the baseline was
# measured on (a low percentile of its probes on a 2-vCPU Xeon guest).  A
# reference only sets the scale: on that machine a scaled time reads as
# the wall time the work takes uncontended.
COMPUTE_REFERENCE_NS = 330_000
PROCESS_REFERENCE_NS = 10_000_000
INTERVAL_NS = 50_000_000
KERNEL_REPEATS = 20


class SpeedProbe:
    """Kernel timings around and inside a timed region.

    ``samples`` holds ``(start_ns, end_ns, kernel_ns)`` per probe; one
    probe runs the kernel twice and keeps the faster time, so that a
    single interrupt or cold cache does not read as a slow CPU.
    """

    def __init__(self, kernel, reference_ns: int):
        self.kernel = kernel
        self.reference_ns = reference_ns
        self.samples: list = []

    def probe(self) -> None:
        clock = time.perf_counter_ns
        a = clock()
        self.kernel()
        b = clock()
        self.kernel()
        c = clock()
        self.samples.append((a, c, min(b - a, c - b)))

    def start(self) -> None:
        """Forget earlier samples and take the first probe of a region."""
        self.samples.clear()
        self.probe()

    def probe_if_due(self) -> None:
        if time.perf_counter_ns() - self.samples[-1][1] >= INTERVAL_NS:
            self.probe()

    def stretches(self) -> list:
        """``(raw_s, scaled_s)`` of the work between consecutive probes."""
        return scaled_stretches(self.samples, self.reference_ns)

    def totals(self) -> tuple[float, float]:
        """Raw and scaled seconds of the whole region since ``start``."""
        pairs = self.stretches()
        return sum(r for r, _ in pairs), sum(s for _, s in pairs)


def scaled_stretches(samples: list, reference_ns: int) -> list:
    out = []
    for (_, prev_end, prev_ns), (next_start, _, next_ns) in zip(samples, samples[1:]):
        raw_ns = next_start - prev_end
        out.append((raw_ns * 1e-9, raw_ns * 1e-9 * reference_ns / ((prev_ns + next_ns) / 2)))
    return out


def compute_probe() -> SpeedProbe:
    # numpy is imported here, after horocvx has set the BLAS thread
    # variables, and its transforms are bound before an FFTCounter rebinds
    # numpy.fft: the kernel's transforms must not count as the program's.
    import numpy as np

    rfft, irfft = np.fft.rfft, np.fft.irfft
    x = np.random.default_rng(0).standard_normal(96)

    def kernel():
        acc = 0.0
        for i in range(KERNEL_REPEATS):
            y = irfft(rfft(x) * 0.5, 96)
            acc += float(y @ y) + i * 0.5
        table: dict = {}
        for i in range(256):
            table[i & 63] = table.get(i & 63, 0) + i
        return acc

    return SpeedProbe(kernel, COMPUTE_REFERENCE_NS)


def process_probe() -> SpeedProbe:
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms, and
    # the probe would read the polling steps instead of the start-up time.
    # A bare interpreter start waits on nothing.
    def kernel():
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)

    return SpeedProbe(kernel, PROCESS_REFERENCE_NS)


class ProbeAtCalls(_Rebinding):
    """Probe the CPU at calls into ``module.attr`` once ``INTERVAL_NS``
    has passed since the last probe (flow steps, verify suites, CLI
    commands), so that no stretch between probes is much longer than one
    such call or the interval."""

    def __init__(self, module, attr: str, probe: SpeedProbe):
        self._modules = (module,)
        self._originals = {attr: getattr(module, attr)}
        self._undo: list = []
        self.probe = probe

    def _make_wrapper(self, _key, fn):
        probe_if_due = self.probe.probe_if_due

        def probed(*args, **kwargs):
            probe_if_due()
            return fn(*args, **kwargs)

        return probed
