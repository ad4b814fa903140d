"""Run one ``horocvx`` command the way the console script does, measured.

Usage: python3 cli_launch.py MODE STATS_PATH ARGV...

MODE is ``plain`` (nothing installed), ``count`` (FFT counter only) or
``trace`` (FFT counter and layer tracer).  Except in ``plain`` mode, the
counts and spans are written to STATS_PATH as JSON when the command
returns.  The exit code is the command's.
"""

import json
import sys
import time
from contextlib import nullcontext


def main() -> int:
    mode, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter_ns()
    from horocvx.cli import main as cli_main

    import_ns = time.perf_counter_ns() - start
    if mode == "plain":
        return cli_main(argv)

    from tracer import FFTCounter, Tracer, add_span

    counter = FFTCounter()
    tracer = Tracer() if mode == "trace" else None
    with counter, tracer or nullcontext(), tracer.span("cli.main") if tracer else nullcontext():
        rc = cli_main(argv)
    stats = {"fft_calls": counter.calls}
    if tracer:
        raw = tracer.raw()
        add_span(raw, "cli.import", import_ns)
        stats["raw"] = raw
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
