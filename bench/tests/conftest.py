"""Import paths for the benchmark's own tests: the package sources and
the benchmark modules, both taken from this source tree."""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
os.environ.setdefault("HOROCVX_THREADS", "1")
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
