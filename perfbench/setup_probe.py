"""One fresh-process set-up, timed by the benchmark.

    python3 perfbench/setup_probe.py [M ...]

Imports cyc3, builds the field GF(3^M) and its tables for each M, then
prints time.perf_counter().  The parent took its own perf_counter reading
just before starting this process; both read CLOCK_MONOTONIC, so the
difference is the wall time from process start to ready.  Needs `src` on
PYTHONPATH.
"""

import sys
import time

import cyc3

for m in sys.argv[1:]:
    cyc3.field.Field(int(m)).tables()
print(repr(time.perf_counter()))
