"""Time one fresh-process set-up: import `ssp` and fill the lazy caches a
workload uses.  Prints the seconds taken and the median time of the
reference slice measured right after, which run.py uses to scale the
set-up time to the nominal speed; run.py starts this several times per
run and reports the median as setup_s.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import time

t0 = time.process_time()
import sys  # noqa: E402

import workloads  # noqa: E402

workloads.use_source_tree()
workloads.setup(sys.argv[1])
elapsed = time.process_time() - t0

import statistics  # noqa: E402

import run  # noqa: E402

print(elapsed, statistics.median(run.reference_slice() for _ in range(51)))
