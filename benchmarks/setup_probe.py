"""Time one set-up of the library in a fresh interpreter.

Prints the seconds from just before ``import oscillquad`` to the end of one
warm-up quadrature.  Usage: python3 setup_probe.py <src directory>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import oscillquad  # noqa: E402,F401
from workloads import WARMUP_OP, run_op  # noqa: E402

run_op(WARMUP_OP)
print(f"{time.perf_counter() - start!r}")
