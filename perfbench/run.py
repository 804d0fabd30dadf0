"""Benchmark of the sre-purity command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The harness itself is in
``harness.py``; this entry point only caps the BLAS threads at the CPU count
through the process's own environment, which BLAS reads once, when numpy is
first imported.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    from harness import main

    sys.exit(main())
