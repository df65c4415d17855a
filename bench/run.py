"""Benchmark entry point; see harness.py and README.md.

BLAS and OpenMP are pinned to one thread here, before numpy is first imported,
so that every run measures the same single-threaded program.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the thread variables were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from harness import main

    raise SystemExit(main())
