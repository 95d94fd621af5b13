"""Test-session set-up.

BLAS and OpenMP thread pools are pinned to one thread before numpy is first
imported, as the benchmark pins them (perfbench/workload.py), so the tests and
their byte-identity checks run under the thread count the benchmark assumes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
