"""Pin the numeric libraries to one thread for the test run.

OpenBLAS and OpenMP read their thread counts when numpy first loads, which
is after this file: pytest loads the root conftest before any test module
imports numpy. A value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
