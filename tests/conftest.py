"""Test-run settings: pin BLAS to one thread.

OpenBLAS starts a thread per core for dense products, and under contention
those threads can slow the timed acceptance criteria C1 and C2 many times
over.  numpy reads these variables when it is first imported, which
happens after pytest loads this file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
