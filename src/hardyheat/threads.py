"""The BLAS/OpenMP thread variables, which ``--threads`` sets before numpy loads BLAS.

The artifact CSV writer and reader read the same setting as their bound on
worker processes.

Imports no numpy, so the CLI can import it before the thread count is pinned.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def thread_setting() -> str | None:
    """The value of the first thread variable that is set, in the order of THREAD_VARS."""
    return next((os.environ[var] for var in THREAD_VARS if var in os.environ), None)
