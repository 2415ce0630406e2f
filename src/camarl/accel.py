"""Kernel backend selection.

Hot numeric kernels throughout the package are written once, in
numba-compatible numpy, and decorated with :func:`jit`.  numba is an
optional extra (``pip install camarl[numba]``); when it is not
installed, numpy is the backend.  The backend is chosen at import time
from the ``CAMARL_KERNELS`` environment variable:

unset (default)
    numba when it is installed, numpy otherwise, without a warning
``numba``
    kernels are compiled with ``numba.njit(cache=True)``; raises
    ImportError when numba is not installed
``numpy``
    kernels run as the same plain numpy/Python functions (slower fallback,
    useful for debugging and as the reference path for benchmarks)

``benchmarks/bench_kernels.py`` times the two paths against each other.
"""

import os

_requested = os.environ.get("CAMARL_KERNELS", "").strip().lower()
if _requested not in ("", "numba", "numpy"):
    raise ValueError(
        f"CAMARL_KERNELS must be 'numba' or 'numpy', got {_requested!r}"
    )

if _requested in ("", "numba"):
    try:
        from numba import njit as _njit

        BACKEND = "numba"
    except ImportError:
        if _requested == "numba":
            raise
        BACKEND = "numpy"
else:
    BACKEND = "numpy"


def jit(fn):
    """Compile ``fn`` under the numba backend, return it unchanged otherwise."""
    if BACKEND == "numba":
        return _njit(cache=True)(fn)
    return fn
