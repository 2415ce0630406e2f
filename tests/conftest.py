"""Import camarl before any test module imports numpy.

``camarl`` pins the BLAS thread pools through environment variables,
which only take effect before numpy loads its BLAS.  Importing it here
runs the suite single-threaded, like the CLI, and keeps it silent.
"""

import camarl  # noqa: F401
