"""Import camarl before any test module imports numpy, and fail a test
on any warning it does not expect.

``camarl`` pins the BLAS thread pools through environment variables,
which only take effect before numpy loads its BLAS.  Importing it here
runs the suite single-threaded, like the CLI, and keeps it silent.
Every test gets a ``filterwarnings("error")`` mark ahead of its own, so
a test that expects a warning names it with its own mark, which wins.
"""

import pytest

import camarl  # noqa: F401


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error"), append=False)
