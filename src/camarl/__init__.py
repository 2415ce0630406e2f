"""Causality-masked multi-agent Q-learning laboratory.

Subpackages (``metrics`` is a single module):
    nn       float64 array substrate: parameters, fused forward and
             backward kernels (dense, GRU), RMSprop, checkpoints
    envs     seeded cooperative gridworlds and their causality oracles
    marl     independent recurrent Q-learners (IDQL / ICL / ACD-MARL)
    acd      amortized causal discovery over episode time series
    metrics  event balance index, confidence curves, SVG charts
    harness  CLI, manifests, experiment orchestration
"""

import os
import sys

# Pin BLAS pools before numpy is first imported: small matrices gain nothing
# from threading and single-threaded reductions keep checkpoints reproducible.
# A BLAS library reads these once, when numpy loads it, so setting them after
# numpy has been imported pins nothing in this process.
_unset = [v for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS") if v not in os.environ]
os.environ.update(dict.fromkeys(_unset, "1"))
if _unset and "numpy" in sys.modules:
    import warnings

    warnings.warn(
        f"numpy was imported before camarl, so setting {', '.join(_unset)} "
        "to 1 leaves its BLAS threads unpinned; import camarl before numpy "
        "or set them in the environment", RuntimeWarning, stacklevel=2)
    del warnings
del _unset, os, sys

__version__ = "0.1.0"

# Recorded in checkpoint headers; bump when the parameter layout changes.
SUBSTRATE_VERSION = "0.1.0"
