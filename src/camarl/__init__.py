"""Causality-masked multi-agent Q-learning laboratory.

Subpackages:
    nn       float64 array substrate: parameters, fused forward and
             backward kernels (dense, GRU), RMSprop, checkpoints
    envs     seeded cooperative gridworlds and their causality oracles
    marl     independent recurrent Q-learners (IDQL / ICL / ACD-MARL)
    acd      amortized causal discovery over episode time series
    metrics  event balance index, confidence curves, SVG charts
    harness  CLI, manifests, experiment orchestration
"""

import os

# Pin BLAS pools before numpy is first imported: small matrices gain nothing
# from threading and single-threaded reductions keep checkpoints reproducible.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var, os

__version__ = "0.1.0"

# Recorded in checkpoint headers; bump when the parameter layout changes.
SUBSTRATE_VERSION = "0.1.0"
