"""Composite differentiable functions built from tape primitives."""

import numpy as np

from camarl.errors import ConfigurationError, UsageError
from camarl.nn import tensor as T


def sample_gumbel(rng: np.random.Generator, shape):
    """Standard Gumbel noise, drawn outside the tape for reproducibility."""
    u = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=shape)
    return -np.log(-np.log(u))


def gumbel_softmax(logits, temperature, noise):
    """Concrete relaxation of a categorical over the last axis.

    ``noise`` is a precomputed Gumbel array matching ``logits``; passing
    it explicitly keeps sampling out of the autodiff graph and makes the
    op finite-difference checkable.
    """
    logits = T._wrap(logits)
    if np.asarray(noise).shape != logits.data.shape:
        raise UsageError("gumbel noise shape must match logits")
    if temperature <= 0.0:
        raise ConfigurationError("gumbel temperature must be positive")
    return T.softmax((logits + T.constant(noise)) * (1.0 / temperature), axis=-1)


def kl_categorical_uniform(logits, axis=-1):
    """KL(softmax(logits) || uniform) taken over ``axis``, other axes kept."""
    k = T._wrap(logits).data.shape[axis]
    q = T.softmax(logits, axis=axis)
    lq = T.log_softmax(logits, axis=axis)
    return (q * lq).sum(axis=axis) + float(np.log(k))
