"""Variational objective: reconstruction error plus KL to the edge prior."""

from dataclasses import dataclass

import numpy as np

from camarl.errors import ConfigurationError, UsageError


@dataclass
class ElboTerms:
    nll: float     # nll + kl is what training minimizes
    kl: float
    g_pred: np.ndarray    # d(nll + kl)/d(pred)
    g_logits: np.ndarray  # d(kl)/d(logits); the edge sample adds its own


def elbo_loss(pred, target, logits, sigma: float, lengths) -> ElboTerms:
    """Per-sample-averaged ELBO terms and their closed-form gradients.

    nll = sum((pred - target)^2) / (2 sigma) over each sample's predicted
    steps 0..length-2 only, with sigma the decoder's output variance;
    the steps past them neither score nor take a gradient.  kl compares the
    edge posterior softmax(logits) against the uniform prior over the
    two edge types.  Both are averaged over the batch.  The KL gradient
    is the log-softmax term plus the softmax term, in that order.
    """
    if sigma <= 0:
        raise ConfigurationError(f"variance must be positive, got {sigma}")
    if np.shape(target) != pred.shape:
        raise UsageError(f"target {np.shape(target)} does not match the "
                         f"predictions {pred.shape}")
    batch = pred.shape[0]
    predicted = np.arange(pred.shape[2]) < np.asarray(lengths)[:, None] - 1
    diff = pred - target
    np.copyto(diff, 0.0, where=~predicted[:, None, :, None])
    c = 1.0 / (2.0 * sigma * batch)
    nll = (diff * diff).sum() * c
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    q = e / e.sum(axis=-1, keepdims=True)
    lq = shifted - np.log(e.sum(axis=-1, keepdims=True))
    kl = ((q * lq).sum(axis=-1) + float(np.log(logits.shape[-1]))).sum()
    kl = kl * (1.0 / batch)
    g_q = (1.0 / batch) * lq
    g_lq = (1.0 / batch) * q
    g_logits = g_lq - np.exp(lq) * g_lq.sum(axis=-1, keepdims=True)
    g_logits += q * (g_q - (g_q * q).sum(axis=-1, keepdims=True))
    return ElboTerms(nll=float(nll), kl=float(kl), g_pred=(2.0 * c) * diff,
                     g_logits=g_logits)
