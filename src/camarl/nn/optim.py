"""RMSprop with optional global-norm clipping over a ParamSet's flat buffers.

A stacked set steps all its rows at once and clips each row on its own.

The optimizer state is the set's ``v`` buffer, which is checkpointed
alongside the weights as the ``opt.*`` arrays.
"""

import numpy as np

from camarl.nn import kernels as K

RHO = 0.99
EPS = 1e-8


def clip_global_norm(params, max_norm):
    """Scale each row's gradients so their joint L2 norm is at most max_norm.

    A stacked set clips every row on its own, and only the rows over the
    bound are scaled.  The squares are summed per tensor, in layout
    order.  Returns the pre-clip norms, (N,) for a stack of N and (1,)
    for an unstacked set.
    """
    rows = params.grad.reshape(-1, params.grad.shape[-1])
    total = 0.0
    for g in params.grads.values():
        total += K.sumsq(g.reshape(rows.shape[0], -1))
    norm = np.sqrt(total)
    over = (norm > max_norm) & (norm > 0.0)
    rows[over] *= (max_norm / norm[over])[:, None]
    return norm


def rmsprop_update(params, lr: float, max_norm=None):
    """Apply one RMSprop step in place and zero the gradients after.

    Update rule per element: v <- RHO v + (1 - RHO) g^2,
    p <- p - lr g / (sqrt(v) + EPS).
    """
    norm = None
    if max_norm is not None:
        norm = clip_global_norm(params, max_norm)
    K.rmsprop_step(params.data.reshape(-1), params.grad.reshape(-1),
                   params.v.reshape(-1), lr, RHO, EPS)
    params.grad.fill(0.0)
    return norm
