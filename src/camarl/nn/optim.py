"""RMSprop with optional global-norm clipping over a ParamSet's flat buffers.

The optimizer state is the set's ``v`` buffer, which is checkpointed
alongside the weights as the ``opt.*`` arrays.
"""

import numpy as np

from camarl.nn import kernels as K

RHO = 0.99
EPS = 1e-8


def clip_global_norm(params, max_norm):
    """Scale all gradients so their joint L2 norm is at most max_norm.

    The squares are summed per tensor, in layout order.  Returns the
    pre-clip norm.
    """
    total = 0.0
    for g in params.grads.values():
        total += K.sumsq(g.reshape(-1))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        params.grad *= max_norm / norm
    return norm


def rmsprop_update(params, lr: float, max_norm=None):
    """Apply one RMSprop step in place and zero the gradients after.

    Update rule per element: v <- RHO v + (1 - RHO) g^2,
    p <- p - lr g / (sqrt(v) + EPS).
    """
    norm = None
    if max_norm is not None:
        norm = clip_global_norm(params, max_norm)
    K.rmsprop_step(params.data, params.grad, params.v, lr, RHO, EPS)
    params.grad.fill(0.0)
    return norm
