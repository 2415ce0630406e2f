"""RMSprop with optional global-norm clipping.

State lives in flat float64 buffers keyed by parameter name so it can be
checkpointed alongside the weights.
"""

import numpy as np

from camarl.nn import kernels as K

RHO = 0.99
EPS = 1e-8


class RmspropState:
    def __init__(self, params):
        self.v = {name: np.zeros(p.data.size) for name, p in params.named()}

    def arrays(self):
        return {"opt." + name: v for name, v in self.v.items()}

    def load_arrays(self, arrays):
        for name, v in self.v.items():
            v[...] = arrays["opt." + name]


def clip_global_norm(params, max_norm):
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for _, p in params.named():
        total += K.sumsq(p.grad.reshape(-1))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        s = max_norm / norm
        for _, p in params.named():
            p.grad *= s
    return norm


def rmsprop_update(params, state: RmspropState, lr: float, max_norm=None):
    """Apply one RMSprop step in place and zero the gradients after.

    Update rule per element: v <- RHO v + (1 - RHO) g^2,
    p <- p - lr g / (sqrt(v) + EPS).
    """
    norm = None
    if max_norm is not None:
        norm = clip_global_norm(params, max_norm)
    for name, p in params.named():
        K.rmsprop_step(p.data.reshape(-1), p.grad.reshape(-1), state.v[name],
                       lr, RHO, EPS)
        p.grad.fill(0.0)
    return norm
