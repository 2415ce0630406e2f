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
        self.v = {name: np.zeros(t.data.size) for name, t in params.named()}

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
    for _, t in params.named():
        if t.grad is not None:
            total += K.sumsq(t.grad.reshape(-1))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        s = max_norm / norm
        for _, t in params.named():
            if t.grad is not None:
                K.scale_inplace(t.grad.reshape(-1), s)
    return norm


def rmsprop_update(params, state: RmspropState, lr: float, max_norm=None):
    """Apply one RMSprop step in place and zero the gradients after.

    Update rule per element: v <- RHO v + (1 - RHO) g^2,
    p <- p - lr g / (sqrt(v) + EPS).
    """
    norm = None
    if max_norm is not None:
        norm = clip_global_norm(params, max_norm)
    for name, t in params.named():
        if t.grad is None:
            continue
        K.rmsprop_step(t.data.reshape(-1), t.grad.reshape(-1), state.v[name],
                       lr, RHO, EPS)
        t.grad.fill(0.0)
    return norm
