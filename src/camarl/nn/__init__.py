"""Array substrate: parameters, fused kernels, RMSprop and checkpoints.

Everything trains in float64 on the CPU.  There is no autodiff: each
model pairs explicit forward and backward array passes (dense layers,
GRU steps, whole-episode Q-network unrolls) built on the kernels of
``camarl.nn.kernels``.  Backward passes add into each ``Parameter``'s
``.grad``, which the optimizer zeroes after its step.
"""

from camarl.nn.layers import Dense, GruCell, Parameter, ParamSet
from camarl.nn.optim import RmspropState, rmsprop_update, clip_global_norm
from camarl.nn.checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Dense",
    "GruCell",
    "Parameter",
    "ParamSet",
    "RmspropState",
    "rmsprop_update",
    "clip_global_norm",
    "save_checkpoint",
    "load_checkpoint",
]
