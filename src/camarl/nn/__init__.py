"""Array substrate: parameter store, fused kernels, RMSprop and checkpoints.

Everything trains in float64 on the CPU.  There is no autodiff: each
model pairs explicit forward and backward array passes (dense layers,
GRU steps, whole-episode Q-network unrolls) built on the kernels of
``camarl.nn.kernels``.  A model keeps its weights, gradients and
optimizer state in one ``ParamSet`` of flat buffers; backward passes add
into its ``grad`` buffer, which the optimizer zeroes after its step.
"""

from camarl.nn.layers import Dense, ParamSet, rmsprop_update, clip_global_norm
from camarl.nn.checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Dense",
    "ParamSet",
    "rmsprop_update",
    "clip_global_norm",
    "save_checkpoint",
    "load_checkpoint",
]
