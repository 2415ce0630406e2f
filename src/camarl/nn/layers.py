"""Parameter containers and the two layer types the package uses."""

import numpy as np

from camarl.errors import ConfigurationError, UsageError
from camarl.nn import tensor as T


class ParamSet:
    """Ordered, named collection of trainable tensors.

    Iteration order is insertion order, which fixes the layout the
    optimizer and the checkpoint format both rely on.
    """

    def __init__(self):
        self._params = {}

    def add(self, name, t):
        if name in self._params:
            raise UsageError(f"duplicate parameter name {name!r}")
        self._params[name] = t
        return t

    def named(self):
        return self._params.items()

    def __len__(self):
        return len(self._params)

    def __getitem__(self, name):
        return self._params[name]

    def state_arrays(self):
        return {name: t.data for name, t in self._params.items()}

    def load_arrays(self, arrays):
        """Copy values in place, keeping every existing array identity."""
        for name, t in self._params.items():
            if name not in arrays:
                raise ConfigurationError(f"checkpoint is missing parameter {name!r}")
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != t.data.shape:
                raise ConfigurationError(
                    f"parameter {name!r} has shape {t.data.shape}, "
                    f"checkpoint has {src.shape}")
            t.data[...] = src


def _uniform_init(rng, fan_in, shape):
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


class Dense:
    """Affine layer with a fused activation, y = act(x @ W + b)."""

    def __init__(self, params: ParamSet, prefix: str, n_in: int, n_out: int,
                 act: int, rng: np.random.Generator):
        self.act = act
        self.W = params.add(prefix + ".W", T.Parameter(_uniform_init(rng, n_in, (n_in, n_out))))
        self.b = params.add(prefix + ".b", T.Parameter(_uniform_init(rng, n_in, (n_out,))))

    def __call__(self, x):
        return T.dense(x, self.W, self.b, self.act)


class GruCell:
    """Single GRU cell, packed gate columns [r|z|n]."""

    def __init__(self, params: ParamSet, prefix: str, n_in: int, n_hidden: int,
                 rng: np.random.Generator):
        self.n_hidden = n_hidden
        self.Wx = params.add(prefix + ".Wx", T.Parameter(_uniform_init(rng, n_in, (n_in, 3 * n_hidden))))
        self.Wh = params.add(prefix + ".Wh", T.Parameter(_uniform_init(rng, n_hidden, (n_hidden, 3 * n_hidden))))
        self.bx = params.add(prefix + ".bx", T.Parameter(_uniform_init(rng, n_in, (3 * n_hidden,))))
        self.bh = params.add(prefix + ".bh", T.Parameter(_uniform_init(rng, n_hidden, (3 * n_hidden,))))

    def step(self, x, h):
        return T.gru_step(x, h, self.Wx, self.Wh, self.bx, self.bh)
