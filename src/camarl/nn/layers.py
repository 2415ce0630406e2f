"""Parameter containers and the two layer shapes the package uses."""

import numpy as np

from camarl.errors import ConfigurationError, UsageError


class Parameter:
    """A trainable float64 array and the gradient buffer beside it.

    Backward passes add into ``grad``; the optimizer zeroes it after
    each step.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.array(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)


class ParamSet:
    """Ordered, named collection of parameters.

    Iteration order is insertion order, which fixes the layout the
    optimizer and the checkpoint format both rely on.
    """

    def __init__(self):
        self._params = {}

    def add(self, name, data):
        if name in self._params:
            raise UsageError(f"duplicate parameter name {name!r}")
        p = self._params[name] = Parameter(data)
        return p

    def named(self):
        return self._params.items()

    def __len__(self):
        return len(self._params)

    def __getitem__(self, name):
        return self._params[name]

    def state_arrays(self):
        return {name: p.data for name, p in self._params.items()}

    def load_arrays(self, arrays):
        """Copy values in place, keeping every existing array identity."""
        for name, p in self._params.items():
            if name not in arrays:
                raise ConfigurationError(f"checkpoint is missing parameter {name!r}")
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != p.data.shape:
                raise ConfigurationError(
                    f"parameter {name!r} has shape {p.data.shape}, "
                    f"checkpoint has {src.shape}")
            p.data[...] = src


def _uniform_init(rng, fan_in, shape):
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


class Dense:
    """Parameters of an affine layer with a fused activation, act(x @ W + b)."""

    def __init__(self, params: ParamSet, prefix: str, n_in: int, n_out: int,
                 act: int, rng: np.random.Generator):
        self.act = act
        self.W = params.add(prefix + ".W", _uniform_init(rng, n_in, (n_in, n_out)))
        self.b = params.add(prefix + ".b", _uniform_init(rng, n_in, (n_out,)))


class GruCell:
    """Parameters of a GRU cell, packed gate columns [r|z|n]."""

    def __init__(self, params: ParamSet, prefix: str, n_in: int, n_hidden: int,
                 rng: np.random.Generator):
        self.Wx = params.add(prefix + ".Wx", _uniform_init(rng, n_in, (n_in, 3 * n_hidden)))
        self.Wh = params.add(prefix + ".Wh", _uniform_init(rng, n_hidden, (n_hidden, 3 * n_hidden)))
        self.bx = params.add(prefix + ".bx", _uniform_init(rng, n_in, (3 * n_hidden,)))
        self.bh = params.add(prefix + ".bh", _uniform_init(rng, n_hidden, (3 * n_hidden,)))
