"""The flat parameter store, the affine layer shape the package uses, and
RMSprop with optional global-norm clipping over the store's flat buffers.

A stacked set steps all its rows at once and clips each row on its own.
The optimizer state is the set's ``v`` buffer, which is checkpointed
alongside the weights as the ``opt.*`` arrays.
"""

import numpy as np

from camarl.errors import ConfigurationError, UsageError
from camarl.nn import kernels as K

RHO = 0.99
EPS = 1e-8


class ParamSet:
    """Named float64 tensors packed into three flat buffers.

    ``data`` holds the values, ``grad`` the gradients that backward
    passes add into (the optimizer zeroes it after each step) and ``v``
    the RMSprop mean squares.  ``ps[name]`` and ``ps.grads[name]`` are
    shaped views into ``data`` and ``grad``, ``ps.vs[name]`` a 1-D view
    into ``v``.  Insertion order fixes the layout the optimizer and the
    checkpoint format both rely on.  Loading copies into the views, so
    a view taken once stays live.  A ``stack`` of N sets holds (N, P)
    buffers and views with a leading N axis; ``row(i)`` is set i.
    """

    def __init__(self, inits):
        """inits: (name, initial array) pairs, in layout order."""
        inits = [(name, np.asarray(a, dtype=np.float64)) for name, a in inits]
        spans = {}
        size = 0
        for name, a in inits:
            if name in spans:
                raise UsageError(f"duplicate parameter name {name!r}")
            spans[name] = (size, size + a.size, a.shape)
            size += a.size
        self._bind(spans, *(np.zeros(size) for _ in range(3)))
        for name, a in inits:
            self._values[name][...] = a

    def _bind(self, spans, data, grad, v):
        self._spans = spans
        self.data, self.grad, self.v = data, grad, v
        self._values = self.views(data)
        self.grads = self.views(grad)
        self.vs = {name: v[..., lo:hi]
                   for name, (lo, hi, _) in spans.items()}

    @classmethod
    def stack(cls, sets):
        """One set of copies of the given sets, one layout, as its rows."""
        ps = cls.__new__(cls)
        ps._bind(sets[0]._spans, *(np.stack([getattr(s, k) for s in sets])
                                   for k in ("data", "grad", "v")))
        return ps

    def row(self, i):
        """The unstacked set over row i of the buffers, not a copy."""
        ps = ParamSet.__new__(ParamSet)
        ps._bind(self._spans, self.data[i], self.grad[i], self.v[i])
        return ps

    def views(self, buf):
        """Shaped views of every tensor into buf, a buffer of this layout."""
        return {name: buf[..., lo:hi].reshape(buf.shape[:-1] + shape)
                for name, (lo, hi, shape) in self._spans.items()}

    def __getitem__(self, name):
        return self._values[name]

    def state_arrays(self):
        return dict(self._values)

    def load_arrays(self, arrays):
        load_views(self._values, arrays)


def load_views(views, arrays, prefix=""):
    """Copy arrays[prefix + name] into each view, keeping its identity."""
    for name, view in views.items():
        key = prefix + name
        if key not in arrays:
            raise ConfigurationError(
                f"checkpoint is missing parameter {key!r}")
        src = np.asarray(arrays[key], dtype=np.float64)
        if src.shape != view.shape:
            raise ConfigurationError(
                f"parameter {key!r} has shape {view.shape}, "
                f"checkpoint has {src.shape}")
        view[...] = src


def _uniform_init(rng, fan_in, shape):
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def dense_init(rng, prefix, n_in, n_out):
    """Initial (name, array) pairs of an affine layer; W is drawn first."""
    return [(prefix + ".W", _uniform_init(rng, n_in, (n_in, n_out))),
            (prefix + ".b", _uniform_init(rng, n_in, (n_out,)))]


class Dense:
    """Views of an affine layer act(x @ W + b) and its gradients."""

    def __init__(self, params: ParamSet, prefix: str, act: int):
        self.act = act
        W, b = prefix + ".W", prefix + ".b"
        self.W, self.b = params[W], params[b]
        self.gW, self.gb = params.grads[W], params.grads[b]


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
