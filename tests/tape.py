"""Reference reverse-mode tape over float64 ndarrays.

The package computes gradients with explicit forward and backward array
passes.  This tape is the independent reference they are checked
against: the Q-network unroll and the edge model's ELBO are rebuilt
here from small ops, and their losses and gradients compared with the
fused passes, the edge model's byte for byte.

Nodes record a backward closure; ``backward`` walks the graph with an
iterative topological sort (episode unrolls can be thousands of nodes
deep, which would blow the recursion limit).  Gradients accumulate into
leaf ``.grad`` buffers and are never zeroed implicitly: calling
``backward`` twice doubles them, mirroring the usual deep-learning
contract.  The dense layer and GRU step go through the package's fused
kernels.
"""

import numpy as np

from camarl.acd.model import EDGE_TYPES
from camarl.errors import ConfigurationError, UsageError
from camarl.nn import kernels as K


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def square(self):
        return square(self)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def Parameter(data):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data):
    return Tensor(data)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(data, parents, bwd):
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = any(p.requires_grad for p in parents)
    if t.requires_grad:
        t._parents = tuple(p for p in parents if p.requires_grad)
        t._bwd = bwd
    else:
        t._parents = ()
        t._bwd = None
    return t


def _unbroadcast(g, shape):
    # reduce a broadcast gradient back to the parent's shape
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(t, grad=None):
    """Accumulate d(t)/d(leaf) into every reachable leaf's .grad."""
    if not isinstance(t, Tensor):
        raise UsageError("backward target must be a Tensor")
    if grad is None:
        if t.data.size != 1:
            raise UsageError("backward on a non-scalar needs an explicit grad")
        grad = np.ones_like(t.data)
    else:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != t.data.shape:
            raise UsageError("seed grad shape mismatch")
    if not t.requires_grad:
        return

    # iterative post-order topological sort over the requires_grad subgraph
    topo = []
    seen = set()
    stack = [(t, iter(t._parents))]
    seen.add(id(t))
    while stack:
        node, it = stack[-1]
        advanced = False
        for p in it:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            topo.append(node)

    grads = {id(t): grad.copy()}

    def accum(parent, g):
        if not parent.requires_grad:
            return
        buf = grads.get(id(parent))
        if buf is None:
            grads[id(parent)] = np.array(g, dtype=np.float64)
        else:
            buf += g

    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._bwd is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        else:
            node._bwd(g, accum)


# ---------------------------------------------------------------- arithmetic

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def bwd(g, accum):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data

    def bwd(g, accum):
        accum(a, _unbroadcast(g, a.data.shape))
        accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), bwd)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def bwd(g, accum):
        accum(a, _unbroadcast(g * b.data, a.data.shape))
        accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bwd)


# -------------------------------------------------------------- elementwise

def square(x):
    x = _wrap(x)
    data = x.data * x.data

    def bwd(g, accum):
        accum(x, 2.0 * g * x.data)

    return _node(data, (x,), bwd)


# -------------------------------------------------------------- reductions

def sum_(x, axis=None, keepdims=False):
    x = _wrap(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g, accum):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        accum(x, np.broadcast_to(gg, x.data.shape))

    return _node(np.asarray(data), (x,), bwd)


# ------------------------------------------------------------- shape moves

def reshape(x, shape):
    x = _wrap(x)
    data = x.data.reshape(shape)

    def bwd(g, accum):
        accum(x, g.reshape(x.data.shape))

    return _node(data, (x,), bwd)


def concat(tensors, axis=-1):
    ts = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, accum):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accum(t, g[tuple(idx)])

    return _node(data, tuple(ts), bwd)


def take(x, idx, axis):
    """Gather along one axis with a constant integer index array."""
    x = _wrap(x)
    idx = np.asarray(idx, dtype=np.intp)
    data = np.take(x.data, idx, axis=axis)

    def bwd(g, accum):
        gx = np.zeros_like(x.data)
        sel = [slice(None)] * gx.ndim
        sel[axis] = idx
        np.add.at(gx, tuple(sel), g)
        accum(x, gx)

    return _node(data, (x,), bwd)


def mix_axis1(x, M):
    """out[:, n, :] = sum_p M[p, n] * x[:, p, :] with a constant mixing matrix."""
    x = _wrap(x)
    M = np.asarray(M, dtype=np.float64)
    data = np.einsum("bpf,pn->bnf", x.data, M)

    def bwd(g, accum):
        accum(x, np.einsum("bnf,pn->bpf", g, M))

    return _node(data, (x,), bwd)


# ---------------------------------------------------------- fused layer ops

def dense(x, W, b, act_code):
    """act(x @ W + b) through the fused kernel; x is 2D (batch, features)."""
    x, W, b = _wrap(x), _wrap(W), _wrap(b)
    if x.data.ndim != 2 or x.data.shape[1] != W.data.shape[0]:
        raise ConfigurationError(
            f"dense input {x.data.shape} does not match weight {W.data.shape}")
    xd = np.ascontiguousarray(x.data)
    y = K.affine_act_fwd(xd, W.data, b.data, act_code)

    def bwd(g, accum):
        gx, gW, gb = K.affine_act_bwd(xd, W.data, y, act_code, np.ascontiguousarray(g))
        accum(x, gx)
        accum(W, gW)
        accum(b, gb)

    return _node(y, (x, W, b), bwd)


def gru_step(x, h, Wx, Wh, bx, bh):
    """One GRU step on the tape, backed by the fused kernels."""
    x, h = _wrap(x), _wrap(h)
    Wx, Wh, bx, bh = _wrap(Wx), _wrap(Wh), _wrap(bx), _wrap(bh)
    if x.data.shape[1] != Wx.data.shape[0] or 3 * h.data.shape[1] != Wx.data.shape[1]:
        raise ConfigurationError(
            f"gru input {x.data.shape}/state {h.data.shape} do not match "
            f"weights {Wx.data.shape}")
    h_new, r, z, n, ghn = K.gru_fwd(x.data, h.data, Wx.data, Wh.data, bx.data, bh.data)

    def bwd(g, accum):
        gx, gh, gWx, gWh, gbx, gbh = K.gru_bwd(
            x.data, h.data, Wx.data, Wh.data, r, z, n, ghn, np.ascontiguousarray(g))
        accum(x, gx)
        accum(h, gh)
        accum(Wx, gWx)
        accum(Wh, gWh)
        accum(bx, gbx)
        accum(bh, gbh)

    return _node(h_new, (x, h, Wx, Wh, bx, bh), bwd)


# ------------------------------------------------------------ distributions

def softmax(x, axis=-1):
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g, accum):
        dot = (g * data).sum(axis=axis, keepdims=True)
        accum(x, data * (g - dot))

    return _node(data, (x,), bwd)


def log_softmax(x, axis=-1):
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g, accum):
        accum(x, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _node(data, (x,), bwd)



# ----------------------------------------------------- composite functions

def gumbel_softmax(logits, temperature, noise):
    """Concrete relaxation of a categorical over the last axis.

    ``noise`` is a precomputed Gumbel array matching ``logits``.
    """
    logits = _wrap(logits)
    if np.asarray(noise).shape != logits.data.shape:
        raise UsageError("gumbel noise shape must match logits")
    if temperature <= 0.0:
        raise ConfigurationError("gumbel temperature must be positive")
    return softmax((logits + constant(noise)) * (1.0 / temperature), axis=-1)


def kl_categorical_uniform(logits, axis=-1):
    """KL(softmax(logits) || uniform) taken over ``axis``, other axes kept."""
    k = _wrap(logits).data.shape[axis]
    q = softmax(logits, axis=axis)
    lq = log_softmax(logits, axis=axis)
    return (q * lq).sum(axis=axis) + float(np.log(k))


# ------------------------------------------------------- the ACD edge model

class TapeAcd:
    """An ``AcdModel``'s ELBO on the tape.

    The leaves share the model's parameter arrays and carry their own
    gradients, so a fused backward on the model and ``backward`` here
    can be compared parameter by parameter.
    """

    def __init__(self, model):
        self.model = model
        self.leaves = {name: Tensor(p.data, requires_grad=True)
                       for name, p in model.params.named()}
        # incoming-edge mean as a dense (n_pairs, n) matrix for mix_axis1
        n = model.n_nodes
        self.agg = np.zeros((model.n_pairs, n))
        self.agg[np.arange(model.n_pairs), model.dst] = 1.0 / (n - 1)

    def _dense(self, name, x):
        act = getattr(self.model, name.split(".")[1]).act
        return dense(x, self.leaves[name + ".W"], self.leaves[name + ".b"], act)

    def encode(self, x):
        m = self.model
        B, n, e = x.shape[0], m.n_nodes, m.enc_hidden
        flat = constant(x.reshape(B * n, -1))
        h = self._dense("enc.emb2", self._dense("enc.emb1", flat))
        h = h.reshape((B, n, e))
        pair = concat([take(h, m.src, axis=1), take(h, m.dst, axis=1)],
                      axis=2).reshape((B * m.n_pairs, 2 * e))
        msg = self._dense("enc.fe1b", self._dense("enc.fe1a", pair))
        msg = msg.reshape((B, m.n_pairs, e))
        pooled = mix_axis1(msg, self.agg).reshape((B * n, e))
        h2 = self._dense("enc.fvb", self._dense("enc.fva", pooled))
        h2 = h2.reshape((B, n, e))
        pair2 = concat([take(h2, m.src, axis=1), take(h2, m.dst, axis=1)],
                       axis=2).reshape((B * m.n_pairs, 2 * e))
        out = self._dense("enc.head", self._dense(
            "enc.fe2b", self._dense("enc.fe2a", pair2)))
        return out.reshape((B, m.n_pairs, EDGE_TYPES))

    def sample_edges(self, logits, temperature, noise):
        sample = gumbel_softmax(logits, temperature, noise)
        picked = take(sample, np.array([1]), axis=2)
        return picked.reshape(logits.data.shape[:2])

    def decode(self, x, edge_weight):
        m = self.model
        B, n, Tlen, D = x.shape
        d = m.dec_hidden
        L = self.leaves
        w = edge_weight.reshape((B, m.n_pairs, 1))
        h = constant(np.zeros((B * n, d)))
        preds = []
        for t in range(Tlen - 1):
            xt = x[:, :, t, :]
            msg = self._dense("dec.msg", constant(xt.reshape(B * n, D)))
            gated = take(msg.reshape((B, n, d)), m.src, axis=1) * w
            pooled = mix_axis1(gated, self.agg)
            gin = concat([constant(xt), pooled], axis=2)
            h = gru_step(gin.reshape((B * n, D + d)), h, L["dec.gru.Wx"],
                         L["dec.gru.Wh"], L["dec.gru.bx"], L["dec.gru.bh"])
            delta = self._dense("dec.out", h).reshape((B, n, 1, D))
            preds.append(constant(xt.reshape(B, n, 1, D)) + delta)
        return concat(preds, axis=2)


def elbo_loss(pred, target, logits, sigma):
    """(nll, kl, total) tensors of the per-sample-averaged ELBO."""
    batch = pred.data.shape[0]
    nll = (pred - target).square().sum() * (1.0 / (2.0 * sigma * batch))
    kl = kl_categorical_uniform(logits, axis=-1).sum() * (1.0 / batch)
    return nll, kl, nll + kl
