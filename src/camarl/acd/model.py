"""Latent-edge variational model over node series.

Encoder: a shared 2-layer series embedding per node, two rounds of
node-to-edge / edge-to-node message passing with shared weights, and a
2-type edge head (no-edge, edge) for every ordered node pair.  Weight
sharing across nodes and pairs makes the encoder equivariant to node
permutations by construction.

Decoder: one shared GRU per node predicting the next step of its own
series; incoming messages are multiplied by the sampled weight of the
(source -> target) edge, so a hard no-edge blocks information exactly.

Forward and backward are explicit array passes, like the Q-network's
``qnet_unroll_fwd``/``_bwd``.  ``encode`` and ``decode`` return their
output plus a cache of the activations that ``encode_bwd`` and
``decode_bwd`` read; ``sample_edges`` returns the edge weights plus the
soft sample that ``gumbel_softmax_bwd`` reads.  The backward passes add
into each parameter's ``.grad``.  They round exactly as the
reverse-mode tape they replace, which the tests keep as the reference,
because they keep its order of accumulation wherever more than two
terms are summed (a sum of two cannot depend on its order):

- A decoder weight is shared by the T - 1 steps, and so are the edge
  weights.  Their gradients sum the steps from t = T - 2 down to 0,
  starting from the first term; a parameter's sum is then added into
  its zeroed ``.grad``.
- The logits gradient is the KL's log-softmax term, plus its softmax
  term, plus the edge sample's term, in that order.
- The gradient of a pair gather ``h.take(idx, axis=1)`` is n - 1
  slice-adds into zeros, the pairs of each node in ascending order, as
  ``np.add.at`` adds them.
- The incoming-edge mean scales the messages by 1 / (n - 1), then sums
  each node's pairs in ascending order (``_gather_bwd``); its gradient
  is the scaled node gradient taken at each pair's destination.
- Every per-step product stays per step: hoisting the message layer
  over all T steps would change the GEMM's row count, and with it the
  rounding.
- The gradient of the data inputs (``enc.emb1``, ``dec.msg``) is not
  computed.
"""

import numpy as np

from camarl.errors import ConfigurationError, UsageError
from camarl.nn import kernels as K
from camarl.nn.kernels import ACT_IDENTITY, ACT_RELU
from camarl.nn.layers import Dense, GruCell, ParamSet

ENC_HIDDEN = 128
DEC_HIDDEN = 64
EDGE_TYPES = 2


def ordered_pairs(n_nodes: int):
    """Source/destination index arrays over all ordered pairs, row-major."""
    src, dst = [], []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i != j:
                src.append(i)
                dst.append(j)
    return np.asarray(src), np.asarray(dst)


def sample_gumbel(rng: np.random.Generator, shape):
    """Standard Gumbel noise."""
    u = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=shape)
    return -np.log(-np.log(u))


def gumbel_softmax_bwd(soft, temperature, g_weight):
    """Logits gradient of the edge weights ``soft[..., 1]`` (see sample_edges)."""
    g = np.zeros_like(soft)
    g[..., 1] += g_weight
    dot = (g * soft).sum(axis=-1, keepdims=True)
    return soft * (g - dot) * (1.0 / temperature)


def _dense(layer, x):
    return K.affine_act_fwd(x, layer.W.data, layer.b.data, layer.act)


def _dense_bwd(layer, x, y, gy):
    """Input gradient of y = _dense(layer, x); adds gW and gb to .grad."""
    gx, gW, gb = K.affine_act_bwd(x, layer.W.data, y, layer.act, gy)
    layer.W.grad += gW
    layer.b.grad += gb
    return gx


def _weight_grads(layer, x, y, gy):
    """(gW, gb) of y = _dense(layer, x), skipping the input gradient."""
    gpre = gy * K.act_grad_from_out(y, layer.act)
    return np.dot(x.T, gpre), np.sum(gpre, axis=0)


def _gather_bwd(g, slots):
    """Gradient of h.take(idx, axis=1) for g of shape (B, P, F).

    slots[v] lists, ascending, the pairs p with idx[p] == v.
    """
    gh = np.zeros((g.shape[0], slots.shape[0], g.shape[2]))
    for k in range(slots.shape[1]):
        gh += g[:, slots[:, k]]
    return gh


class AcdModel:
    def __init__(self, n_nodes: int, series_len: int, feat_dim: int,
                 seed=0, enc_hidden: int = ENC_HIDDEN,
                 dec_hidden: int = DEC_HIDDEN):
        if n_nodes < 2:
            raise ConfigurationError("need at least two nodes for edges")
        self.n_nodes = n_nodes
        self.series_len = series_len
        self.feat_dim = feat_dim
        self.enc_hidden = enc_hidden
        self.dec_hidden = dec_hidden
        self.src, self.dst = ordered_pairs(n_nodes)
        self.n_pairs = len(self.src)
        self._src_slots = np.stack(
            [np.flatnonzero(self.src == v) for v in range(n_nodes)])
        self._dst_slots = np.stack(
            [np.flatnonzero(self.dst == v) for v in range(n_nodes)])

        rng = np.random.default_rng(seed)
        p = ParamSet()
        e, d = enc_hidden, dec_hidden
        self.emb1 = Dense(p, "enc.emb1", series_len * feat_dim, e, ACT_RELU, rng)
        self.emb2 = Dense(p, "enc.emb2", e, e, ACT_IDENTITY, rng)
        self.fe1a = Dense(p, "enc.fe1a", 2 * e, e, ACT_RELU, rng)
        self.fe1b = Dense(p, "enc.fe1b", e, e, ACT_IDENTITY, rng)
        self.fva = Dense(p, "enc.fva", e, e, ACT_RELU, rng)
        self.fvb = Dense(p, "enc.fvb", e, e, ACT_IDENTITY, rng)
        self.fe2a = Dense(p, "enc.fe2a", 2 * e, e, ACT_RELU, rng)
        self.fe2b = Dense(p, "enc.fe2b", e, e, ACT_IDENTITY, rng)
        self.head = Dense(p, "enc.head", e, EDGE_TYPES, ACT_IDENTITY, rng)
        self.msg = Dense(p, "dec.msg", feat_dim, d, ACT_RELU, rng)
        self.gru = GruCell(p, "dec.gru", feat_dim + d, d, rng)
        self.out = Dense(p, "dec.out", d, feat_dim, ACT_IDENTITY, rng)
        self.params = p

    def _check_input(self, x):
        if x.ndim != 4 or x.shape[1] != self.n_nodes:
            raise ConfigurationError(
                f"expected input (batch, {self.n_nodes}, T, D), got {x.shape}")
        if x.shape[2] != self.series_len or x.shape[3] != self.feat_dim:
            raise ConfigurationError(
                f"model was built for series ({self.series_len}, "
                f"{self.feat_dim}), got {x.shape[2:]}")

    # -- encoder -------------------------------------------------------------

    def _pairs(self, h):
        """(B * n_pairs, 2F) rows [h[src] | h[dst]] from (B * n, F) rows."""
        B = h.shape[0] // self.n_nodes
        h = h.reshape(B, self.n_nodes, -1)
        pair = np.concatenate([np.take(h, self.src, axis=1),
                               np.take(h, self.dst, axis=1)], axis=2)
        return pair.reshape(B * self.n_pairs, -1)

    def _pairs_bwd(self, g):
        B = g.shape[0] // self.n_pairs
        g = g.reshape(B, self.n_pairs, -1)
        F = g.shape[2] // 2
        gh = _gather_bwd(g[:, :, F:], self._dst_slots)
        gh += _gather_bwd(g[:, :, :F], self._src_slots)
        return gh.reshape(B * self.n_nodes, F)

    def _pool(self, msg):
        """Mean of each node's incoming (B, n_pairs, F) messages: (B, n, F)."""
        return _gather_bwd(msg * (1.0 / (self.n_nodes - 1)), self._dst_slots)

    def _pool_bwd(self, g):
        return np.take(g, self.dst, axis=1) * (1.0 / (self.n_nodes - 1))

    def encode(self, x: np.ndarray):
        """Edge logits (batch, n_pairs, 2) for smoothed, normalized series.

        Returns the logits and the activations encode_bwd reads.
        """
        self._check_input(x)
        B, n, P, e = x.shape[0], self.n_nodes, self.n_pairs, self.enc_hidden
        flat = np.ascontiguousarray(x.reshape(B * n, -1))
        a1 = _dense(self.emb1, flat)
        h = _dense(self.emb2, a1)
        pair = self._pairs(h)
        m1 = _dense(self.fe1a, pair)
        msg = _dense(self.fe1b, m1)
        pooled = np.ascontiguousarray(
            self._pool(msg.reshape(B, P, e)).reshape(B * n, e))
        v1 = _dense(self.fva, pooled)
        h2 = _dense(self.fvb, v1)
        pair2 = self._pairs(h2)
        o1 = _dense(self.fe2a, pair2)
        o2 = _dense(self.fe2b, o1)
        out = _dense(self.head, o2)
        cache = (flat, a1, h, pair, m1, msg, pooled, v1, h2, pair2, o1, o2,
                 out)
        return out.reshape(B, P, EDGE_TYPES), cache

    def encode_bwd(self, cache, g_logits):
        """Add the encoder's gradients given d(loss)/d(logits)."""
        flat, a1, h, pair, m1, msg, pooled, v1, h2, pair2, o1, o2, out = cache
        B, n, P, e = (flat.shape[0] // self.n_nodes, self.n_nodes,
                      self.n_pairs, self.enc_hidden)
        g = _dense_bwd(self.head, o2, out,
                       np.ascontiguousarray(g_logits.reshape(out.shape)))
        g = _dense_bwd(self.fe2b, o1, o2, g)
        g = _dense_bwd(self.fe2a, pair2, o1, g)
        g = _dense_bwd(self.fvb, v1, h2, self._pairs_bwd(g))
        g = _dense_bwd(self.fva, pooled, v1, g)
        g = np.ascontiguousarray(g.reshape(B, n, e))
        g = np.ascontiguousarray(self._pool_bwd(g).reshape(B * P, e))
        g = _dense_bwd(self.fe1b, m1, msg, g)
        g = _dense_bwd(self.fe1a, pair, m1, g)
        g = _dense_bwd(self.emb2, a1, h, self._pairs_bwd(g))
        gW, gb = _weight_grads(self.emb1, flat, a1, g)
        self.emb1.W.grad += gW
        self.emb1.b.grad += gb

    # -- decoder -------------------------------------------------------------

    def decode(self, x: np.ndarray, edge_weight: np.ndarray):
        """Teacher-forced one-step-ahead predictions for steps 1..T-1.

        edge_weight is a (batch, n_pairs) array of edge strengths (soft
        samples in training, hard 0/1 at inference).  Returns the
        (batch, n_nodes, T-1, D) predictions for x[:, :, 1:] and the
        activations decode_bwd reads.
        """
        self._check_input(x)
        B, n, Tlen, D = x.shape
        d = self.dec_hidden
        gru = self.gru
        w = edge_weight.reshape(B, self.n_pairs, 1)
        h = np.zeros((B * n, d))
        pred = np.empty((B, n, Tlen - 1, D))
        steps = []
        for t in range(Tlen - 1):
            xt = x[:, :, t, :]
            xin = np.ascontiguousarray(xt.reshape(B * n, D))
            m = _dense(self.msg, xin)
            gated = np.take(m.reshape(B, n, d), self.src, axis=1) * w
            gin = np.concatenate([xt, self._pool(gated)], axis=2)
            gin = gin.reshape(B * n, D + d)
            h_new, r, z, nc, ghn = K.gru_fwd(gin, h, gru.Wx.data, gru.Wh.data,
                                             gru.bx.data, gru.bh.data)
            delta = _dense(self.out, h_new)
            pred[:, :, t, :] = xt + delta.reshape(B, n, D)
            steps.append((xin, m, gin, h, r, z, nc, ghn, h_new, delta))
            h = h_new
        return pred, (w, steps)

    def decode_bwd(self, cache, g_pred):
        """Add the decoder's gradients; returns d(loss)/d(edge_weight)."""
        w, steps = cache
        B, P = w.shape[:2]
        n, d, D = self.n_nodes, self.dec_hidden, self.feat_dim
        gru = self.gru
        params = (self.out.W, self.out.b, gru.Wx, gru.Wh, gru.bx, gru.bh,
                  self.msg.W, self.msg.b)
        sums = g_w = dh = None   # summed from t = T-2 down
        for t in range(len(steps) - 1, -1, -1):
            xin, m, gin, h, r, z, nc, ghn, h_new, delta = steps[t]
            gy = np.ascontiguousarray(g_pred[:, :, t, :]).reshape(B * n, D)
            gx, gWo, gbo = K.affine_act_bwd(h_new, self.out.W.data, delta,
                                            ACT_IDENTITY, gy)
            dh = gx if dh is None else dh + gx
            g_gin, dh, gWx, gWh, gbx, gbh = K.gru_bwd(
                gin, h, gru.Wx.data, gru.Wh.data, r, z, nc, ghn, dh)
            g_pool = np.ascontiguousarray(g_gin.reshape(B, n, D + d)[:, :, D:])
            g_gated = self._pool_bwd(g_pool)
            taken = np.take(m.reshape(B, n, d), self.src, axis=1)
            g_wt = (g_gated * taken).sum(axis=2, keepdims=True)
            g_w = g_wt if g_w is None else g_w + g_wt
            g_m = _gather_bwd(g_gated * w, self._src_slots)
            gWm, gbm = _weight_grads(self.msg, xin, m, g_m.reshape(B * n, d))
            grads = (gWo, gbo, gWx, gWh, gbx, gbh, gWm, gbm)
            if sums is None:
                sums = grads
            else:
                for s, grad in zip(sums, grads):
                    s += grad
        for p, s in zip(params, sums):
            p.grad += s
        return g_w.reshape(B, P)

    # -- sampling ------------------------------------------------------------

    def sample_edges(self, logits, temperature: float, rng=None, noise=None):
        """Gumbel-softmax edge sample from (batch, n_pairs, 2) logits.

        Returns the edge-type-1 weights (batch, n_pairs) and the soft
        sample over both types, which gumbel_softmax_bwd reads.  noise,
        when given, is the Gumbel draw to use instead of one from rng.
        """
        if noise is None:
            if rng is None:
                raise ConfigurationError("need a generator or explicit noise")
            noise = sample_gumbel(rng, logits.shape)
        if np.shape(noise) != logits.shape:
            raise UsageError("gumbel noise shape must match logits")
        if temperature <= 0.0:
            raise ConfigurationError("gumbel temperature must be positive")
        y = (logits + noise) * (1.0 / temperature)
        e = np.exp(y - y.max(axis=-1, keepdims=True))
        soft = e / e.sum(axis=-1, keepdims=True)
        return soft[..., 1], soft

    def hard_edges(self, logits: np.ndarray) -> np.ndarray:
        """Deterministic argmax decode: (batch, n_pairs) uint8 edge bits."""
        return (logits[..., 1] > logits[..., 0]).astype(np.uint8)

    # -- persistence -----------------------------------------------------------

    def meta(self) -> dict:
        return {"n_nodes": self.n_nodes, "series_len": self.series_len,
                "feat_dim": self.feat_dim, "enc_hidden": self.enc_hidden,
                "dec_hidden": self.dec_hidden}

    @classmethod
    def from_meta(cls, meta: dict, seed=0):
        return cls(meta["n_nodes"], meta["series_len"], meta["feat_dim"],
                   seed=seed, enc_hidden=meta["enc_hidden"],
                   dec_hidden=meta["dec_hidden"])
