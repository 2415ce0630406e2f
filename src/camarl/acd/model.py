"""Latent-edge variational model over node series.

Encoder: a shared 2-layer series embedding per node, two rounds of
node-to-edge / edge-to-node message passing with shared weights, and a
2-type edge head (no-edge, edge) for every ordered node pair.  Weight
sharing across nodes and pairs makes the encoder equivariant to node
permutations by construction.

Decoder: one shared GRU per node predicting the next step of its own
series; incoming messages are multiplied by the sampled weight of the
(source -> target) edge, so a hard no-edge blocks information exactly.
It runs only over each sample's true length.  The batch comes ordered
longest first, so step t runs on the row prefix of the samples with
t + 1 < length: the hidden state shrinks as a prefix of its rows, and
the loop ends at the longest sample's last step.  The padding past a
sample's length is never read.

The encoder's first layer ``enc.emb1`` reads only the live prefix of
each batch: its first P time steps, where P - 1 is the last step at which
any node or channel of the batch is nonzero.  Every input past P is
exactly 0.0, so the layer's value is unchanged in exact arithmetic, but
its product runs over P * D inputs rather than T * D, and a shorter inner
dimension rounds differently.  Its weight gradient is added only into
the first P * D rows; the rows past them keep a gradient of exactly 0.0,
so RMSprop leaves their weights as they are.  A batch live to its last
step runs the full product.  Each batch of a stack reads its own prefix,
so a stacked encode still rounds as the batch-1 calls.

Forward and backward are explicit array passes, like the Q-network's
``qnet_unroll_fwd``/``_bwd``.  ``encode`` and ``decode`` return their
output plus a cache of only the activations that ``encode_bwd`` and
``decode_bwd`` read.  ``sample_edges`` draws at the one ``TEMPERATURE``
and returns the edge weights plus the soft sample that
``gumbel_softmax_bwd`` reads.  ``encode`` takes leading stack axes:
``@`` rounds each batch of a stack as its own call, byte for byte, where
one 2-D batch of them would not.  The backward passes add into the
gradient views of the model's ``ParamSet``.  They round exactly
as the reverse-mode tape they replace, which the tests keep as the
reference, because they keep its order of accumulation wherever more
than two terms are summed (a sum of two cannot depend on its order):

- A decoder weight is shared by the steps, and so are the edge weights.
  Each step's gradient is added into the zeroed buffer as it is
  computed, from the last step down to 0, into the rows that step ran
  on.  As 0.0 + a == a, that rounds as the tape's sum from the first
  term, added into the zeroed buffer.
- A hidden state's gradient is its output layer's, plus, in the rows
  the next step ran on, the next step's (a sum of two).
- The logits gradient is the KL's log-softmax term, plus its softmax
  term, plus the edge sample's term, in that order.
- The gradient of a pair gather ``h.take(idx, axis=1)`` is n - 1
  slice-adds into zeros, the pairs of each node in ascending order, as
  ``np.add.at`` adds them.
- The incoming-edge mean scales the messages by 1 / (n - 1), then sums
  each node's pairs in ascending order (``_gather_bwd``); its gradient
  is the scaled node gradient taken at each pair's destination.
- Every per-step product stays per step, on that step's rows.  Its
  row count sets its rounding: hoisting the message layer as one 2-D
  GEMM over all steps would change it, and so does a step run on more
  or fewer samples.
- The gradient of the data inputs (``enc.emb1``, ``dec.msg``) is not
  computed.
"""

import numpy as np

from camarl.errors import ConfigurationError, UsageError
from camarl.nn import kernels as K
from camarl.nn.kernels import ACT_IDENTITY, ACT_RELU
from camarl.nn.layers import Dense, ParamSet, _uniform_init, dense_init

EDGE_TYPES = 2
TEMPERATURE = 0.5   # of every Gumbel-softmax edge sample
GRU_KEYS = ("Wx", "Wh", "bx", "bh")   # the gru_fwd argument order


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


def gumbel_softmax_bwd(soft, g_weight):
    """Logits gradient of the edge weights ``soft[..., 1]`` (see sample_edges)."""
    g = np.zeros_like(soft)
    g[..., 1] += g_weight
    dot = (g * soft).sum(axis=-1, keepdims=True)
    return soft * (g - dot) * (1.0 / TEMPERATURE)


def _dense(layer, x):
    return K.affine_act_fwd(x, layer.W, layer.b, layer.act)


def _dense_bwd(layer, x, y, gy):
    """Input gradient of y = _dense(layer, x); adds into gW and gb.  y is
    not read, and may be None, at ACT_IDENTITY."""
    gx, gW, gb = K.affine_act_bwd(x, layer.W, y, layer.act, gy)
    layer.gW += gW
    layer.gb += gb
    return gx


def _dense_params_bwd(layer, x, y, gy):
    """_dense_bwd without the input gradient: adds into gb and the rows of
    gW that x has columns for (all of them, unless x is a prefix)."""
    gpre = K.pre_act_grad(gy, y, layer.act)
    layer.gW[:x.shape[1]] += np.dot(x.T, gpre)
    layer.gb += np.sum(gpre, axis=0)


def _gather_bwd(g, slots):
    """Gradient of h.take(idx, axis=-2) for g of shape (..., P, F).

    slots[v] lists, ascending, the pairs p with idx[p] == v.
    """
    gh = np.zeros(g.shape[:-2] + (slots.shape[0], g.shape[-1]))
    for k in range(slots.shape[1]):
        gh += g[..., slots[:, k], :]
    return gh


class AcdModel:
    def __init__(self, n_nodes: int, series_len: int, feat_dim: int,
                 seed=0, *, enc_hidden: int, dec_hidden: int):
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
        e, d, D = enc_hidden, dec_hidden, feat_dim
        dense = (("enc.emb1", series_len * D, e, ACT_RELU),
                 ("enc.emb2", e, e, ACT_IDENTITY),
                 ("enc.fe1a", 2 * e, e, ACT_RELU),
                 ("enc.fe1b", e, e, ACT_IDENTITY),
                 ("enc.fva", e, e, ACT_RELU),
                 ("enc.fvb", e, e, ACT_IDENTITY),
                 ("enc.fe2a", 2 * e, e, ACT_RELU),
                 ("enc.fe2b", e, e, ACT_IDENTITY),
                 ("enc.head", e, EDGE_TYPES, ACT_IDENTITY),
                 ("dec.msg", D, d, ACT_RELU),
                 ("dec.out", d, D, ACT_IDENTITY))
        # draw order: the dense layers as listed, the GRU before dec.out
        inits = [pair for name, n_in, n_out, _ in dense[:-1]
                 for pair in dense_init(rng, name, n_in, n_out)]
        inits += [("dec.gru.Wx", _uniform_init(rng, D + d, (D + d, 3 * d))),
                  ("dec.gru.Wh", _uniform_init(rng, d, (d, 3 * d))),
                  ("dec.gru.bx", _uniform_init(rng, D + d, (3 * d,))),
                  ("dec.gru.bh", _uniform_init(rng, d, (3 * d,)))]
        inits += dense_init(rng, "dec.out", d, D)
        self.params = p = ParamSet(inits)
        (self.emb1, self.emb2, self.fe1a, self.fe1b, self.fva, self.fvb,
         self.fe2a, self.fe2b, self.head, self.msg, self.out) = (
            Dense(p, name, act) for name, _, _, act in dense)
        self.gru = tuple(p["dec.gru." + k] for k in GRU_KEYS)

    def _check_input(self, x):
        if x.ndim < 4 or x.shape[-3] != self.n_nodes:
            raise ConfigurationError(
                f"expected input (batch, {self.n_nodes}, T, D), got {x.shape}")
        if x.shape[-2:] != (self.series_len, self.feat_dim):
            raise ConfigurationError(
                f"model was built for series ({self.series_len}, "
                f"{self.feat_dim}), got {x.shape[-2:]}")

    # -- encoder -------------------------------------------------------------

    def _pairs(self, h):
        """(..., B * n_pairs, 2F) rows [h[src] | h[dst]] from (..., B * n, F)."""
        lead, B = h.shape[:-2], h.shape[-2] // self.n_nodes
        h = h.reshape(lead + (B, self.n_nodes, -1))
        pair = np.concatenate([np.take(h, self.src, axis=-2),
                               np.take(h, self.dst, axis=-2)], axis=-1)
        return pair.reshape(lead + (B * self.n_pairs, -1))

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

    def _embed(self, flat):
        """enc.emb1 over the live prefix of a (B * n, T * D) batch, its
        first P * D columns; returns the output and the prefix."""
        live = np.flatnonzero(flat.any(axis=0))
        k = (live[-1] // self.feat_dim + 1) * self.feat_dim if len(live) else 0
        prefix = np.ascontiguousarray(flat[:, :k])
        return K.affine_act_fwd(prefix, self.emb1.W[:k], self.emb1.b,
                                self.emb1.act), prefix

    def encode(self, x: np.ndarray):
        """Edge logits (..., batch, n_pairs, 2) for smoothed, normalized
        (..., batch, n, T, D) series; each batch of a stack rounds as its
        own call.  Returns the logits and the activations encode_bwd reads.

        enc.emb1 reads only each batch's live prefix, the steps up to the
        last one with a nonzero input (see the module docstring): exact in
        value, but its rounding depends on the prefix length.  The cache
        holds that prefix, or for a stack the list of its batches'.
        """
        self._check_input(x)
        lead, B = x.shape[:-4], x.shape[-4]
        n, P, e = self.n_nodes, self.n_pairs, self.enc_hidden
        width = self.series_len * self.feat_dim
        embedded = [self._embed(f) for f in x.reshape((-1, B * n, width))]
        a1 = np.stack([a for a, _ in embedded]).reshape(lead + (B * n, e))
        flat = [f for _, f in embedded] if lead else embedded[0][1]
        h = _dense(self.emb2, a1)
        pair = self._pairs(h)
        m1 = _dense(self.fe1a, pair)
        msg = _dense(self.fe1b, m1)
        pooled = self._pool(msg.reshape(lead + (B, P, e))).reshape(
            lead + (B * n, e))
        v1 = _dense(self.fva, pooled)
        h2 = _dense(self.fvb, v1)
        pair2 = self._pairs(h2)
        o1 = _dense(self.fe2a, pair2)
        o2 = _dense(self.fe2b, o1)
        logits = _dense(self.head, o2)
        # the outputs of identity layers are not read by their backward
        cache = (flat, a1, pair, m1, pooled, v1, pair2, o1, o2)
        return logits.reshape(lead + (B, P, EDGE_TYPES)), cache

    def encode_bwd(self, cache, g_logits):
        """Add the encoder's gradients given d(loss)/d(logits), for the
        cache of an encode without stack axes; enc.emb1's weight gradient
        goes only into the rows of its live prefix."""
        flat, a1, pair, m1, pooled, v1, pair2, o1, o2 = cache
        B, n, P, e = (flat.shape[0] // self.n_nodes, self.n_nodes,
                      self.n_pairs, self.enc_hidden)
        g = _dense_bwd(self.head, o2, None, np.ascontiguousarray(
            g_logits.reshape(B * P, EDGE_TYPES)))
        g = _dense_bwd(self.fe2b, o1, None, g)
        g = _dense_bwd(self.fe2a, pair2, o1, g)
        g = _dense_bwd(self.fvb, v1, None, self._pairs_bwd(g))
        g = _dense_bwd(self.fva, pooled, v1, g)
        g = np.ascontiguousarray(g.reshape(B, n, e))
        g = np.ascontiguousarray(self._pool_bwd(g).reshape(B * P, e))
        g = _dense_bwd(self.fe1b, m1, None, g)
        g = _dense_bwd(self.fe1a, pair, m1, g)
        g = _dense_bwd(self.emb2, a1, None, self._pairs_bwd(g))
        _dense_params_bwd(self.emb1, flat, a1, g)

    # -- decoder -------------------------------------------------------------

    def decode(self, x: np.ndarray, edge_weight: np.ndarray, lengths):
        """Teacher-forced one-step-ahead predictions for each sample's
        steps 1..length-1.

        edge_weight is a (batch, n_pairs) array of edge strengths (soft
        samples in training, hard 0/1 at inference).  lengths holds each
        sample's true length, non-increasing, so that step t runs on the
        row prefix of the samples with t + 1 < length.  Returns the
        (batch, n_nodes, L - 1, D) predictions for x[:, :, 1:L], L the
        longest length, zero past each sample's last predicted step, and
        the activations decode_bwd reads: the edge weights and the list
        [h0, step 0, h1, step 1, ...], each hidden state held once with
        the rows of its step.
        """
        self._check_input(x)
        B, n, Tlen, D = x.shape
        d = self.dec_hidden
        lengths = np.asarray(lengths)
        if (lengths.shape != (B,) or (np.diff(lengths) > 0).any()
                or not 1 <= lengths[-1] <= lengths[0] <= Tlen):
            raise UsageError(f"need {B} non-increasing lengths in "
                             f"1..{Tlen}, got {lengths}")
        # the number of samples still inside their series at each step
        live = (lengths[:, None] > np.arange(1, lengths[0])).sum(axis=0)
        w = edge_weight.reshape(B, self.n_pairs, 1)
        h = np.zeros((B * n, d))
        pred = np.zeros((B, n, len(live), D))
        steps = [h]
        for t, b in enumerate(live):
            xt = x[:b, :, t, :]
            m = _dense(self.msg, np.ascontiguousarray(xt.reshape(b * n, D)))
            gated = np.take(m.reshape(b, n, d), self.src, axis=1) * w[:b]
            gin = np.concatenate([xt, self._pool(gated)], axis=2)
            gin = gin.reshape(b * n, D + d)
            h, r, z, nc, ghn = K.gru_fwd(gin, h[:b * n], *self.gru)
            pred[:b, :, t, :] = xt + _dense(self.out, h).reshape(b, n, D)
            steps += [(m, gin, r, z, nc, ghn), h]
        return pred, (w, steps)

    def decode_bwd(self, cache, g_pred):
        """Add the decoder's gradients into its zeroed views step by step,
        over the same row prefixes as decode; returns
        d(loss)/d(edge_weight)."""
        w, steps = cache
        B, P = w.shape[:2]
        n, d, D = self.n_nodes, self.dec_hidden, self.feat_dim
        g_gru = [self.params.grads["dec.gru." + k] for k in GRU_KEYS]
        g_w = np.zeros_like(w)
        dh = np.zeros((0, d))
        for t in range(len(steps) // 2 - 1, -1, -1):
            h, (m, gin, r, z, nc, ghn), h_new = steps[2 * t:2 * t + 3]
            b = len(h_new) // n
            gy = np.ascontiguousarray(g_pred[:b, :, t, :]).reshape(b * n, D)
            g_h = _dense_bwd(self.out, h_new, None, gy)
            g_h[:len(dh)] += dh
            g_gin, dh, *grads = K.gru_bwd(gin, h[:b * n], *self.gru[:2], r, z,
                                          nc, ghn, g_h)
            for acc, grad in zip(g_gru, grads):
                acc += grad
            g_pool = np.ascontiguousarray(g_gin.reshape(b, n, D + d)[:, :, D:])
            g_gated = self._pool_bwd(g_pool)
            taken = np.take(m.reshape(b, n, d), self.src, axis=1)
            g_w[:b] += (g_gated * taken).sum(axis=2, keepdims=True)
            g_m = _gather_bwd(g_gated * w[:b], self._src_slots)
            _dense_params_bwd(self.msg, gin[:, :D], m, g_m.reshape(b * n, d))
        return g_w.reshape(B, P)

    # -- sampling ------------------------------------------------------------

    def sample_edges(self, logits, rng: np.random.Generator):
        """Gumbel-softmax edge sample at TEMPERATURE from (batch, n_pairs,
        2) logits, the noise drawn from rng.

        Returns the edge-type-1 weights (batch, n_pairs) and the soft
        sample over both types, which gumbel_softmax_bwd reads.
        """
        y = (logits + sample_gumbel(rng, logits.shape)) * (1.0 / TEMPERATURE)
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
    def from_meta(cls, meta: dict):
        return cls(meta["n_nodes"], meta["series_len"], meta["feat_dim"],
                   enc_hidden=meta["enc_hidden"],
                   dec_hidden=meta["dec_hidden"])
