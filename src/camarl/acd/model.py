"""Latent-edge variational model over node series.

Encoder: a shared 2-layer series embedding per node, two rounds of
node-to-edge / edge-to-node message passing with shared weights, and a
2-type edge head (no-edge, edge) for every ordered node pair.  Weight
sharing across nodes and pairs makes the encoder equivariant to node
permutations by construction.

Decoder: one shared GRU per node predicting the next step of its own
series; incoming messages are multiplied by the sampled weight of the
(source -> target) edge, so a hard no-edge blocks information exactly.
"""

import numpy as np

from camarl.errors import ConfigurationError
from camarl.nn import tensor as T
from camarl.nn.functional import gumbel_softmax, sample_gumbel
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
        # incoming-edge aggregation, mean over the n-1 sources per node
        agg = np.zeros((self.n_pairs, n_nodes))
        agg[np.arange(self.n_pairs), self.dst] = 1.0 / (n_nodes - 1)
        self.agg = agg

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

    # -- encoder -------------------------------------------------------------

    def _check_input(self, x):
        if x.ndim != 4 or x.shape[1] != self.n_nodes:
            raise ConfigurationError(
                f"expected input (batch, {self.n_nodes}, T, D), got {x.shape}")
        if x.shape[2] != self.series_len or x.shape[3] != self.feat_dim:
            raise ConfigurationError(
                f"model was built for series ({self.series_len}, "
                f"{self.feat_dim}), got {x.shape[2:]}")

    def encode(self, x: np.ndarray):
        """Edge logits (batch, n_pairs, 2) for smoothed, normalized series."""
        self._check_input(x)
        B, n = x.shape[0], self.n_nodes
        e = self.enc_hidden
        flat = T.constant(x.reshape(B * n, -1))
        h = self.emb2(self.emb1(flat)).reshape((B, n, e))
        hs = T.take(h, self.src, axis=1)
        hd = T.take(h, self.dst, axis=1)
        pair = T.concat([hs, hd], axis=2).reshape((B * self.n_pairs, 2 * e))
        msg = self.fe1b(self.fe1a(pair)).reshape((B, self.n_pairs, e))
        pooled = T.mix_axis1(msg, self.agg).reshape((B * n, e))
        h2 = self.fvb(self.fva(pooled)).reshape((B, n, e))
        hs2 = T.take(h2, self.src, axis=1)
        hd2 = T.take(h2, self.dst, axis=1)
        pair2 = T.concat([hs2, hd2], axis=2).reshape((B * self.n_pairs, 2 * e))
        out = self.head(self.fe2b(self.fe2a(pair2)))
        return out.reshape((B, self.n_pairs, EDGE_TYPES))

    # -- decoder -------------------------------------------------------------

    def decode(self, x: np.ndarray, edge_weight):
        """Teacher-forced one-step-ahead predictions for steps 1..T-1.

        edge_weight is a (batch, n_pairs) tensor of edge strengths
        (soft samples in training, hard 0/1 at inference); returns a
        (batch, n_nodes, T-1, D) prediction tensor for x[:, :, 1:].
        """
        self._check_input(x)
        B, n, Tlen, D = x.shape
        d = self.dec_hidden
        w = edge_weight.reshape((B, self.n_pairs, 1))
        h = T.constant(np.zeros((B * n, d)))
        preds = []
        for t in range(Tlen - 1):
            xt = x[:, :, t, :]
            m = self.msg(T.constant(xt.reshape(B * n, D)))
            m = m.reshape((B, n, d))
            gated = T.take(m, self.src, axis=1) * w
            pooled = T.mix_axis1(gated, self.agg)
            gin = T.concat([T.constant(xt), pooled], axis=2)
            h = self.gru.step(gin.reshape((B * n, D + d)), h)
            delta = self.out(h).reshape((B, n, 1, D))
            preds.append(T.constant(xt.reshape(B, n, 1, D)) + delta)
        return T.concat(preds, axis=2)

    # -- sampling ------------------------------------------------------------

    def sample_edges(self, logits, temperature: float, rng=None, noise=None):
        """Edge-type-1 weights (batch, n_pairs) from logits."""
        if noise is None:
            if rng is None:
                raise ConfigurationError("need a generator or explicit noise")
            noise = sample_gumbel(rng, logits.data.shape)
        sample = gumbel_softmax(logits, temperature, noise)
        picked = T.take(sample, np.array([1]), axis=2)
        return picked.reshape(logits.data.shape[:2])

    def hard_edges(self, logits_data: np.ndarray) -> np.ndarray:
        """Deterministic argmax decode: (batch, n_pairs) uint8 edge bits."""
        return (logits_data[..., 1] > logits_data[..., 0]).astype(np.uint8)

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
