"""Causal-discovery training: the ELBO and its closed-form gradients,
the backward through the edge model, the fitting loop and its files."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from camarl.envs import env_spec
from camarl.errors import ConfigurationError, UsageError
from camarl.nn.layers import rmsprop_update
from camarl.acd.dataset import check_dataset, preprocess
from camarl.acd.model import TEMPERATURE, AcdModel, gumbel_softmax_bwd


def sigma_for(env_id: str) -> float:
    """Decoder output variance: larger for the noisier combat rewards."""
    return 5e-3 if env_spec(env_id).family == "sk" else 5e-4


@dataclass
class ElboTerms:
    nll: float     # nll + kl is what training minimizes
    kl: float
    g_pred: np.ndarray    # d(nll + kl)/d(pred)
    g_logits: np.ndarray  # d(kl)/d(logits); the edge sample adds its own


def elbo_loss(pred, target, logits, sigma: float, lengths) -> ElboTerms:
    """Per-sample-averaged ELBO terms, reconstruction error plus KL to the
    edge prior, and their closed-form gradients.

    nll = sum((pred - target)^2) / (2 sigma) over each sample's predicted
    steps 0..length-2 only, with sigma the decoder's output variance;
    the steps past them neither score nor take a gradient.  kl compares the
    edge posterior softmax(logits) against the uniform prior over the
    two edge types.  Both are averaged over the batch.  The KL gradient
    is the log-softmax term plus the softmax term, in that order.
    """
    if sigma <= 0:
        raise ConfigurationError(f"variance must be positive, got {sigma}")
    if np.shape(target) != pred.shape:
        raise UsageError(f"target {np.shape(target)} does not match the "
                         f"predictions {pred.shape}")
    batch = pred.shape[0]
    predicted = np.arange(pred.shape[2]) < np.asarray(lengths)[:, None] - 1
    diff = pred - target
    np.copyto(diff, 0.0, where=~predicted[:, None, :, None])
    c = 1.0 / (2.0 * sigma * batch)
    nll = (diff * diff).sum() * c
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    q = e / e.sum(axis=-1, keepdims=True)
    lq = shifted - np.log(e.sum(axis=-1, keepdims=True))
    kl = ((q * lq).sum(axis=-1) + float(np.log(logits.shape[-1]))).sum()
    kl = kl * (1.0 / batch)
    g_q = (1.0 / batch) * lq
    g_lq = (1.0 / batch) * q
    g_logits = g_lq - np.exp(lq) * g_lq.sum(axis=-1, keepdims=True)
    g_logits += q * (g_q - (g_q * q).sum(axis=-1, keepdims=True))
    return ElboTerms(nll=float(nll), kl=float(kl), g_pred=(2.0 * c) * diff,
                     g_logits=g_logits)


def backward(model: AcdModel, terms, enc, dec, soft):
    """Add the gradient of the ELBO into the model's gradient buffer.

    enc and dec are the caches of the batch's encode and decode, soft
    its edge sample's.  The logits take the KL gradient first and the
    edge sample's second.
    """
    g_weight = model.decode_bwd(dec, terms.g_pred)
    model.encode_bwd(enc, terms.g_logits + gumbel_softmax_bwd(soft, g_weight))


@dataclass
class AcdResult:
    model: AcdModel
    rows: list = field(default_factory=list)
    env_id: str = ""
    sigma: float = 0.0


def train_acd(samples, *, epochs: int = 150, batch_size: int = 128,
              seed: int = 0, sigma=None, lr: float = 5e-4,
              enc_hidden: int = 128, dec_hidden: int = 64, out_dir=None,
              progress=None) -> AcdResult:
    """Fit the edge model on raw winning-episode samples.

    Preprocesses every sample, then minimizes the per-sample ELBO with
    RMSprop over shuffled batches, each decoded on a soft edge sample
    (``AcdModel.sample_edges``).  Each batch is ordered by true length,
    longest first (ties keep their shuffled order), so the decoder runs
    each step on a shrinking row prefix and the NLL covers only the
    predicted steps.  Returns the model plus one loss row per epoch, which
    ``save_acd`` writes into out_dir when it is given.
    """
    if not samples:
        raise UsageError("cannot train on an empty dataset")
    if epochs < 1 or batch_size < 1:
        raise ConfigurationError("epochs and batch size must be at least 1")
    env_id = check_dataset(samples)
    if sigma is None:
        sigma = sigma_for(env_id)
    lengths = np.array([s.length for s in samples])
    data = preprocess(samples)
    M, n_nodes, T, D = data.shape

    root = np.random.SeedSequence(seed)
    ss_init, ss_shuffle, ss_noise = root.spawn(3)
    model = AcdModel(n_nodes, T, D, seed=ss_init, enc_hidden=enc_hidden,
                     dec_hidden=dec_hidden)
    rng_shuffle = np.random.default_rng(ss_shuffle)
    rng_noise = np.random.default_rng(ss_noise)

    result = AcdResult(model=model, env_id=env_id, sigma=sigma)
    for epoch in range(epochs):
        order = rng_shuffle.permutation(M)
        nll_sum = kl_sum = 0.0
        n_seen = 0
        for lo in range(0, M, batch_size):
            idx = order[lo:lo + batch_size]
            idx = idx[np.argsort(-lengths[idx], kind="stable")]
            xb, lb = data[idx], lengths[idx]
            logits, enc = model.encode(xb)
            w, soft = model.sample_edges(logits, rng_noise)
            pred, dec = model.decode(xb, w, lb)
            terms = elbo_loss(pred, xb[:, :, 1:lb[0], :], logits, sigma, lb)
            backward(model, terms, enc, dec, soft)
            rmsprop_update(model.params, lr=lr)
            b = len(idx)
            nll_sum += terms.nll * b
            kl_sum += terms.kl * b
            n_seen += b
            # the next batch's forward must not run beside these caches
            del logits, enc, w, soft, pred, dec, terms
        row = {"epoch": epoch, "nll": nll_sum / n_seen, "kl": kl_sum / n_seen,
               "total": (nll_sum + kl_sum) / n_seen}
        result.rows.append(row)
        if progress is not None:
            progress(row)
    if out_dir is not None:
        save_acd(Path(out_dir), result)
    return result


def save_acd(out_dir: Path, result: AcdResult):
    """Write the encoder checkpoint and the per-epoch loss log."""
    # imported per call, so a patch of nn.checkpoint.save_checkpoint applies
    from camarl.nn.checkpoint import save_checkpoint, write_csv

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = dict(result.model.meta())
    meta.update({"env_id": result.env_id, "sigma": result.sigma,
                 "temperature": TEMPERATURE})
    save_checkpoint(out_dir / "encoder.ckpt",
                    result.model.params.state_arrays(), meta)
    fields = ("epoch", "nll", "kl", "total")
    write_csv(out_dir / "acd_log.csv", fields,
              ([row[k] for k in fields] for row in result.rows))


def load_acd(path) -> tuple:
    """Restore (model, meta) from an encoder checkpoint file; its env id,
    the sizes AcdModel.from_meta reads and the finiteness of every array
    are checked first."""
    from camarl.nn.checkpoint import (
        check_fields, count, finite, is_str, load_checkpoint)

    arrays, meta = load_checkpoint(path)
    check_fields(meta, {"env_id": is_str, **dict.fromkeys(
        ("n_nodes", "series_len", "feat_dim", "enc_hidden", "dec_hidden"),
        count(1))}, path)
    check_fields(arrays, dict.fromkeys(arrays, finite), path)
    model = AcdModel.from_meta(meta)
    model.params.load_arrays(arrays)
    return model, meta
