"""Causal-discovery training loop."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import camarl
from camarl.envs import env_spec
from camarl.errors import ConfigurationError, UsageError
from camarl.nn.optim import RmspropState, rmsprop_update
from camarl.acd.dataset import preprocess
from camarl.acd.loss import elbo_loss
from camarl.acd.model import AcdModel, gumbel_softmax_bwd

TEMPERATURE = 0.5


def sigma_for(env_id: str) -> float:
    """Decoder output variance: larger for the noisier combat rewards."""
    return 5e-3 if env_spec(env_id).family == "sk" else 5e-4


def backward(model: AcdModel, terms, enc, dec, soft):
    """Add the gradient of the ELBO into every parameter's ``.grad``.

    enc and dec are the caches of the batch's encode and decode, soft
    the edge sample drawn at TEMPERATURE.  The logits take the KL
    gradient first and the edge sample's second.
    """
    g_weight = model.decode_bwd(dec, terms.g_pred)
    model.encode_bwd(enc, terms.g_logits
                     + gumbel_softmax_bwd(soft, TEMPERATURE, g_weight))


@dataclass
class AcdResult:
    model: AcdModel
    rows: list = field(default_factory=list)
    env_id: str = ""
    sigma: float = 0.0


def _stack(samples):
    shapes = {s.x.shape for s in samples}
    if len(shapes) != 1:
        raise ConfigurationError(
            f"dataset mixes sample shapes: {sorted(shapes)}")
    return np.stack([s.x for s in samples])


def train_acd(samples, *, epochs: int = 150, batch_size: int = 128,
              seed: int = 0, sigma=None, lr: float = 5e-4,
              enc_hidden: int = 128, dec_hidden: int = 64, out_dir=None,
              progress=None) -> AcdResult:
    """Fit the edge model on raw winning-episode samples.

    Preprocesses every sample, then minimizes the per-sample ELBO with
    RMSprop over shuffled batches; soft edge samples at ``TEMPERATURE``
    during training.  Returns the model plus one loss row per epoch.
    """
    if not samples:
        raise UsageError("cannot train on an empty dataset")
    env_ids = sorted({s.env_id for s in samples})
    if len(env_ids) > 1:
        raise ConfigurationError(
            f"dataset mixes environments: {', '.join(env_ids)}")
    env_id = env_ids[0]
    if sigma is None:
        sigma = sigma_for(env_id)
    data = _stack([preprocess(s) for s in samples])
    M, n_nodes, T, D = data.shape

    root = np.random.SeedSequence(seed)
    ss_init, ss_shuffle, ss_noise = root.spawn(3)
    model = AcdModel(n_nodes, T, D, seed=ss_init, enc_hidden=enc_hidden,
                     dec_hidden=dec_hidden)
    opt = RmspropState(model.params)
    rng_shuffle = np.random.default_rng(ss_shuffle)
    rng_noise = np.random.default_rng(ss_noise)

    result = AcdResult(model=model, env_id=env_id, sigma=sigma)
    for epoch in range(epochs):
        order = rng_shuffle.permutation(M)
        nll_sum = kl_sum = 0.0
        n_seen = 0
        for lo in range(0, M, batch_size):
            idx = order[lo:lo + batch_size]
            xb = data[idx]
            logits, enc = model.encode(xb)
            w, soft = model.sample_edges(logits, TEMPERATURE, rng=rng_noise)
            pred, dec = model.decode(xb, w)
            terms = elbo_loss(pred, xb[:, :, 1:, :], logits, sigma)
            backward(model, terms, enc, dec, soft)
            rmsprop_update(model.params, opt, lr=lr)
            b = len(idx)
            nll_sum += terms.nll * b
            kl_sum += terms.kl * b
            n_seen += b
        row = {"epoch": epoch, "nll": nll_sum / n_seen, "kl": kl_sum / n_seen,
               "total": (nll_sum + kl_sum) / n_seen}
        result.rows.append(row)
        if progress is not None:
            progress(row)
    if out_dir is not None:
        save_acd(Path(out_dir), model, result)
    return result


def save_acd(out_dir: Path, model: AcdModel, result: AcdResult):
    from camarl.nn.checkpoint import save_checkpoint, write_csv

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = dict(model.meta())
    meta.update({"env_id": result.env_id, "sigma": result.sigma,
                 "temperature": TEMPERATURE,
                 "substrate_version": camarl.SUBSTRATE_VERSION})
    save_checkpoint(out_dir / "encoder.ckpt", model.params.state_arrays(),
                    meta)
    fields = ("epoch", "nll", "kl", "total")
    write_csv(out_dir / "acd_log.csv", fields,
              ([row[k] for k in fields] for row in result.rows))


def load_acd(path) -> tuple:
    """Restore (model, meta) from an encoder checkpoint file."""
    from camarl.nn.checkpoint import load_checkpoint

    arrays, meta = load_checkpoint(path)
    try:
        model = AcdModel.from_meta(meta)
    except KeyError as err:
        raise ConfigurationError(
            f"{path} is not an edge-model checkpoint: no {err}") from None
    model.params.load_arrays(arrays)
    return model, meta
