"""Edge extraction and accuracy scoring for trained models."""

import numpy as np

from camarl.envs import env_spec
from camarl.errors import ConfigurationError, UsageError
from camarl.acd.dataset import EVAL_BLOCK, episode_to_sample, preprocess
from camarl.acd.model import AcdModel


def predict_c(model: AcdModel, x: np.ndarray, margins: bool = False):
    """Causality bits (M, n - 1) of a ``preprocess`` stack: bit [k, i] is
    the hard-decoded edge from node i into sample k's reward node, each
    sample encoded as a batch of one.  ordered_pairs lists the pairs
    into the reward node by ascending source.  With margins, returns the
    bits and, from the same encode, those edges' margins logit1 - logit0.
    """
    logits, _ = model.encode(x[:, None])
    into_reward = logits[:, 0, model.dst == model.n_nodes - 1]
    bits = model.hard_edges(into_reward)
    if margins:
        return bits, into_reward[..., 1] - into_reward[..., 0]
    return bits


def margin_auc(margin: np.ndarray, labels: np.ndarray) -> float:
    """The AUC of scores against 0/1 labels: the share of (1-label,
    0-label) pairs that the scores order correctly, a tie counting one
    half.  NaN when a class is absent."""
    margin, labels = np.ravel(margin), np.ravel(labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if not n_pos or not n_neg:
        return float("nan")
    # 1-based ranks, tied scores sharing the mean of their ranks
    _, tie, counts = np.unique(margin, return_inverse=True,
                               return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[tie]
    wins = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2
    return float(wins / (n_pos * n_neg))


def evaluate_accuracy(model: AcdModel, samples) -> dict:
    """Confusion summary over every (episode, agent) pair, in percent.

    false_positive: predicted edge where the ground truth has none;
    false_negative: missed a ground-truth edge; the three sum to 100.
    Baselines: label_share of 1-labels, the majority-class accuracy and
    balanced, the mean of TPR and TNR (NaN when a class is absent).
    margin_auc: the threshold-free score, the AUC of the reward-edge
    margins against the labels (NaN when a class is absent).
    Raw samples are preprocessed and scored in stacks of EVAL_BLOCK.
    """
    if not samples:
        raise UsageError("cannot evaluate on an empty dataset")
    blocks = [predict_c(model, preprocess(samples[i:i + EVAL_BLOCK]),
                        margins=True)
              for i in range(0, len(samples), EVAL_BLOCK)]
    pred = np.concatenate([bits for bits, _ in blocks])
    truth = np.stack([s.bits for s in samples])
    total, ones = truth.size, int(truth.sum())
    tp = int((pred & truth).sum())
    fp, fn, neg = int(pred.sum()) - tp, ones - tp, total - ones
    share = 100.0 * ones / total
    return {"correct": 100.0 * (total - fp - fn) / total,
            "false_positive": 100.0 * fp / total,
            "false_negative": 100.0 * fn / total,
            "n_pairs": total,
            "label_share": share,
            "majority": max(share, 100.0 - share),
            "balanced": (50.0 * (tp / ones + (neg - fp) / neg)
                         if ones and neg else float("nan")),
            "margin_auc": margin_auc(
                np.concatenate([m for _, m in blocks]), truth)}


def make_bits_fn(model: AcdModel, env_id: str):
    """Per-episode causality bits for the training loop.

    Returns a callable mapping a completed episode to (N,) bits.  An
    encoder trained for another node count raises ConfigurationError.
    """
    spec = env_spec(env_id)
    if model.n_nodes != spec.n_agents + 1:
        raise ConfigurationError(
            f"encoder was trained for {model.n_nodes} nodes, environment "
            f"{env_id} needs {spec.n_agents + 1}")

    def bits_fn(episode):
        sample = episode_to_sample(episode, np.zeros(spec.n_agents, np.uint8),
                                   -1)
        return predict_c(model, preprocess([sample]))[0]

    return bits_fn
