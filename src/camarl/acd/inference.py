"""Edge extraction and accuracy scoring for trained models."""

import numpy as np

from camarl.envs import env_spec
from camarl.errors import ConfigurationError, UsageError
from camarl.acd.dataset import EVAL_BLOCK, episode_to_sample, preprocess
from camarl.acd.model import AcdModel


def predict_c(model: AcdModel, x: np.ndarray) -> np.ndarray:
    """Causality bits (M, n - 1) of a ``preprocess`` stack: bit [k, i] is
    the hard-decoded edge from node i into sample k's reward node, each
    sample encoded as a batch of one.  ordered_pairs lists the pairs
    into the reward node by ascending source."""
    logits, _ = model.encode(x[:, None])
    return model.hard_edges(logits[:, 0, model.dst == model.n_nodes - 1])


def evaluate_accuracy(model: AcdModel, samples) -> dict:
    """Confusion summary over every (episode, agent) pair, in percent.

    false_positive: predicted edge where the ground truth has none;
    false_negative: missed a ground-truth edge; the three sum to 100.
    Baselines: label_share of 1-labels, the majority-class accuracy and
    balanced, the mean of TPR and TNR (NaN when a class is absent).
    Raw samples are preprocessed and scored in stacks of EVAL_BLOCK.
    """
    if not samples:
        raise UsageError("cannot evaluate on an empty dataset")
    pred = np.concatenate(
        [predict_c(model, preprocess(samples[i:i + EVAL_BLOCK]))
         for i in range(0, len(samples), EVAL_BLOCK)])
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
                         if ones and neg else float("nan"))}


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
