"""Edge extraction and accuracy scoring for trained models."""

import numpy as np

from camarl.envs import env_spec
from camarl.errors import ConfigurationError, UsageError
from camarl.acd.dataset import SeriesSample, episode_to_sample, preprocess
from camarl.acd.model import AcdModel


def adjacency(model: AcdModel, edge_bits: np.ndarray) -> np.ndarray:
    """Pair bits to a (n, n) binary adjacency with a zero diagonal."""
    n = model.n_nodes
    a = np.zeros((n, n), dtype=np.uint8)
    a[model.src, model.dst] = edge_bits
    return a


def predict_c(model: AcdModel, sample: SeriesSample) -> np.ndarray:
    """Causality bits: the reward column of the hard-decoded adjacency.

    The sample must have gone through ``preprocess``.  bit i answers
    whether the model found an edge from observation node i into the
    reward node.
    """
    logits, _ = model.encode(sample.x[None])
    a = adjacency(model, model.hard_edges(logits[0]))
    return a[:-1, -1].copy()


def evaluate_accuracy(model: AcdModel, samples) -> dict:
    """Confusion summary over every (episode, agent) pair, in percent.

    false_positive: predicted edge where the ground truth has none;
    false_negative: missed a ground-truth edge.  The three numbers
    always sum to 100.  Raw samples go through ``preprocess`` to match
    the training distribution.
    """
    if not samples:
        raise UsageError("cannot evaluate on an empty dataset")
    correct = fp = fn = 0
    total = 0
    for s in samples:
        pred = predict_c(model, preprocess(s))
        truth = np.asarray(s.bits)
        correct += int((pred == truth).sum())
        fp += int(((pred == 1) & (truth == 0)).sum())
        fn += int(((pred == 0) & (truth == 1)).sum())
        total += truth.size
    return {"correct": 100.0 * correct / total,
            "false_positive": 100.0 * fp / total,
            "false_negative": 100.0 * fn / total,
            "n_pairs": total}


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
        sample = preprocess(episode_to_sample(
            episode, np.zeros(spec.n_agents, dtype=np.uint8)))
        return predict_c(model, sample)

    return bits_fn
