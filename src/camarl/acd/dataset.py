"""Winning-episode dataset for causal discovery, and its preprocessing.

Each sample stacks the per-agent observation series and the team reward
series as nodes [o_1, ..., o_N, r], reward padded to the common feature
width, the whole series zero-padded to the environment's nominal length.

Preprocessing smooths the observation nodes with a Savitzky-Golay filter
and min-max normalizes the reward node.  The smoother fits a polynomial
of order 10 to a sliding window by least squares and keeps the window's
center value.  Near the boundaries the window is truncated to the
available samples and the fit order drops to window length minus one
when the full order would be underdetermined.  ``preprocess_series``
smooths all observation nodes of a sample or a stack with one product
per position, t of x is ``w @ x[..., lo:hi, :]``.  That rounds like a
loop over the samples and nodes, because ``@`` computes each item of a
stack as its own (1, W) @ (W, D) product.

After smoothing and normalization every node of a sample is set to
exactly 0.0 from its length on, so the series of every env id end where
its episode ends, and the encoder reads each batch only up to its
longest length (``AcdModel.encode`` stops at the last nonzero step).
Inside the episode the values are those of the whole-series
preprocessing: the smoother's window at t < length still reads the raw
padding, which must therefore be zero (``check_dataset``), and the
reward node is min-max normalized over all T, its raw zero padding
included.  As every position from a block's longest length on is
zeroed, the smoother computes only the positions below it.
"""

import functools
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from camarl.envs import env_spec, make_env
from camarl.envs.core import episode_ground_truth_arrays
from camarl.envs.scripted import ScriptedPolicy
from camarl.errors import CollectionError, ConfigurationError, UsageError
from camarl.marl.agent import team_policy
from camarl.marl.episode import EpisodeRecord, collect_episodes

EVAL_BLOCK = 8  # stack size: 8 `pp` samples (1.7 MB) fit a 2 MiB L2 cache
POLY_ORDER = 10


@dataclass
class SeriesSample:
    x: np.ndarray            # (N+1, T, D) node series, reward last
    env_id: str
    bits: np.ndarray         # (N,) ground-truth causality bits
    length: int              # true episode length before padding
    seed: int = -1


def check_dataset(samples) -> str:
    """The one env id of samples; raise ConfigurationError when they mix
    environments, a sample's length is not an integer in 1..T, T its
    padded series length, or a sample's series is nonzero from its
    length on (the smoother reads that padding).  Samples are named
    x_k by their index k, as in a dataset file."""
    env_ids = sorted({s.env_id for s in samples})
    if len(env_ids) > 1:
        raise ConfigurationError(
            f"dataset mixes environments: {', '.join(env_ids)}")
    bad = sorted({repr(s.length) for s in samples
                  if not (isinstance(s.length, Integral)
                          and 1 <= s.length <= s.x.shape[-2])})
    if bad:
        raise ConfigurationError(
            f"sample lengths must be integers in 1..T, got {', '.join(bad)}")
    padded = [f"x_{k}" for k, s in enumerate(samples)
              if s.x[..., s.length:, :].any()]
    if padded:
        raise ConfigurationError(
            f"samples nonzero past their lengths: {', '.join(padded)}")
    return env_ids[0]


def episode_to_sample(episode: EpisodeRecord, bits, seed) -> SeriesSample:
    """Stack an episode's observations and rewards as node series; seed
    is the env seed the episode was rolled from."""
    spec = env_spec(episode.env_id)
    obs = np.asarray(episode.obs, dtype=np.float64)
    rewards = np.asarray(episode.rewards, dtype=np.float64)
    L, n, D = obs.shape
    T = spec.episode_len
    if L > T:
        raise ConfigurationError(
            f"episode length {L} exceeds the nominal {T} for {episode.env_id}")
    x = np.zeros((n + 1, T, D))
    x[:n, :L] = obs.transpose(1, 0, 2)
    x[n, :L, 0] = rewards
    return SeriesSample(x=x, env_id=episode.env_id,
                        bits=np.asarray(bits, dtype=np.uint8),
                        seed=seed, length=L)


def sg_window(T: int) -> int:
    """Smoothing window: half the series length, forced odd."""
    if T < 24:
        raise ConfigurationError(
            f"series length {T} too short to smooth with polynomial order "
            f"{POLY_ORDER}; need T >= 24")
    t2 = T // 2
    return t2 - (1 - t2 % 2)


def _fit_weights(offsets, order):
    """Least-squares weights for the fitted value at offset zero.

    The smoothed value is a linear functional of the window samples, so
    one pseudoinverse row per position serves every series.  Offsets are
    rescaled to [-1, 1] to keep the Vandermonde matrix well conditioned;
    the fitted value at zero is unchanged by the rescaling.
    """
    x = np.asarray(offsets, dtype=np.float64)
    scale = np.abs(x).max()
    if scale > 0:
        x = x / scale
    v = np.vander(x, order + 1, increasing=True)
    return np.linalg.pinv(v)[0]


@functools.lru_cache(maxsize=32)
def sg_weight_table(T: int):
    """Per-position (lo, hi, weights) for a length-T series.

    Position t is smoothed as ``weights @ x[lo:hi]``.  The table is
    built once per T and shared, so it is a tuple and every weight
    array is read-only.
    """
    delta = sg_window(T)
    half = delta // 2
    table = []
    for t in range(T):
        lo = max(0, t - half)
        hi = min(T, t + half + 1)
        w = _fit_weights(np.arange(lo, hi) - t, min(POLY_ORDER, hi - lo - 1))
        w.flags.writeable = False
        table.append((lo, hi, w))
    return tuple(table)


def savgol_smooth(x: np.ndarray, out=None) -> np.ndarray:
    """Smooth float64 (..., T, C) data along axis -2 into a new array, or
    only its first out.shape[-2] positions into out."""
    if out is None:
        out = np.empty_like(x)
    table = sg_weight_table(x.shape[-2])
    for t in range(out.shape[-2]):
        lo, hi, w = table[t]
        out[..., t, :] = w @ x[..., lo:hi, :]
    return out


def minmax_normalize(series: np.ndarray) -> np.ndarray:
    """Map each row of the last axis to [0, 1]; a constant row to zeros."""
    x = np.asarray(series, dtype=np.float64)
    lo = x.min(axis=-1, keepdims=True)
    hi = x.max(axis=-1, keepdims=True)
    return np.divide(x - lo, hi - lo, out=np.zeros_like(x), where=hi != lo)


def preprocess_series(x: np.ndarray, lengths) -> np.ndarray:
    """Smooth observation nodes, normalize the reward node, and zero
    every node from the sample's length on.

    x is an (..., n_nodes, T, D) sample or stack, the reward series in
    the last node's channel 0 (the others zero), and lengths the true
    length of each sample, of shape x.shape[:-3].  Inside each length
    the values are those of the whole series: the smoother's windows
    read the raw padding and the reward node is normalized over all T.
    Returns a new array.
    """
    src = np.ascontiguousarray(x, dtype=np.float64)
    lengths = np.asarray(lengths)
    if lengths.shape != src.shape[:-3]:
        raise UsageError(f"need lengths of shape {src.shape[:-3]} for "
                         f"series {src.shape}, got {lengths.shape}")
    out = np.zeros_like(src)
    savgol_smooth(src[..., :-1, :, :], out=out[..., :-1, :lengths.max(), :])
    out[..., -1, :, :] = src[..., -1, :, :]
    out[..., -1, :, 0] = minmax_normalize(src[..., -1, :, 0])
    past = np.arange(src.shape[-2]) >= lengths[..., None]
    np.copyto(out, 0.0, where=past[..., None, :, None])
    return out


def preprocess(samples) -> np.ndarray:
    """Same-shape samples as one preprocessed (M, n, T, D) stack.

    Fills the stack EVAL_BLOCK samples at a time via preprocess_series,
    so the temporaries stay one block in size whatever M is, and each
    block smooths only up to its longest length.  A single block is
    returned as preprocess_series made it, without the copy.
    """
    shapes = {s.x.shape for s in samples}
    if len(shapes) != 1:
        raise ConfigurationError(
            f"dataset mixes sample shapes: {sorted(shapes)}")

    def block(samples):
        return preprocess_series(np.stack([s.x for s in samples]),
                                 [s.length for s in samples])

    if len(samples) <= EVAL_BLOCK:
        return block(samples)
    out = np.empty((len(samples),) + shapes.pop())
    for i in range(0, len(samples), EVAL_BLOCK):
        out[i:i + EVAL_BLOCK] = block(samples[i:i + EVAL_BLOCK])
    return out


def collect_dataset(env_id: str, n_episodes: int, seed: int = 0, *,
                    learners=None, lazy_prob: float = 0.5,
                    attempt_factor: int = 20, stats: dict = None):
    """Roll episodes and keep the winning ones.

    Uses greedy rollouts of the given learners, or the scripted policy
    (with a per-episode chance of each agent idling, which diversifies
    the ground-truth bits).  Attempt k rolls the env of seed k; the
    winners are kept in seed order up to the n_episodes-th, and only the
    attempts up to it count.  Greedy attempts roll in lockstep blocks of
    as many as wins are still needed, so the last winner ends a block;
    scripted ones roll one by one, as the policy draws from one generator
    across episodes.  Raises when the policy cannot win at all within
    attempt_factor * n_episodes attempts.  Pass a dict as stats to
    receive the attempt and win tallies.
    """
    if n_episodes == 0:
        if stats is not None:
            stats.update(attempts=0, wins=0)
        return []
    spec = env_spec(env_id)
    budget = attempt_factor * n_episodes
    seeds = np.random.SeedSequence(seed).generate_state(budget, np.uint64)
    policy = None if learners is not None else ScriptedPolicy(
        seed=seed, lazy_prob=lazy_prob)
    samples = []
    attempts = 0
    while len(samples) < n_episodes and attempts < budget:
        if learners is not None:
            block = seeds[attempts:attempts + n_episodes - len(samples)]
            envs = [make_env(env_id, int(s)) for s in block]
            episodes = collect_episodes(envs, team_policy(learners))
        else:
            block = seeds[attempts:attempts + 1]
            env = make_env(env_id, int(block[0]))
            policy.begin_episode(env)
            episodes = collect_episodes(
                [env], lambda obs, keep: policy.act(env)[None])
        attempts += len(block)
        for ep_seed, ep in zip(block, episodes):
            if ep.win:
                bits = episode_ground_truth_arrays(spec.family, ep.obs,
                                                   ep.rewards, ep.kinds)
                samples.append(episode_to_sample(ep, bits, int(ep_seed)))
    if stats is not None:
        stats.update(attempts=attempts, wins=len(samples))
    if not samples:
        raise CollectionError(
            f"no winning episodes in {attempts} attempts on {env_id} "
            f"(win rate 0.00)")
    return samples


def save_dataset(path, samples):
    """Persist samples in the deterministic checkpoint container; samples
    that check_dataset refuses are refused before anything is written."""
    # imported per call, so a patch of nn.checkpoint.save_checkpoint applies
    from camarl.nn.checkpoint import save_checkpoint

    samples = list(samples)
    if not samples:
        raise UsageError("refusing to save an empty dataset")
    env_id = check_dataset(samples)
    arrays = {}
    for k, s in enumerate(samples):
        arrays[f"x_{k}"] = s.x
        arrays[f"bits_{k}"] = s.bits.astype(np.float64)
    meta = {"kind": "dataset", "env_id": env_id,
            "n_samples": len(samples),
            "seeds": [int(s.seed) for s in samples],
            "lengths": [int(s.length) for s in samples]}
    save_checkpoint(path, arrays, meta)


def load_dataset(path):
    """Read samples back bit-exactly from save_dataset output; every
    header field and array it reads is checked first, each x_k against
    finite (N+1, T, D) whose observation nodes lie in [0, 1] and whose
    reward node is 0 past channel 0, and each bits_k against (N,) 0/1 of
    the header's env; check_dataset then refuses an x_k nonzero past the
    header's lengths[k]."""
    from camarl.nn.checkpoint import (
        check_fields, count, finite, ints, is_str, load_checkpoint)

    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "dataset":
        raise ConfigurationError(f"{path} is not a dataset file")
    n = check_fields(meta, {"env_id": is_str, "n_samples": count(0)},
                     path)["n_samples"]
    check_fields(meta, {"seeds": ints(n), "lengths": ints(n)}, path)
    spec = env_spec(meta["env_id"])
    N, T, D = spec.n_agents, spec.episode_len, spec.obs_dim

    def x_ok(a):
        return (a.shape == (N + 1, T, D) and finite(a)
                and 0.0 <= a[:N].min() and a[:N].max() <= 1.0
                and not a[N, :, 1:].any())

    def bits_ok(a):
        return a.shape == (N,) and np.isin(a, (0, 1)).all()

    checks = {}
    for k in range(n):
        checks[f"x_{k}"] = x_ok
        checks[f"bits_{k}"] = bits_ok
    check_fields(arrays, checks, path)
    samples = [SeriesSample(
        x=arrays[f"x_{k}"], env_id=meta["env_id"],
        bits=arrays[f"bits_{k}"].astype(np.uint8),
        seed=meta["seeds"][k], length=meta["lengths"][k]) for k in range(n)]
    if not samples:
        raise ConfigurationError(f"{path} holds no samples")
    check_dataset(samples)
    return samples


def split_dataset(samples, train_frac: float = 0.8, seed: int = 0):
    """Shuffled train/held-out split by episode; each side gets at least
    one sample."""
    if len(samples) < 2:
        raise UsageError(f"cannot split {len(samples)} samples into train "
                         f"and held-out sets; need at least 2")
    if not 0.0 < train_frac < 1.0:
        raise ConfigurationError("train fraction must lie in (0, 1)")
    order = np.random.default_rng(seed).permutation(len(samples))
    cut = max(1, min(len(samples) - 1, int(round(train_frac * len(samples)))))
    train = [samples[i] for i in order[:cut]]
    held = [samples[i] for i in order[cut:]]
    return train, held
