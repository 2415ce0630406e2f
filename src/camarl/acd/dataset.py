"""Winning-episode dataset for causal discovery.

Each sample stacks the per-agent observation series and the team reward
series as nodes [o_1, ..., o_N, r], reward padded to the common feature
width, the whole series zero-padded to the environment's nominal length.
"""

from dataclasses import dataclass

import numpy as np

from camarl.envs import env_spec, make_env
from camarl.envs.oracles import episode_ground_truth_arrays
from camarl.envs.scripted import ScriptedPolicy
from camarl.errors import CollectionError, ConfigurationError, UsageError
from camarl.acd.preprocess import preprocess_series
from camarl.marl.agent import team_policy
from camarl.marl.episode import EpisodeRecord, collect_episode


@dataclass
class SeriesSample:
    x: np.ndarray            # (N+1, T, D) node series, reward last
    env_id: str
    bits: np.ndarray         # (N,) ground-truth causality bits
    seed: int = -1
    length: int = 0          # true episode length before padding

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]


def episode_to_sample(episode: EpisodeRecord, bits) -> SeriesSample:
    """Stack an episode's observations and rewards as node series."""
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
                        seed=episode.seed, length=L)


def preprocess(sample: SeriesSample) -> SeriesSample:
    """Smoothed observations, normalized reward; see preprocess_series."""
    return SeriesSample(x=preprocess_series(sample.x), env_id=sample.env_id,
                        bits=sample.bits, seed=sample.seed,
                        length=sample.length)


def collect_dataset(env_id: str, n_episodes: int, seed: int = 0, *,
                    learners=None, lazy_prob: float = 0.5,
                    attempt_factor: int = 20, stats: dict = None):
    """Roll episodes and keep the winning ones.

    Uses greedy rollouts of the given learners, or the scripted policy
    (with a per-episode chance of each agent idling, which diversifies
    the ground-truth bits).  Raises when the policy cannot win at all
    within attempt_factor * n_episodes attempts.  Pass a dict as stats
    to receive the attempt and win tallies.
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
    for ep_seed in seeds:
        if len(samples) >= n_episodes:
            break
        env = make_env(env_id, int(ep_seed))
        attempts += 1
        if learners is not None:
            ep = collect_episode(env, team_policy(learners))
        else:
            policy.begin_episode(env)
            ep = collect_episode(env, lambda obs: policy.act(env)[None])
        if not ep.win:
            continue
        ep.seed = int(ep_seed)
        bits = episode_ground_truth_arrays(spec.family, ep.obs, ep.rewards,
                                           ep.kinds)
        samples.append(episode_to_sample(ep, bits))
    if stats is not None:
        stats.update(attempts=attempts, wins=len(samples))
    if not samples:
        raise CollectionError(
            f"no winning episodes in {attempts} attempts on {env_id} "
            f"(win rate 0.00)")
    return samples


def save_dataset(path, samples):
    """Persist samples in the deterministic checkpoint container."""
    from camarl.nn.checkpoint import save_checkpoint

    samples = list(samples)
    if not samples:
        raise UsageError("refusing to save an empty dataset")
    env_ids = sorted({s.env_id for s in samples})
    if len(env_ids) > 1:
        raise ConfigurationError(
            f"dataset mixes environments: {', '.join(env_ids)}")
    arrays = {}
    for k, s in enumerate(samples):
        arrays[f"x_{k}"] = s.x
        arrays[f"bits_{k}"] = s.bits.astype(np.float64)
    meta = {"kind": "dataset", "env_id": env_ids[0],
            "n_samples": len(samples),
            "seeds": [int(s.seed) for s in samples],
            "lengths": [int(s.length) for s in samples]}
    save_checkpoint(path, arrays, meta)


def load_dataset(path):
    """Read samples back bit-exactly from save_dataset output."""
    from camarl.nn.checkpoint import load_checkpoint

    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "dataset":
        raise ConfigurationError(f"{path} is not a dataset file")
    out = []
    for k in range(meta["n_samples"]):
        out.append(SeriesSample(
            x=arrays[f"x_{k}"], env_id=meta["env_id"],
            bits=arrays[f"bits_{k}"].astype(np.uint8),
            seed=meta["seeds"][k], length=meta["lengths"][k]))
    return out


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
