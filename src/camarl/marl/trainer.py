"""Rollout/learn loop for the three trainers.

idql      independent Q-learning on the raw team reward
icl       per-timestep oracle causality bits mask positive rewards
acd-marl  per-episode bits from a trained causal encoder

Collection, masking, replay, gradient steps, target syncs, and greedy
evaluations all draw from seed streams spawned off one root seed, so a
run is reproducible bit for bit.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import camarl
from camarl.envs import env_spec, make_env, oracle_bits
from camarl.errors import ConfigurationError
from camarl.marl.agent import AgentLearner, team_policy
from camarl.marl.episode import EpisodeRecord, collect_episode
from camarl.marl.evaluate import evaluate
from camarl.marl.masking import (
    MODE_ALWAYS_ONE, MODE_PER_EPISODE, MODE_PER_TIMESTEP, masked_rewards)
from camarl.marl.replay import ReplayBuffer
from camarl.marl.schedule import epsilon_at

TRAINERS = ("idql", "icl", "acd-marl")


@dataclass
class TrainConfig:
    env_id: str
    trainer: str
    seed: int = 0
    total_steps: int = 200_000
    eval_interval: int = 10_000
    eval_episodes: int = 20
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_anneal_episodes: int = 50_000
    target_sync: int = 200
    batch_size: int = 32
    buffer_capacity: int = 5000
    lr: float = 5e-4
    grad_clip: float = 10.0
    n_hidden: int = 64
    strict_mask: bool = False

    def validate(self):
        env_spec(self.env_id)
        if self.trainer not in TRAINERS:
            raise ConfigurationError(
                f"unknown trainer {self.trainer!r}; choose from {TRAINERS}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must lie in (0, 1]")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ConfigurationError("epsilon schedule must fall within [0, 1]")
        if self.batch_size < 1 or self.batch_size > 32:
            raise ConfigurationError("batch size must lie in [1, 32]")
        if min(self.total_steps, self.eval_interval, self.eval_episodes,
               self.target_sync, self.buffer_capacity,
               self.epsilon_anneal_episodes, self.n_hidden) < 1:
            raise ConfigurationError("counts and intervals must be positive")
        if self.lr <= 0 or self.grad_clip <= 0:
            raise ConfigurationError("lr and grad clip must be positive")
        return self


@dataclass
class TrainResult:
    config: TrainConfig
    learners: list
    rows: list = field(default_factory=list)
    episodes: int = 0
    steps: int = 0


def oracle_episode_bits(episode: EpisodeRecord) -> np.ndarray:
    """Per-timestep ground-truth bits, (L, N) uint8."""
    return oracle_bits(env_spec(episode.env_id).family, episode.obs,
                       episode.rewards, episode.kinds)


def build_batch(episodes, agent_index, n_actions, obs_dim, strict_mask):
    """Per-agent training arrays from a list of episodes.

    Returns X (T, B, obs+act), actions (T, B), masked rewards (T, B),
    valid (T, B), terminal (T, B), padded to the longest episode.
    """
    B = len(episodes)
    lengths = np.array([ep.length for ep in episodes])
    T = int(lengths.max())
    n_in = obs_dim + n_actions
    X = np.zeros((T, B, n_in))
    actions = np.zeros((T, B), dtype=np.int64)
    rewards = np.zeros((T, B))
    valid = np.zeros((T, B))
    for b, ep in enumerate(episodes):
        L = ep.length
        X[:L, b, :obs_dim] = ep.obs[:, agent_index]
        a = ep.actions[:, agent_index]
        X[np.arange(1, L), b, obs_dim + a[:-1]] = 1.0
        actions[:L, b] = a
        rewards[:L, b] = masked_rewards(ep.rewards, ep.bits, strict_mask)[
            :, agent_index]
        valid[:L, b] = 1.0
    terminal = np.zeros((T, B))
    terminal[lengths - 1, np.arange(B)] = 1.0
    return X, actions, rewards, valid, terminal


def train(config: TrainConfig, *, bits_fn=None, out_dir=None,
          progress=None) -> TrainResult:
    """Run the full training loop for one seed.

    bits_fn overrides the trainer's causality source: for icl it maps an
    episode to per-timestep bits (L, N); for acd-marl it is required and
    maps an episode to per-episode bits (N,) or (L, N).  Bits of any
    other shape raise ConfigurationError.
    """
    config.validate()
    spec = env_spec(config.env_id)
    n, obs_dim, n_actions = spec.n_agents, spec.obs_dim, spec.n_actions

    if config.trainer == "acd-marl":
        if bits_fn is None:
            raise ConfigurationError("acd-marl requires a trained encoder")
        n_nodes = getattr(bits_fn, "n_nodes", None)
        if n_nodes is not None and n_nodes != n + 1:
            raise ConfigurationError(
                f"encoder was trained for {n_nodes} nodes, environment "
                f"{config.env_id} needs {n + 1}")

    root = np.random.SeedSequence(config.seed)
    ss_agents, ss_env, ss_explore, ss_sample, ss_eval = root.spawn(5)
    agent_seeds = ss_agents.spawn(n)
    learners = [AgentLearner(obs_dim, n_actions, config.n_hidden,
                             seed=agent_seeds[i], lr=config.lr,
                             grad_clip=config.grad_clip) for i in range(n)]
    env_seed_rng = np.random.default_rng(ss_env)
    rng_explore = np.random.default_rng(ss_explore)
    rng_sample = np.random.default_rng(ss_sample)
    max_evals = config.total_steps // config.eval_interval + 2
    eval_seeds = ss_eval.generate_state(max_evals)

    buffer = ReplayBuffer(config.buffer_capacity)
    result = TrainResult(config=config, learners=learners)
    step = 0
    episode_idx = 0
    next_eval = 0
    eval_idx = 0

    def run_eval(step_label):
        # rows carry the scheduled checkpoint, not the raw step count,
        # so different seeds log a shared evaluation grid
        nonlocal eval_idx
        s = evaluate(learners, config.env_id, config.eval_episodes,
                     int(eval_seeds[eval_idx]))
        eval_idx += 1
        eps_now = epsilon_at(episode_idx, config.epsilon_start,
                             config.epsilon_end,
                             config.epsilon_anneal_episodes)
        row = {"step": int(step_label), "episode": episode_idx,
               "eval_return_mean": s.mean_return,
               "eval_return_ci95": s.ci95, "win_rate": s.win_rate,
               "epsilon": eps_now}
        for i in range(n):
            row[f"event_count_agent_{i}"] = float(s.per_agent_events[i])
        result.rows.append(row)
        if progress is not None:
            progress(row)
        return row

    while step < config.total_steps:
        while next_eval <= step:
            run_eval(next_eval)
            next_eval += config.eval_interval
        eps = epsilon_at(episode_idx, config.epsilon_start,
                         config.epsilon_end, config.epsilon_anneal_episodes)
        env = make_env(config.env_id, int(env_seed_rng.integers(2 ** 63)))
        ep = collect_episode(env, team_policy(learners, eps, rng_explore))
        # replay stores float32 observations; bits are computed from them
        ep.obs = ep.obs.astype(np.float32)
        ep.bits = _episode_bits(config.trainer, ep, bits_fn)
        ep.validate()
        buffer.push(ep)
        step += ep.length
        episode_idx += 1

        batch = buffer.sample(config.batch_size, rng_sample)
        for i, ln in enumerate(learners):
            X, acts, rews, valid, terminal = build_batch(
                batch, i, n_actions, obs_dim, config.strict_mask)
            ln.train_step(X, acts, rews, valid, terminal, config.gamma)
        if episode_idx % config.target_sync == 0:
            for ln in learners:
                ln.sync_target()

    run_eval(config.total_steps)
    result.episodes = episode_idx
    result.steps = step
    if out_dir is not None:
        save_run(Path(out_dir), config, result)
    return result


def _episode_bits(trainer, ep, bits_fn):
    if trainer == "idql":
        return np.ones((ep.length, ep.n_agents), dtype=np.uint8)
    if trainer == "icl":
        fn = bits_fn if bits_fn is not None else oracle_episode_bits
        return np.asarray(fn(ep), dtype=np.uint8)
    bits = np.asarray(bits_fn(ep), dtype=np.uint8)
    if bits.ndim == 1:
        bits = np.tile(bits, (ep.length, 1))
    return bits


def mask_mode(trainer: str) -> str:
    return {"idql": MODE_ALWAYS_ONE, "icl": MODE_PER_TIMESTEP,
            "acd-marl": MODE_PER_EPISODE}[trainer]


# -- persistence -------------------------------------------------------------

CSV_FIELDS = ("step", "episode", "eval_return_mean", "eval_return_ci95",
              "win_rate", "epsilon")


def write_log(path, rows, n_agents):
    from camarl.nn.checkpoint import write_csv

    fields = list(CSV_FIELDS) + [f"event_count_agent_{i}"
                                 for i in range(n_agents)]
    write_csv(path, fields, ([row[k] for k in fields] for row in rows))


def save_run(out_dir: Path, config: TrainConfig, result: TrainResult):
    from camarl.nn.checkpoint import save_checkpoint, write_json

    out_dir.mkdir(parents=True, exist_ok=True)
    spec = env_spec(config.env_id)
    write_log(out_dir / "train_log.csv", result.rows, spec.n_agents)
    files = []
    for i, ln in enumerate(result.learners):
        name = f"agent_{i}.ckpt"
        # agent checkpoints describe the learned weights only; the
        # trainer that produced them is run-level metadata (run.json),
        # and two trainers that perform identical updates must emit
        # identical checkpoint files
        save_checkpoint(out_dir / name, ln.state_arrays(),
                        {"agent": i, "env_id": config.env_id,
                         "steps": result.steps,
                         "episodes": result.episodes})
        files.append(name)
    meta = {"env_id": config.env_id, "trainer": config.trainer,
            "seed": config.seed, "steps": result.steps,
            "episodes": result.episodes, "agents": files,
            "n_hidden": config.n_hidden,
            "mask_mode": mask_mode(config.trainer),
            "substrate_version": camarl.SUBSTRATE_VERSION}
    write_json(out_dir / "run.json", meta)


def load_learners(run_dir):
    """Rebuild learners from a saved run directory."""
    from camarl.nn.checkpoint import load_checkpoint, read_json

    run_dir = Path(run_dir)
    meta = read_json(run_dir / "run.json")
    spec = env_spec(meta["env_id"])
    learners = []
    for i, name in enumerate(meta["agents"]):
        arrays, _ = load_checkpoint(run_dir / name)
        ln = AgentLearner(spec.obs_dim, spec.n_actions, meta["n_hidden"],
                          seed=i)
        ln.load_state(arrays)
        learners.append(ln)
    return learners, meta
