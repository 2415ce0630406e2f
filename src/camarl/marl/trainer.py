"""Rollout/learn loop of the three trainers: schedule, masks, run files.

idql      independent Q-learning on the raw team reward
icl       per-timestep oracle causality bits mask positive rewards
acd-marl  per-episode bits from a trained causal encoder

Collection, masking, replay, gradient steps, target syncs, and greedy
evaluations all draw from seed streams spawned off one root seed, so a
run is reproducible bit for bit.
"""

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import camarl
from camarl.envs import env_spec, make_env, oracle_bits
from camarl.errors import ConfigurationError, UsageError
from camarl.marl.agent import AgentLearner, team_policy
from camarl.marl.episode import EpisodeRecord, collect_episode
from camarl.marl.evaluate import evaluate
from camarl.marl.replay import ReplayBuffer
from camarl.nn.checkpoint import number

# each trainer and run.json's name for its bits (module docstring)
TRAINERS = {"idql": "always_one", "icl": "per_timestep",
            "acd-marl": "per_episode"}


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
        for f in fields(self):
            value = getattr(self, f.name)
            # a float field takes a finite float or int; a bool is no int
            if not (number(value) if f.type is float
                    else type(value) is f.type):
                raise ConfigurationError(
                    f"{f.name} must be a {f.type.__name__}, got {value!r}")
        env_spec(self.env_id)
        if self.trainer not in TRAINERS:
            raise ConfigurationError(f"unknown trainer {self.trainer!r}; "
                                     f"choose from {tuple(TRAINERS)}")
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
    """A run's team and progress, advanced in place by train: the steps
    and episodes collected so far, and rows[k] the log of evaluation k,
    which read eval seed k."""
    config: TrainConfig
    learners: AgentLearner   # the team; learners[i] is agent i
    rows: list = field(default_factory=list)
    episodes: int = 0
    steps: int = 0


def oracle_episode_bits(episode: EpisodeRecord) -> np.ndarray:
    """Per-timestep ground-truth bits, (L, N) uint8."""
    return oracle_bits(env_spec(episode.env_id).family, episode.obs,
                       episode.rewards, episode.kinds)


def epsilon_at(episode_index: int, start: float, end: float,
               anneal_episodes: int) -> float:
    """Linear anneal from start to end over anneal_episodes, clamped after."""
    if episode_index < 0:
        raise UsageError("episode index must be nonnegative")
    if episode_index >= anneal_episodes:
        return end
    frac = episode_index / anneal_episodes
    return start + (end - start) * frac


def masked_rewards(rewards, bits, strict: bool):
    """rewards (L,) masked by bits (L, N) or (N,): (L, N) float64.

    The plain mask covers only positive rewards: a zeroed-out agent still
    feels the step penalty, which keeps the dense learning signal alive.
    The strict variant applies the multiplicative mask to every reward.
    """
    r = np.asarray(rewards, dtype=np.float64)[:, None]
    b = np.asarray(bits, dtype=np.float64)
    if strict:
        return b * r
    return np.where(r > 0, b * r, r)


def build_batch(episodes, team):
    """The team's packed batch from replayed (obs, actions, masked rewards).

    Orders the episodes longest first, ties in sampled order, so that
    step t of the update runs on the row prefix of the episodes longer
    than t.  Returns X (N, T, B, obs+act) built by team.inputs, actions
    and masked rewards (N, T, B), zero-padded to the longest episode, and
    the (B,) lengths.
    """
    lengths = np.array([len(a) for _, a, _ in episodes])
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    B, T = len(episodes), int(lengths[0])
    n, D = episodes[0][0].shape[1:]
    obs = np.zeros((n, T, B, D), dtype=np.float32)
    prev = np.full((n, T, B), -1)
    actions = np.zeros((n, T, B), dtype=np.int64)
    rewards = np.zeros((n, T, B))
    for b, i in enumerate(order):
        o, a, r = episodes[i]
        L = len(a)
        obs[:, :L, b] = o.swapaxes(0, 1)
        actions[:, :L, b] = a.T
        prev[:, 1:L, b] = a[:-1].T
        rewards[:, :L, b] = r.T
    return team.inputs(obs, prev), actions, rewards, lengths


def train(config: TrainConfig, *, bits_fn=None, out_dir=None,
          progress=None) -> TrainResult:
    """Run the full training loop for one seed.

    idql trains on all-one bits and icl on the oracle's (L, N) bits.
    acd-marl requires bits_fn, which maps an episode to its per-episode
    bits (N,); bits of another shape, or other than 0 and 1, raise
    ConfigurationError.  Only acd-marl reads bits_fn.

    The loop's whole state is the result, the replay buffer and the env
    seed, exploration and replay generators.  Evaluation k reads eval
    seed k and is logged at step grid[k] of the grid 0, eval_interval,
    ... below total_steps, then total_steps; it runs before the next
    episode once result.steps reaches grid[k], so every seed of a config
    logs the same steps.
    """
    config.validate()
    spec = env_spec(config.env_id)
    n, obs_dim, n_actions = spec.n_agents, spec.obs_dim, spec.n_actions

    if config.trainer == "acd-marl" and bits_fn is None:
        raise ConfigurationError("acd-marl requires a trained encoder")

    root = np.random.SeedSequence(config.seed)
    ss_agents, ss_env, ss_explore, ss_sample, ss_eval = root.spawn(5)
    agent_seeds = ss_agents.spawn(n)
    team = AgentLearner(obs_dim, n_actions, config.n_hidden,
                        seed=agent_seeds, lr=config.lr,
                        grad_clip=config.grad_clip)
    env_seed_rng = np.random.default_rng(ss_env)
    rng_explore = np.random.default_rng(ss_explore)
    rng_sample = np.random.default_rng(ss_sample)
    grid = [*range(0, config.total_steps, config.eval_interval),
            config.total_steps]
    eval_seeds = ss_eval.generate_state(len(grid))

    buffer = ReplayBuffer(config.buffer_capacity)
    result = TrainResult(config=config, learners=team)

    while len(result.rows) < len(grid):
        k = len(result.rows)
        eps = epsilon_at(result.episodes, config.epsilon_start,
                         config.epsilon_end, config.epsilon_anneal_episodes)
        if grid[k] <= result.steps:
            s = evaluate(team, config.env_id, config.eval_episodes,
                         int(eval_seeds[k]))
            row = {"step": grid[k], "episode": result.episodes,
                   "eval_return_mean": s.mean_return,
                   "eval_return_ci95": s.ci95, "win_rate": s.win_rate,
                   "epsilon": eps}
            row.update(zip(event_fields(n), map(float, s.per_agent_events)))
            result.rows.append(row)
            if progress is not None:
                progress(row)
            continue
        env = make_env(config.env_id, int(env_seed_rng.integers(2 ** 63)))
        ep = collect_episode(env, team_policy(team, eps, rng_explore))
        # replay keeps what training reads: the float32 observations the
        # bits are decided on, the actions, and the rewards masked once
        ep.obs = ep.obs.astype(np.float32)
        bits = _episode_bits(config.trainer, ep, bits_fn)
        buffer.push((ep.obs, ep.actions,
                     masked_rewards(ep.rewards, bits, config.strict_mask)))
        result.steps += ep.length
        result.episodes += 1

        batch = buffer.sample(config.batch_size, rng_sample)
        team.train_step(*build_batch(batch, team), config.gamma)
        if result.episodes % config.target_sync == 0:
            team.sync_target()

    if out_dir is not None:
        save_run(Path(out_dir), result)
    return result


def _episode_bits(trainer, ep, bits_fn):
    """The episode's causality bits: (L, N) for idql and icl, the
    checked (N,) of bits_fn for acd-marl; see train."""
    if trainer == "idql":
        return np.ones((ep.length, ep.n_agents), dtype=np.uint8)
    if trainer == "icl":
        return oracle_episode_bits(ep)
    bits = np.asarray(bits_fn(ep))
    if bits.shape != (ep.n_agents,):
        raise ConfigurationError(f"acd-marl bits has shape {bits.shape}, "
                                 f"expected {(ep.n_agents,)}")
    if not np.isin(bits, (0, 1)).all():
        raise ConfigurationError(
            f"causality bits must be 0 or 1, got {np.unique(bits)}")
    return bits


# -- persistence -------------------------------------------------------------

CSV_FIELDS = ("step", "episode", "eval_return_mean", "eval_return_ci95",
              "win_rate", "epsilon")


def event_fields(n_agents):
    """The log columns of each agent's mean event count."""
    return [f"event_count_agent_{i}" for i in range(n_agents)]


def write_log(path, rows, n_agents):
    from camarl.nn.checkpoint import write_csv

    fields = list(CSV_FIELDS) + event_fields(n_agents)
    write_csv(path, fields, ([row[k] for k in fields] for row in rows))


def read_log(path, n_agents):
    """Parse a training log CSV back into typed row dicts; it must hold
    every column write_log writes for a team of n_agents."""
    from camarl.nn.checkpoint import check_fields, is_str, read_csv

    raw = read_csv(path)
    if not raw:
        raise UsageError(f"log {path} is empty")
    check_fields(raw[0], dict.fromkeys(
        list(CSV_FIELDS) + event_fields(n_agents), is_str), f"log {path}")
    try:
        rows = [{k: int(v) if k in ("step", "episode") else float(v)
                 for k, v in r.items()} for r in raw]
    except (TypeError, ValueError) as err:
        raise ConfigurationError(
            f"log {path} has a non-numeric cell: {err}") from None
    if not np.isfinite([list(r.values()) for r in rows]).all():
        raise ConfigurationError(f"log {path} has a non-finite cell")
    return rows


def save_run(out_dir: Path, result: TrainResult):
    """Write result's log, agent checkpoints and run.json into out_dir."""
    # imported per call, so a patch of nn.checkpoint.save_checkpoint applies
    from camarl.nn.checkpoint import save_checkpoint, write_json

    config = result.config
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
            "mask_mode": TRAINERS[config.trainer],
            "substrate_version": camarl.SUBSTRATE_VERSION}
    write_json(out_dir / "run.json", meta)


def read_run(run_dir):
    """The run.json of a saved run, each field the package reads checked."""
    from camarl.nn.checkpoint import (
        check_fields, count, is_str, read_json, strings)

    path = Path(run_dir) / "run.json"
    return check_fields(read_json(path), {
        "env_id": is_str, "trainer": is_str, "agents": strings,
        "n_hidden": count(1)}, path)


def load_learners(run_dir):
    """Rebuild the team of a saved run; read_run reads its run.json."""
    from camarl.nn.checkpoint import load_checkpoint

    run_dir = Path(run_dir)
    meta = read_run(run_dir)
    spec = env_spec(meta["env_id"])
    names = meta["agents"]
    team = AgentLearner(spec.obs_dim, spec.n_actions, meta["n_hidden"],
                        seed=list(range(len(names))))
    for ln, name in zip(team, names):
        ln.load_state(load_checkpoint(run_dir / name)[0])
    return team
