"""The episode record and the one rollout loop that fills it.

Training, greedy evaluation and dataset collection all roll episodes
through :func:`collect_episodes`; they differ only in the joint-action
callable they pass, in how many environments step in lockstep, and in
what they read off the records.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class EpisodeRecord:
    """One complete episode, so its last step is the terminal one.

    obs[t] is the joint observation the agents acted on at step t;
    rewards[t] is the team reward produced by actions[t]; events counts
    the rewarded events each agent took part in over the episode.  The
    causality bits that mask the rewards are the trainer's to decide.
    """

    env_id: str
    obs: np.ndarray        # (L, N, D) float64; training casts to float32
    actions: np.ndarray    # (L, N) int64
    rewards: np.ndarray    # (L,) float64
    kinds: np.ndarray      # (L,) int64 reward-kind tags
    win: bool
    events: np.ndarray     # (N,) int64 event participations

    @property
    def length(self) -> int:
        return self.obs.shape[0]

    @property
    def n_agents(self) -> int:
        return self.obs.shape[1]


def collect_episodes(envs, act) -> list:
    """Roll every env to the end of its episode in lockstep.

    act(obs, keep) maps the (E, N, D) observations of the E envs still
    running, one row each in env order, to (E, N) actions.  keep is None
    when no env finished since the last call; otherwise it lists the rows
    of the last call whose envs still run, and act drops the state of
    the others.  A single env never shows act a keep.  Returns one record
    per env, in env order.
    """
    cur = [env._obs() for env in envs]
    obs = np.stack(cur)
    trails = [[] for _ in envs]
    running = list(range(len(envs)))
    keep = None
    while running:
        acts = act(obs, keep)
        keep = []
        for row, k in enumerate(running):
            a = acts[row]
            res = envs[k].step(a)
            trails[k].append((cur[k], a, res))
            if not res.done:
                cur[k] = obs[row] = res.obs
                keep.append(row)
        if len(keep) == len(running):
            keep = None
        else:
            running = [running[row] for row in keep]
            if running:   # the last step of the last env compacts nothing
                obs = obs[keep]
    return [_record(env, trail) for env, trail in zip(envs, trails)]


def _record(env, trail):
    obs, acts, results = zip(*trail)
    return EpisodeRecord(
        env_id=env.spec.env_id, obs=np.array(obs), actions=np.array(acts),
        rewards=np.array([r.reward for r in results]),
        kinds=np.array([r.kind for r in results], dtype=np.int64),
        win=results[-1].win,
        events=np.sum([r.events for r in results], axis=0, dtype=np.int64))


def collect_episode(env, act) -> EpisodeRecord:
    """One episode: collect_episodes([env], act), so act sees (1, N, D)."""
    return collect_episodes([env], act)[0]
