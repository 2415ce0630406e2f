"""The episode record and the one rollout loop that fills it.

Training, greedy evaluation and dataset collection all roll episodes
through :func:`collect_episodes`; they differ only in the joint-action
callable they pass, in how many environments step in lockstep, and in
what they read off the records.
"""

from dataclasses import dataclass

import numpy as np

from camarl.envs import make_batch


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

    One env steps on its own; more step as one ``EnvBatch``, which leaves
    the env objects spent (their state no longer advances).
    """
    one = len(envs) == 1
    env = envs[0] if one else make_batch(envs)
    obs = env._obs()[None] if one else env._obs()
    ids = np.arange(len(envs))   # the env of each row
    steps = []
    keep = None
    while True:
        acts = act(obs, keep)
        res = env.step(acts[0] if one else acts)
        steps.append((ids, obs, acts, res))
        if one:
            if res.done:
                break
            obs = res.obs[None]
        elif res.done.any():
            keep = np.flatnonzero(~res.done)
            if not keep.size:
                break
            ids, obs = ids[keep], res.obs
        else:
            keep, obs = None, res.obs
    return _records(envs, steps)


def _records(envs, steps):
    """One record per env from the (ids, obs, actions, result) of each
    step, whose rows ids names the envs of."""
    ids, obs, acts, results = zip(*steps)
    # one env's results hold scalars and (N,) events, a batch's hold rows
    join = np.array if len(envs) == 1 else np.concatenate
    fields = (np.concatenate(obs), np.concatenate(acts),
              join([r.reward for r in results]),
              join([r.kind for r in results], dtype=np.int64),
              join([r.win for r in results]),
              join([r.events for r in results]))
    if len(envs) == 1:
        per_env = [fields]
    else:   # gather each env's rows, in step order
        ids = np.concatenate(ids)
        order = np.argsort(ids, kind="stable")
        ends = np.cumsum(np.bincount(ids))[:-1]
        per_env = zip(*(np.split(f[order], ends) for f in fields))
    return [EpisodeRecord(
        env_id=env.spec.env_id, obs=o, actions=a, rewards=r, kinds=k,
        win=bool(w[-1]), events=e.sum(axis=0, dtype=np.int64))
        for env, (o, a, r, k, w, e) in zip(envs, per_env)]


def collect_episode(env, act) -> EpisodeRecord:
    """One episode: collect_episodes([env], act), so act sees (1, N, D)."""
    return collect_episodes([env], act)[0]
