"""The episode record and the one rollout loop that fills it.

Training, greedy evaluation and dataset collection all roll episodes
through :func:`collect_episode`; they differ only in the joint-action
callable they pass and in what they read off the record.
"""

from dataclasses import dataclass

import numpy as np

from camarl.errors import ConfigurationError


@dataclass
class EpisodeRecord:
    """One complete episode, so its last step is the terminal one.

    obs[t] is the joint observation the agents acted on at step t;
    rewards[t] is the team reward produced by actions[t].  bits holds
    the per-agent causality mask decided at collection time so replayed
    targets never move; events counts the rewarded events each agent
    took part in over the episode.
    """

    env_id: str
    seed: int
    obs: np.ndarray        # (L, N, D) float64, float32 in the replay buffer
    actions: np.ndarray    # (L, N) int64
    rewards: np.ndarray    # (L,) float64
    kinds: np.ndarray      # (L,) int64 reward-kind tags
    bits: np.ndarray       # (L, N) uint8 causality bits
    win: bool
    events: np.ndarray     # (N,) int64 event participations

    @property
    def length(self) -> int:
        return self.obs.shape[0]

    @property
    def n_agents(self) -> int:
        return self.obs.shape[1]

    def validate(self):
        if self.obs.ndim != 3:
            raise ConfigurationError(
                f"observations must be (L, N, D), got shape {self.obs.shape}")
        L, n, _ = self.obs.shape
        if L == 0:
            raise ConfigurationError("empty episode")
        for name, shape in (("actions", (L, n)), ("rewards", (L,)),
                            ("kinds", (L,)), ("bits", (L, n)),
                            ("events", (n,))):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigurationError(
                    f"episode field {name} has shape {arr.shape}, "
                    f"expected {shape}")
        b = np.unique(self.bits)
        if not np.isin(b, (0, 1)).all():
            raise ConfigurationError(f"causality bits must be binary, got {b}")
        return self


def collect_episode(env, act) -> EpisodeRecord:
    """Roll env to the end of its episode; act(obs) gives the (N,) actions.

    obs is the (N, D) observation the environment built for the step.
    Causality bits are left at one for the caller to decide.
    """
    obs = env._obs()
    obs_l, act_l, rew_l, kind_l = [], [], [], []
    events = np.zeros(obs.shape[0], dtype=np.int64)
    while True:
        acts = act(obs)
        res = env.step(acts)
        obs_l.append(obs)
        act_l.append(acts)
        rew_l.append(res.reward)
        kind_l.append(res.kind)
        events += res.events
        obs = res.obs
        if res.done:
            break
    L, n = len(obs_l), obs.shape[0]
    return EpisodeRecord(
        env_id=env.spec.env_id, seed=-1,
        obs=np.array(obs_l), actions=np.array(act_l),
        rewards=np.asarray(rew_l), kinds=np.asarray(kind_l, dtype=np.int64),
        bits=np.ones((L, n), dtype=np.uint8), win=res.win, events=events)
