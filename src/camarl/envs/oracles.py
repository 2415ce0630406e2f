"""Ground-truth causality bits computed from agent observations.

The oracle answers, for every step t and agent i of an episode: did i
plausibly contribute to the reward of step t, judged from i's observation
before the reward landed?

  pp  the reward is positive and a prey was visible
  lj  the reward is positive and a visible tree's level was at most the
      number of visible agents (self included)
  sk  a win credits everyone; an intermediate reward needs an enemy in
      sight range

The tree-level test needs no agent count: both the visible-agent sum and
the stored tree levels are scaled by 1/N, so the comparison cancels it.
"""

import numpy as np

from camarl.envs import core

_EPS = 1e-9


def oracle_bits(family, obs, rewards, kinds) -> np.ndarray:
    """Per-step, per-agent oracle bits, (L, N) uint8.

    obs (L, N, D) holds the observation before action t at row t;
    rewards[t] and kinds[t] describe what that action caused.
    """
    obs = np.asarray(obs, dtype=np.float64)
    rewards = np.asarray(rewards)[:, None]
    kinds = np.asarray(kinds)[:, None]
    targets = obs[:, :, core.TARGET_OFF:core.AGENT_OFF]
    seen = targets > 0.0
    if family == "lj":
        share = obs[:, :, core.AGENT_OFF:core.STATUS_OFF].sum(axis=2)
        seen &= targets <= share[:, :, None] + _EPS
    bits = seen.any(axis=2) & (rewards > 0.0)
    if family == "sk":
        bits = (bits & (kinds == core.KIND_INTERMEDIATE)) \
            | (kinds == core.KIND_WIN)
    return bits.astype(np.uint8)


def episode_ground_truth_arrays(family, obs, rewards, kinds) -> np.ndarray:
    """Per-episode bits (N,): agent i gets 1 iff its per-step oracle fired
    at any positively-rewarded step."""
    pos = np.asarray(rewards) > 0.0
    bits = oracle_bits(family, np.asarray(obs)[pos], np.asarray(rewards)[pos],
                       np.asarray(kinds)[pos])
    return bits.any(axis=0).astype(np.uint8)
