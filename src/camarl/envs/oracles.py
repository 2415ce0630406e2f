"""Ground-truth causality predicates computed from agent observations.

Each oracle answers: did agent i plausibly contribute to this reward?
The inputs are the agent's observation from the moment before the reward
landed plus the reward itself (and, for skirmish, whether the reward was
an intermediate damage payout or the win bonus).

The tree-level test in the lumberjacks predicate needs no agent count:
both the visible-agent sum and the stored tree levels are scaled by 1/N,
so the comparison cancels it.
"""

import numpy as np

from camarl.envs import core

_EPS = 1e-9


def causal_oracle_pp(prev_obs_i, reward) -> int:
    """1 iff the reward is positive and a prey was visible beforehand."""
    if reward <= 0.0:
        return 0
    mask = np.asarray(prev_obs_i)[core.TARGET_OFF:core.AGENT_OFF]
    return int((mask > 0.0).any())


def causal_oracle_lj(prev_obs_i, reward) -> int:
    """1 iff reward positive, a tree visible, and enough visible agents
    (self included) to meet the level of at least one visible tree."""
    if reward <= 0.0:
        return 0
    o = np.asarray(prev_obs_i)
    trees = o[core.TARGET_OFF:core.AGENT_OFF]
    visible = trees[trees > 0.0]
    if visible.size == 0:
        return 0
    seen_share = o[core.AGENT_OFF:core.STATUS_OFF].sum()
    return int((visible <= seen_share + _EPS).any())


def causal_oracle_sk(prev_obs_i, reward_kind, reward) -> int:
    """Win rewards credit everyone; intermediate rewards need an enemy in
    sight range beforehand; everything else is 0."""
    if reward_kind == core.KIND_WIN:
        return 1
    if reward_kind != core.KIND_INTERMEDIATE or reward <= 0.0:
        return 0
    mask = np.asarray(prev_obs_i)[core.TARGET_OFF:core.AGENT_OFF]
    return int((mask > 0.0).any())


def oracle_bits_for_step(family, prev_obs, reward, kind) -> np.ndarray:
    """Vector of per-agent oracle bits for one step; prev_obs is (N, D)."""
    prev_obs = np.asarray(prev_obs)
    n = prev_obs.shape[0]
    bits = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        if family == "pp":
            bits[i] = causal_oracle_pp(prev_obs[i], reward)
        elif family == "lj":
            bits[i] = causal_oracle_lj(prev_obs[i], reward)
        else:
            bits[i] = causal_oracle_sk(prev_obs[i], kind, reward)
    return bits


def episode_ground_truth_arrays(family, obs, rewards, kinds) -> np.ndarray:
    """Per-episode bits: agent i gets 1 iff its per-timestep oracle fired
    at any positively-rewarded step.  obs[t] is the observation before
    action t; rewards[t] and kinds[t] describe what that action caused."""
    obs = np.asarray(obs)
    n = obs.shape[1]
    bits = np.zeros(n, dtype=np.uint8)
    for t in range(len(rewards)):
        if rewards[t] <= 0.0:
            continue
        step = oracle_bits_for_step(family, obs[t], float(rewards[t]),
                                    int(kinds[t]))
        bits |= step
    return bits
