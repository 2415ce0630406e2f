"""Hand-written rollout policy for dataset collection.

The scripted policy walks each agent toward the nearest reward-bearing
entity and triggers it (wait beside preys, stand on trees, shoot
enemies).  A laziness probability marks agents at episode start to act
uniformly at random for the whole episode instead; mixing lazy and
active agents is what gives collected datasets varied ground-truth
causality bits.
"""

import numpy as np

from camarl.envs import core


def _toward(src, dst):
    """Move action reducing the gap along the axis with the larger gap."""
    dr = int(dst[0]) - int(src[0])
    dc = int(dst[1]) - int(src[1])
    if dr == 0 and dc == 0:
        return core.A_STAY
    if abs(dr) >= abs(dc):
        return 0 if dr < 0 else 1
    return 2 if dc < 0 else 3


class ScriptedPolicy:
    """Greedy task policy with per-episode lazy agents."""

    def __init__(self, seed, lazy_prob=0.5):
        self.rng = np.random.default_rng(seed)
        self.lazy_prob = lazy_prob
        self.lazy = None

    def begin_episode(self, env):
        self.lazy = self.rng.uniform(size=env.spec.n_agents) < self.lazy_prob

    def act(self, env):
        spec = env.spec
        if self.lazy is None:
            self.lazy = np.zeros(spec.n_agents, dtype=bool)
        actions = np.empty(spec.n_agents, dtype=np.int64)
        for i in range(spec.n_agents):
            if self.lazy[i]:
                actions[i] = self.rng.integers(0, spec.n_actions)
            else:
                actions[i] = self._greedy(env, i)
        return actions

    def _greedy(self, env, i):
        spec = env.spec
        pos = env.agent_pos[i]
        if spec.family == "pp":
            live = np.flatnonzero(env.prey_alive)
            if live.size == 0:
                return core.A_STAY
            d = np.abs(env.prey_pos[live] - pos).sum(axis=1)
            target = env.prey_pos[live[d.argmin()]]
            if d.min() <= 1:
                return core.A_STAY  # hold the capture ring
            return _toward(pos, target)
        if spec.family == "lj":
            live = np.flatnonzero(env.tree_alive)
            if live.size == 0:
                return core.A_STAY
            d = np.abs(env.tree_pos[live] - pos).sum(axis=1)
            return _toward(pos, env.tree_pos[live[d.argmin()]])
        # skirmish
        if env.agent_hp[i] <= 0:
            return core.A_STAY
        live = np.flatnonzero(env.enemy_hp > 0)
        if live.size == 0:
            return core.A_STAY
        cheb = np.abs(env.enemy_pos[live] - pos).max(axis=1)
        if cheb.min() <= spec.sight_k:
            return core.A_ATTACK
        return _toward(pos, env.enemy_pos[live[cheb.argmin()]])
