"""Hand-written rollout policy for dataset collection.

The scripted policy walks each agent toward the nearest reward-bearing
entity and triggers it (wait beside preys, stand on trees, shoot
enemies).  A laziness probability marks agents at episode start to act
uniformly at random for the whole episode instead; mixing lazy and
active agents is what gives collected datasets varied ground-truth
causality bits.  Lazy agents draw their actions in agent order.
"""

import operator

import numpy as np

from camarl.envs import core


def _toward(src, dst):
    """Move action reducing the gap along the axis with the larger gap;
    src and dst differ."""
    dr = dst[0] - src[0]
    dc = dst[1] - src[1]
    if abs(dr) >= abs(dc):
        return 0 if dr < 0 else 1
    return 2 if dc < 0 else 3


def _nearest(pos, targets, metric):
    """The first of the targets at the smallest distance, and that
    distance; metric combines the row and column gaps (operator.add for
    Manhattan, max for Chebyshev)."""
    best, best_d = None, None
    for p in targets:
        d = metric(abs(p[0] - pos[0]), abs(p[1] - pos[1]))
        if best_d is None or d < best_d:
            best, best_d = p, d
    return best, best_d


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
        agents = env.agent_pos.tolist()
        hp = None
        if spec.family == "pp":
            # hold the capture ring once a prey is within one cell
            metric, reach, trigger = operator.add, 1, core.A_STAY
            targets = [p for p, live in zip(env.prey_pos.tolist(),
                                            env.prey_alive.tolist()) if live]
        elif spec.family == "lj":
            metric, reach, trigger = operator.add, 0, core.A_STAY
            targets = [p for p, live in zip(env.tree_pos.tolist(),
                                            env.tree_alive.tolist()) if live]
        else:
            # shoot once an enemy is in sight range; the dead stay
            metric, reach, trigger = max, spec.sight_k, core.A_ATTACK
            hp = env.agent_hp.tolist()
            targets = [p for p, h in zip(env.enemy_pos.tolist(),
                                         env.enemy_hp.tolist()) if h > 0]
        actions = []
        for i, (pos, lazy) in enumerate(zip(agents, self.lazy.tolist())):
            if lazy:
                actions.append(self.rng.integers(0, spec.n_actions))
            elif not targets or (hp is not None and hp[i] <= 0):
                actions.append(core.A_STAY)
            else:
                target, d = _nearest(pos, targets, metric)
                actions.append(trigger if d <= reach
                               else _toward(pos, target))
        return np.array(actions, dtype=np.int64)
