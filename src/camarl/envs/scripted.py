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


def _nearest(pos, targets, metric):
    """The first of the (position, value) targets at the smallest
    distance, and that distance; metric combines the row and column gaps
    (operator.add for Manhattan, max for Chebyshev)."""
    best, best_d = None, None
    for p, _ in targets:
        d = metric(abs(p[0] - pos[0]), abs(p[1] - pos[1]))
        if best_d is None or d < best_d:
            best, best_d = p, d
    return best, best_d


# per family: distance metric, reach within which to trigger, trigger.
# Hold the capture ring once a prey is within one cell, stand on trees,
# shoot once an enemy is in sight range (reach None: the spec's sight_k).
_RULES = {"pp": (operator.add, 1, core.A_STAY),
          "lj": (operator.add, 0, core.A_STAY),
          "sk": (max, None, core.A_ATTACK)}


class ScriptedPolicy:
    """Greedy task policy with per-episode lazy agents."""

    def __init__(self, seed, lazy_prob):
        self.rng = np.random.default_rng(seed)
        self.lazy_prob = lazy_prob
        self.lazy = None

    def begin_episode(self, env):
        self.lazy = self.rng.uniform(size=env.spec.n_agents) < self.lazy_prob

    def act(self, env):
        """The joint action for the env's current ``_view()``: the targets
        it observes and which agents live (the dead stay)."""
        spec = env.spec
        if self.lazy is None:
            self.lazy = np.zeros(spec.n_agents, dtype=bool)
        metric, reach, trigger = _RULES[spec.family]
        if reach is None:
            reach = spec.sight_k
        targets, alive, _ = env._view()
        actions = []
        for i, (pos, lazy) in enumerate(zip(env.agent_pos,
                                            self.lazy.tolist())):
            if lazy:
                actions.append(self.rng.integers(0, spec.n_actions))
            elif not targets or (alive is not None and not alive[i]):
                actions.append(core.A_STAY)
            else:
                target, d = _nearest(pos, targets, metric)
                actions.append(trigger if d <= reach
                               else core.toward(pos, target))
        return np.array(actions, dtype=np.int64)
