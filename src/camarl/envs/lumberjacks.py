"""Lumberjacks: chop every tree on an 8x8 grid.

Trees carry a level l drawn uniformly from {1..N}; a tree falls when at
least l agents stand on its cell in the same timestep.  Each cutdown is
worth +5 to the team and every step costs 0.1.
"""

import numpy as np

from camarl.envs import core


def _targets(trees, levels, alive, n_agents):
    """Standing trees, valued at their level over N."""
    return [(p, level / n_agents)
            for p, level, live in zip(trees, levels, alive)
            if live and level > 0]


class Lumberjacks(core.GridEnv):
    def _place(self, pos):
        spec = self.spec
        self.tree_pos = pos
        self.tree_level = self.rng.integers(1, spec.n_agents + 1,
                                            size=spec.n_trees)
        self.tree_alive = np.ones(spec.n_trees, dtype=np.bool_)

    def _view(self):
        return (_targets(self.tree_pos.tolist(), self.tree_level.tolist(),
                         self.tree_alive.tolist(), self.spec.n_agents),
                None, None)

    def step(self, actions) -> core.StepResult:
        _, agents = self._begin_step(actions)
        spec = self.spec
        trees = self.tree_pos.tolist()
        levels = self.tree_level.tolist()
        alive = self.tree_alive.tolist()

        events = [0] * spec.n_agents
        felled = 0
        for m, (p, level, live) in enumerate(zip(trees, levels, alive)):
            if not live:
                continue
            on = [i for i, a in enumerate(agents) if a == p]
            if len(on) >= level:
                alive[m] = False
                self.tree_alive[m] = False
                felled += 1
                for i in on:
                    events[i] += 1

        reward = 5.0 * felled - 0.1
        kind = core.KIND_INTERMEDIATE if felled else core.KIND_NONE
        return self._end_step(reward, kind, not any(alive), events, agents,
                              _targets(trees, levels, alive, spec.n_agents))
