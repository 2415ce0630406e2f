"""Lumberjacks: chop every tree on an 8x8 grid.

Trees carry a level l drawn uniformly from {1..N}; a tree falls when at
least l agents stand on its cell in the same timestep.  Each cutdown is
worth +5 to the team and every step costs 0.1.
"""

import numpy as np

from camarl.envs import core


class Lumberjacks(core.GridEnv):
    def _place(self, pos):
        spec = self.spec
        self.tree_pos = pos
        self.tree_level = self.rng.integers(1, spec.n_agents + 1,
                                            size=spec.n_trees).astype(np.int64)
        self.tree_alive = np.ones(spec.n_trees, dtype=np.bool_)

    def _targets(self):
        level = self.tree_alive * self.tree_level
        return self.tree_pos, level / self.spec.n_agents

    def step(self, actions) -> core.StepResult:
        self._begin_step(actions)

        live = np.flatnonzero(self.tree_alive)
        on_cell = (self.agent_pos[None, :, :]
                   == self.tree_pos[live, None, :]).all(axis=2)
        felled = on_cell.sum(axis=1) >= self.tree_level[live]
        self.tree_alive[live[felled]] = False
        events = on_cell[felled].sum(axis=0, dtype=np.int64)

        reward = 5.0 * int(felled.sum()) - 0.1
        kind = core.KIND_INTERMEDIATE if felled.any() else core.KIND_NONE
        return self._end_step(reward, kind, bool(not self.tree_alive.any()),
                              events)
