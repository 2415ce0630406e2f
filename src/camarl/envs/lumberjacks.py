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
                                            size=spec.n_trees).tolist()
        self.tree_alive = [True] * spec.n_trees

    def _view(self):
        """Standing trees, valued at their level over N."""
        n = self.spec.n_agents
        return ([(p, level / n) for p, level, live
                 in zip(self.tree_pos, self.tree_level, self.tree_alive)
                 if live and level > 0], None, None)

    def step(self, actions) -> core.StepResult:
        self._begin_step(actions)
        agents, alive = self.agent_pos, self.tree_alive

        events = [0] * self.spec.n_agents
        felled = 0
        for m, (p, level, live) in enumerate(zip(self.tree_pos,
                                                 self.tree_level, alive)):
            if not live:
                continue
            on = [i for i, a in enumerate(agents) if a == p]
            if len(on) >= level:
                alive[m] = False
                felled += 1
                for i in on:
                    events[i] += 1

        reward = 5.0 * felled - 0.1
        kind = core.KIND_INTERMEDIATE if felled else core.KIND_NONE
        return self._end_step(reward, kind, not any(alive), events)


class LumberjacksBatch(core.EnvBatch):
    STATE = ("tree_pos", "tree_level", "tree_alive")

    def _view(self):
        """Standing trees, valued at their level over N."""
        return (self.tree_pos,
                np.where(self.tree_alive,
                         self.tree_level / self.spec.n_agents, 0.0),
                None, None)

    def step(self, actions) -> core.StepResult:
        self._begin_step(actions)
        alive = self.tree_alive

        # (E, M, N): agent i stands on tree m; a cell is r * grid + c
        cell = np.array([self.spec.grid, 1])
        on = ((self.agent_pos @ cell)[:, None]
              == (self.tree_pos @ cell)[:, :, None])
        felled = alive & (on.sum(axis=2) >= self.tree_level)
        alive &= ~felled
        events = (on & felled[:, :, None]).sum(axis=1)
        n = felled.sum(axis=1)

        reward = 5.0 * n - 0.1
        kind = np.where(n > 0, core.KIND_INTERMEDIATE, core.KIND_NONE)
        return self._end_step(reward, kind, ~alive.any(axis=1), events)
