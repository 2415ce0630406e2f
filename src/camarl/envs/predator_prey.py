"""Predator-Prey: a team captures moving preys on a 14x14 grid.

A prey is caught when at least two agents stand on its cell or its
4-neighborhood in the same timestep; each capture is worth +5 to the
shared team reward and every step costs 0.01.  A single adjacent agent
does nothing.  Surviving preys take uniform-random valid moves.
"""

import numpy as np

from camarl.envs import core


class PredatorPrey(core.GridEnv):
    def _place(self, pos):
        self.prey_pos = pos
        self.prey_alive = np.ones(self.spec.n_preys, dtype=np.bool_)

    def _targets(self):
        return self.prey_pos, self.prey_alive.astype(np.float64)

    def step(self, actions) -> core.StepResult:
        self._begin_step(actions)
        spec = self.spec

        live = np.flatnonzero(self.prey_alive)
        near = (np.abs(self.agent_pos[None, :, :]
                       - self.prey_pos[live, None, :]).sum(axis=2) <= 1)
        caught = near.sum(axis=1) >= 2
        self.prey_alive[live[caught]] = False
        events = near[caught].sum(axis=0, dtype=np.int64)

        # survivors move uniformly at random over their valid moves
        for m in range(spec.n_preys):
            if not self.prey_alive[m]:
                continue
            r, c = self.prey_pos[m]
            ks = core.valid_moves(int(r), int(c), spec.grid)
            k = ks[self.rng.integers(ks.size)]
            self.prey_pos[m] += core.MOVES[k]

        reward = 5.0 * int(caught.sum()) - 0.01
        kind = core.KIND_INTERMEDIATE if caught.any() else core.KIND_NONE
        return self._end_step(reward, kind, bool(not self.prey_alive.any()),
                              events)
