"""Predator-Prey: a team captures moving preys on a 14x14 grid.

A prey is caught when at least two agents stand on its cell or its
4-neighborhood in the same timestep; each capture is worth +5 to the
shared team reward and every step costs 0.01.  A single adjacent agent
does nothing.  Surviving preys take uniform-random valid moves, in
index order.
"""

import numpy as np

from camarl.envs import core


def _move_preys(pos, alive, rng, grid):
    """Move each surviving prey of one env in place on its [r, c] list, in
    index order, uniformly over its valid moves."""
    for p, live in zip(pos, alive):
        if live:
            ks = core.valid_moves(p[0], p[1], grid)
            dr, dc = core.MOVES[ks[rng.integers(len(ks))]]
            p[0] += dr
            p[1] += dc


class PredatorPrey(core.GridEnv):
    def _place(self, pos):
        self.prey_pos = pos
        self.prey_alive = [True] * self.spec.n_preys

    def _view(self):
        return ([(p, 1.0) for p, live in zip(self.prey_pos, self.prey_alive)
                 if live], None, None)

    def step(self, actions) -> core.StepResult:
        self._begin_step(actions)
        spec = self.spec
        agents, alive = self.agent_pos, self.prey_alive

        events = [0] * spec.n_agents
        caught = 0
        for m, ((r, c), live) in enumerate(zip(self.prey_pos, alive)):
            if not live:
                continue
            near = [i for i, (ar, ac) in enumerate(agents)
                    if abs(ar - r) + abs(ac - c) <= 1]
            if len(near) >= 2:
                alive[m] = False
                caught += 1
                for i in near:
                    events[i] += 1

        _move_preys(self.prey_pos, alive, self.rng, spec.grid)

        reward = 5.0 * caught - 0.01
        kind = core.KIND_INTERMEDIATE if caught else core.KIND_NONE
        return self._end_step(reward, kind, not any(alive), events)


class PredatorPreyBatch(core.EnvBatch):
    STATE = ("prey_pos", "prey_alive")

    def _view(self):
        return self.prey_pos, self.prey_alive * 1.0, None, None

    def step(self, actions) -> core.StepResult:
        self._begin_step(actions)
        alive = self.prey_alive

        # (E, P, N): agent i within one cell of prey m
        near = np.abs(self.agent_pos[:, None]
                      - self.prey_pos[:, :, None]).sum(axis=3) <= 1
        caught = alive & (near.sum(axis=2) >= 2)
        alive &= ~caught
        events = (near & caught[:, :, None]).sum(axis=1)
        n = caught.sum(axis=1)

        # each env's survivors draw from its own generator
        pos = self.prey_pos.tolist()
        for p, live, rng in zip(pos, alive.tolist(), self.rngs):
            _move_preys(p, live, rng, self.spec.grid)
        self.prey_pos = np.array(pos)

        reward = 5.0 * n - 0.01
        kind = np.where(n > 0, core.KIND_INTERMEDIATE, core.KIND_NONE)
        return self._end_step(reward, kind, ~alive.any(axis=1), events)
