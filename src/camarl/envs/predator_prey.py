"""Predator-Prey: a team captures moving preys on a 14x14 grid.

A prey is caught when at least two agents stand on its cell or its
4-neighborhood in the same timestep; each capture is worth +5 to the
shared team reward and every step costs 0.01.  A single adjacent agent
does nothing.  Surviving preys take uniform-random valid moves.
"""

import numpy as np

from camarl.envs import core
from camarl.errors import UsageError


class PredatorPrey:
    def __init__(self, spec: core.EnvSpec, seed: int):
        self.spec = spec
        self.reset(seed)

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        spec = self.spec
        pos = core.place_entities(self.rng, spec.grid, spec.n_agents + spec.n_preys)
        self.agent_pos = pos[:spec.n_agents]
        self.prey_pos = pos[spec.n_agents:]
        self.prey_alive = np.ones(spec.n_preys, dtype=np.bool_)
        self.alive = np.ones(spec.n_agents, dtype=np.bool_)
        # prey mask values are a constant 1.0; liveness is passed separately
        self._prey_val = np.ones(spec.n_preys)
        self.t = 0
        self.done = False
        return self._obs()

    def _obs(self):
        out = np.zeros((self.spec.n_agents, core.OBS_DIM))
        core.build_obs_window(self.agent_pos, self.alive, self.prey_pos,
                              self._prey_val, self.prey_alive,
                              self.spec.grid, float(self.spec.n_agents), out)
        return out

    def step(self, actions) -> core.StepResult:
        if self.done:
            raise UsageError("episode is done; call reset")
        spec = self.spec
        a = core.validate_actions(actions, spec.n_agents, spec.n_actions)
        self.agent_pos = core.apply_moves(self.agent_pos, a, self.alive,
                                          spec.grid, core.MOVES)

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
        self.t += 1
        win = bool(not self.prey_alive.any())
        self.done = bool(win or self.t >= spec.episode_len)
        kind = core.KIND_INTERMEDIATE if caught.any() else core.KIND_NONE
        return core.StepResult(self._obs(), reward, self.done, kind, win,
                               events)
