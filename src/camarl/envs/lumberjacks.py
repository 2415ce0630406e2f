"""Lumberjacks: chop every tree on an 8x8 grid.

Trees carry a level l drawn uniformly from {1..N}; a tree falls when at
least l agents stand on its cell in the same timestep.  Each cutdown is
worth +5 to the team and every step costs 0.1.
"""

import numpy as np

from camarl.envs import core
from camarl.errors import UsageError


class Lumberjacks:
    def __init__(self, spec: core.EnvSpec, seed: int):
        self.spec = spec
        self.reset(seed)

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        spec = self.spec
        pos = core.place_entities(self.rng, spec.grid, spec.n_agents + spec.n_trees)
        self.agent_pos = pos[:spec.n_agents]
        self.tree_pos = pos[spec.n_agents:]
        self.tree_level = self.rng.integers(1, spec.n_agents + 1,
                                            size=spec.n_trees).astype(np.int64)
        self.tree_alive = np.ones(spec.n_trees, dtype=np.bool_)
        self.alive = np.ones(spec.n_agents, dtype=np.bool_)
        self.t = 0
        self.done = False
        return self._obs()

    def _obs(self):
        out = np.zeros((self.spec.n_agents, core.OBS_DIM))
        core.build_obs_window(self.agent_pos, self.alive, self.tree_pos,
                              self.tree_level / self.spec.n_agents,
                              self.tree_alive, self.spec.grid,
                              float(self.spec.n_agents), out)
        return out

    def step(self, actions) -> core.StepResult:
        if self.done:
            raise UsageError("episode is done; call reset")
        spec = self.spec
        a = core.validate_actions(actions, spec.n_agents, spec.n_actions)
        self.agent_pos = core.apply_moves(self.agent_pos, a, self.alive,
                                          spec.grid, core.MOVES)

        live = np.flatnonzero(self.tree_alive)
        on_cell = (self.agent_pos[None, :, :]
                   == self.tree_pos[live, None, :]).all(axis=2)
        felled = on_cell.sum(axis=1) >= self.tree_level[live]
        self.tree_alive[live[felled]] = False
        events = on_cell[felled].sum(axis=0, dtype=np.int64)

        reward = 5.0 * int(felled.sum()) - 0.1
        self.t += 1
        win = bool(not self.tree_alive.any())
        self.done = bool(win or self.t >= spec.episode_len)
        kind = core.KIND_INTERMEDIATE if felled.any() else core.KIND_NONE
        return core.StepResult(self._obs(), reward, self.done, kind, win,
                               events)
