"""Skirmish: a marine team fights scripted enemies on a 10x10 grid.

Units on both sides carry 3 HP and deal 1 damage per attack within a
Chebyshev sight range of K=3.  The team earns damage/total-enemy-HP as
an intermediate reward (a fully won fight sums to 1.0) plus +10 when the
last enemy falls.  Enemies attack the nearest living agent in range or
advance one cell toward it, preferring the axis with the larger gap.
Agents act in index order; damage is capped at the remaining HP so
overkill never counts.
"""

import numpy as np

from camarl.envs import core
from camarl.errors import UsageError


def _nearest_in(pos, hp, from_pos):
    """Index of the nearest living unit by Chebyshev distance, ties to the
    lowest index.  Returns (index, distance) or (-1, big)."""
    best, best_d = -1, 10 ** 9
    for m in range(pos.shape[0]):
        if hp[m] <= 0:
            continue
        d = max(abs(int(pos[m, 0]) - int(from_pos[0])),
                abs(int(pos[m, 1]) - int(from_pos[1])))
        if d < best_d:
            best, best_d = m, d
    return best, best_d


class Skirmish:
    def __init__(self, spec: core.EnvSpec, seed: int):
        self.spec = spec
        self.reset(seed)

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        spec = self.spec
        pos = core.place_entities(self.rng, spec.grid,
                                  spec.n_agents + spec.n_enemies)
        self.agent_pos = pos[:spec.n_agents]
        self.enemy_pos = pos[spec.n_agents:]
        self.agent_hp = np.full(spec.n_agents, spec.unit_hp, dtype=np.int64)
        self.enemy_hp = np.full(spec.n_enemies, spec.unit_hp, dtype=np.int64)
        self.total_enemy_hp = spec.unit_hp * spec.n_enemies
        self.t = 0
        self.done = False
        return self._obs()

    def _obs(self):
        out = np.zeros((self.spec.n_agents, core.OBS_DIM))
        core.build_obs_skirmish(self.agent_pos, self.agent_hp, self.enemy_pos,
                                self.enemy_hp, self.spec.grid,
                                self.spec.sight_k, float(self.spec.unit_hp), out)
        return out

    def step(self, actions) -> core.StepResult:
        if self.done:
            raise UsageError("episode is done; call reset")
        spec = self.spec
        a = core.validate_actions(actions, spec.n_agents, spec.n_actions)

        alive = self.agent_hp > 0
        move_a = np.where(a < core.A_ATTACK, a, core.A_STAY)
        self.agent_pos = core.apply_moves(self.agent_pos, move_a, alive,
                                          spec.grid, core.MOVES)

        events = np.zeros(spec.n_agents, dtype=np.int64)
        for i in range(spec.n_agents):
            if a[i] != core.A_ATTACK or self.agent_hp[i] <= 0:
                continue
            m, d = _nearest_in(self.enemy_pos, self.enemy_hp, self.agent_pos[i])
            if m >= 0 and d <= spec.sight_k:
                self.enemy_hp[m] -= 1
                events[i] = 1

        damage = int(events.sum())
        reward = damage / self.total_enemy_hp
        win = bool((self.enemy_hp <= 0).all())
        if win:
            reward += 10.0
            self.done = True
        else:
            for m in range(spec.n_enemies):
                if self.enemy_hp[m] <= 0:
                    continue
                j, d = _nearest_in(self.agent_pos, self.agent_hp, self.enemy_pos[m])
                if j < 0:
                    break
                if d <= spec.sight_k:
                    self.agent_hp[j] -= 1
                else:
                    dr = int(self.agent_pos[j, 0]) - int(self.enemy_pos[m, 0])
                    dc = int(self.agent_pos[j, 1]) - int(self.enemy_pos[m, 1])
                    if abs(dr) >= abs(dc):
                        self.enemy_pos[m, 0] += np.sign(dr)
                    else:
                        self.enemy_pos[m, 1] += np.sign(dc)

        self.t += 1
        if not self.done:
            self.done = bool((self.agent_hp <= 0).all()
                             or self.t >= spec.episode_len)
        if win:
            kind = core.KIND_WIN
        elif damage > 0:
            kind = core.KIND_INTERMEDIATE
        else:
            kind = core.KIND_NONE
        return core.StepResult(self._obs(), reward, self.done, kind, win,
                               events)
