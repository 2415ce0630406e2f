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


class Skirmish(core.GridEnv):
    def _place(self, pos):
        spec = self.spec
        self.enemy_pos = pos
        self.agent_hp = np.full(spec.n_agents, spec.unit_hp, dtype=np.int64)
        self.enemy_hp = np.full(spec.n_enemies, spec.unit_hp, dtype=np.int64)
        self.total_enemy_hp = spec.unit_hp * spec.n_enemies

    def _alive(self):
        return self.agent_hp > 0

    def _status(self):
        return self.agent_hp / self.spec.unit_hp

    def _targets(self):
        return self.enemy_pos, (self.enemy_hp > 0).astype(np.float64)

    def step(self, actions) -> core.StepResult:
        a = self._begin_step(actions)
        spec = self.spec

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
            kind = core.KIND_WIN
        else:
            kind = core.KIND_INTERMEDIATE if damage > 0 else core.KIND_NONE
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

        return self._end_step(reward, kind, win, events)
