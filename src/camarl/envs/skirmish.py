"""Skirmish: a marine team fights scripted enemies on a 10x10 grid.

Units on both sides carry 3 HP and deal 1 damage per attack within a
Chebyshev sight range of K=3.  The team earns damage/total-enemy-HP as
an intermediate reward (a fully won fight sums to 1.0) plus +10 when the
last enemy falls.  Enemies attack the nearest living agent in range or
advance one cell toward it, preferring the axis with the larger gap.
Agents act in index order, then enemies; damage is capped at the
remaining HP so overkill never counts.
"""

import numpy as np

from camarl.envs import core


def _nearest_in(pos, hp, from_pos):
    """Index of the nearest living unit by Chebyshev distance, ties to the
    lowest index.  Returns (index, distance) or (-1, big)."""
    best, best_d = -1, 10 ** 9
    r0, c0 = from_pos
    for m, ((r, c), h) in enumerate(zip(pos, hp)):
        if h > 0:
            d = max(abs(r - r0), abs(c - c0))
            if d < best_d:
                best, best_d = m, d
    return best, best_d


def _targets(enemies, enemy_hp):
    return [(p, 1.0) for p, h in zip(enemies, enemy_hp) if h > 0]


class Skirmish(core.GridEnv):
    def _place(self, pos):
        spec = self.spec
        self.enemy_pos = pos
        self.agent_hp = np.full(spec.n_agents, spec.unit_hp, dtype=np.int64)
        self.enemy_hp = np.full(spec.n_enemies, spec.unit_hp, dtype=np.int64)
        self.total_enemy_hp = spec.unit_hp * spec.n_enemies

    def _vitals(self, hp):
        """Whether each agent lives, and its health fraction."""
        return [h > 0 for h in hp], [h / self.spec.unit_hp for h in hp]

    def _view(self):
        return (_targets(self.enemy_pos.tolist(), self.enemy_hp.tolist()),
                *self._vitals(self.agent_hp.tolist()))

    def step(self, actions) -> core.StepResult:
        spec = self.spec
        hp = self.agent_hp.tolist()
        acts, agents = self._begin_step(actions, [h > 0 for h in hp])
        enemies = self.enemy_pos.tolist()
        enemy_hp = self.enemy_hp.tolist()

        events = [0] * spec.n_agents
        for i, (a, h) in enumerate(zip(acts, hp)):
            if a != core.A_ATTACK or h <= 0:
                continue
            m, d = _nearest_in(enemies, enemy_hp, agents[i])
            if m >= 0 and d <= spec.sight_k:
                enemy_hp[m] -= 1
                events[i] = 1
        damage = sum(events)
        if damage:
            self.enemy_hp[:] = enemy_hp

        reward = damage / self.total_enemy_hp
        win = all(h <= 0 for h in enemy_hp)
        if win:
            reward += 10.0
            kind = core.KIND_WIN
        else:
            kind = core.KIND_INTERMEDIATE if damage > 0 else core.KIND_NONE
            hit = moved = False
            for p, h in zip(enemies, enemy_hp):
                if h <= 0:
                    continue
                j, d = _nearest_in(agents, hp, p)
                if j < 0:
                    break
                if d <= spec.sight_k:
                    hp[j] -= 1
                    hit = True
                else:
                    dr = agents[j][0] - p[0]
                    dc = agents[j][1] - p[1]
                    if abs(dr) >= abs(dc):
                        p[0] += 1 if dr > 0 else -1
                    else:
                        p[1] += 1 if dc > 0 else -1
                    moved = True
            if hit:
                self.agent_hp[:] = hp
            if moved:
                self.enemy_pos[:] = enemies

        return self._end_step(reward, kind, win, events, agents,
                              _targets(enemies, enemy_hp), *self._vitals(hp))
