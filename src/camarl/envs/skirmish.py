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

_FAR = 10 ** 9


def _nearest_in(pos, hp, from_pos):
    """Index of the nearest living unit by Chebyshev distance, ties to the
    lowest index.  Returns (index, distance) or (-1, big)."""
    best, best_d = -1, _FAR
    r0, c0 = from_pos
    for m, ((r, c), h) in enumerate(zip(pos, hp)):
        if h > 0:
            d = max(abs(r - r0), abs(c - c0))
            if d < best_d:
                best, best_d = m, d
    return best, best_d


def _nearest_rows(pos, hp, from_pos):
    """``_nearest_in`` for every env row at once: pos (E, K, 2), hp (E, K),
    from_pos (E, 2); returns (E,) indices and distances, _FAR where no
    unit lives."""
    d = np.abs(pos - from_pos[:, None]).max(axis=2)
    d[hp <= 0] = _FAR
    m = d.argmin(axis=1)   # the first minimum: ties go to the lowest index
    return m, d[np.arange(len(m)), m]


class Skirmish(core.GridEnv):
    def _place(self, pos):
        spec = self.spec
        self.enemy_pos = pos
        self.agent_hp = [spec.unit_hp] * spec.n_agents
        self.enemy_hp = [spec.unit_hp] * spec.n_enemies
        self.total_enemy_hp = spec.unit_hp * spec.n_enemies

    def _view(self):
        """Living enemies; whether each agent lives, and its health
        fraction."""
        hp = self.agent_hp
        return ([(p, 1.0) for p, h in zip(self.enemy_pos, self.enemy_hp)
                 if h > 0],
                [h > 0 for h in hp], [h / self.spec.unit_hp for h in hp])

    def step(self, actions) -> core.StepResult:
        spec = self.spec
        agents, hp = self.agent_pos, self.agent_hp
        enemies, enemy_hp = self.enemy_pos, self.enemy_hp
        acts = self._begin_step(actions, [h > 0 for h in hp])

        events = [0] * spec.n_agents
        for i, (a, h) in enumerate(zip(acts, hp)):
            if a != core.A_ATTACK or h <= 0:
                continue
            m, d = _nearest_in(enemies, enemy_hp, agents[i])
            if m >= 0 and d <= spec.sight_k:
                enemy_hp[m] -= 1
                events[i] = 1
        damage = sum(events)

        reward = damage / self.total_enemy_hp
        win = all(h <= 0 for h in enemy_hp)
        if win:
            reward += 10.0
            kind = core.KIND_WIN
        else:
            kind = core.KIND_INTERMEDIATE if damage > 0 else core.KIND_NONE
            for p, h in zip(enemies, enemy_hp):
                if h <= 0:
                    continue
                j, d = _nearest_in(agents, hp, p)
                if j < 0:
                    break
                if d <= spec.sight_k:
                    hp[j] -= 1
                else:
                    # d > sight_k, so the enemy and its target differ
                    dr, dc = core.MOVES[core.toward(p, agents[j])]
                    p[0] += dr
                    p[1] += dc

        return self._end_step(reward, kind, win, events)


class SkirmishBatch(core.EnvBatch):
    STATE = ("enemy_pos", "agent_hp", "enemy_hp")

    def _view(self):
        """Living enemies; whether each agent lives, and its health
        fraction."""
        hp = self.agent_hp
        return (self.enemy_pos, (self.enemy_hp > 0) * 1.0, hp > 0,
                hp / self.spec.unit_hp)

    def step(self, actions) -> core.StepResult:
        spec = self.spec
        hp, enemies, enemy_hp = self.agent_hp, self.enemy_pos, self.enemy_hp
        acts = self._begin_step(actions, hp > 0)
        agents = self.agent_pos
        rows = np.arange(len(hp))

        # agents in index order, each env at once
        events = np.zeros(hp.shape, dtype=np.int64)
        for i in range(spec.n_agents):
            m, d = _nearest_rows(enemies, enemy_hp, agents[:, i])
            hit = (acts[:, i] == core.A_ATTACK) & (hp[:, i] > 0) & (
                d <= spec.sight_k)
            enemy_hp[rows[hit], m[hit]] -= 1
            events[:, i] = hit
        damage = events.sum(axis=1)

        reward = damage / (spec.unit_hp * spec.n_enemies)
        win = (enemy_hp <= 0).all(axis=1)
        reward = np.where(win, reward + 10.0, reward)
        kind = np.where(win, core.KIND_WIN, np.where(
            damage > 0, core.KIND_INTERMEDIATE, core.KIND_NONE))
        # enemies in index order where the fight goes on; with no agent
        # alive every later enemy finds none either, as the break does
        for m in range(spec.n_enemies):
            p = enemies[:, m]
            j, d = _nearest_rows(agents, hp, p)
            turn = ~win & (enemy_hp[:, m] > 0) & (d < _FAR)
            strike = turn & (d <= spec.sight_k)
            hp[rows[strike], j[strike]] -= 1
            # d > sight_k, so the enemy and its target differ
            gap = agents[rows, j] - p
            along = np.abs(gap[:, 0]) >= np.abs(gap[:, 1])
            move = np.where(along[:, None], [1, 0], [0, 1]) * np.sign(gap)
            p += np.where((turn & (d > spec.sight_k))[:, None], move, 0)

        return self._end_step(reward, kind, win, events)
