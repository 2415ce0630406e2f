"""Skirmish: a marine team fights scripted enemies on a 10x10 grid.

Units on both sides carry 3 HP and deal 1 damage per attack within a
Chebyshev sight range of K=3.  The team earns damage/total-enemy-HP as
an intermediate reward (a fully won fight sums to 1.0) plus +10 when the
last enemy falls.  Enemies attack the nearest living agent in range or
advance one cell toward it, preferring the axis with the larger gap.
Agents act in index order, then enemies; damage is capped at the
remaining HP so overkill never counts.
"""

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
