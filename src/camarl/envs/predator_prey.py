"""Predator-Prey: a team captures moving preys on a 14x14 grid.

A prey is caught when at least two agents stand on its cell or its
4-neighborhood in the same timestep; each capture is worth +5 to the
shared team reward and every step costs 0.01.  A single adjacent agent
does nothing.  Surviving preys take uniform-random valid moves, in
index order.
"""

from camarl.envs import core


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

        # survivors move uniformly at random over their valid moves
        for p, live in zip(self.prey_pos, alive):
            if live:
                ks = core.valid_moves(p[0], p[1], spec.grid)
                dr, dc = core.MOVES[ks[self.rng.integers(len(ks))]]
                p[0] += dr
                p[1] += dc

        reward = 5.0 * caught - 0.01
        kind = core.KIND_INTERMEDIATE if caught else core.KIND_NONE
        return self._end_step(reward, kind, not any(alive), events)
