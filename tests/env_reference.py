"""Reference gridworlds and scripted policy on numpy arrays.

The package steps its environments and runs the scripted policy on
Python scalars.  These are the array versions they replaced, kept as
the independent reference that ``tests/test_envs.py`` compares them
with byte for byte: every step result, every state array after each
step, and every generator state.  The rules, the placement, the moves,
the action check and the generator draws here are the ones the scalar
code must reproduce, draw for draw.

The state attributes (``agent_pos``, ``prey_pos``, ``tree_level``,
``enemy_hp``, ...) have the package's names.  Here they are numpy
arrays; the package keeps them as the nested Python lists its rules
mutate, so the tests compare the two through ``np.array`` (dtype, shape
and bytes).  Each policy reads only its own kind of env: the package's
reads the env's ``_view()``, which these envs lack, and the one here
indexes the state arrays with numpy.
"""

import functools

import numpy as np

from camarl.envs.core import (
    A_ATTACK, A_STAY, AGENT_OFF, KIND_INTERMEDIATE, KIND_NONE, KIND_WIN,
    OBS_DIM, STATUS_OFF, TARGET_OFF, StepResult, env_spec)
from camarl.errors import ConfigurationError, UsageError

MOVES = np.array([[-1, 0], [1, 0], [0, -1], [0, 1], [0, 0]], dtype=np.int64)
_MOVE_LIST = MOVES.tolist()


def make_env(env_id, seed):
    spec = env_spec(env_id)
    cls = {"pp": PredatorPrey, "lj": Lumberjacks, "sk": Skirmish}[spec.family]
    return cls(spec, seed)


def place_entities(rng, grid, count):
    """Uniform placement on distinct cells; (count, 2) int64."""
    cells = grid * grid
    if count > cells:
        raise ConfigurationError(f"{count} entities do not fit a {grid}x{grid} grid")
    flat = rng.choice(cells, size=count, replace=False)
    return np.stack([flat // grid, flat % grid], axis=1).astype(np.int64)


def validate_actions(actions, n_agents, n_actions):
    a = np.asarray(actions, dtype=np.int64)
    if a.shape != (n_agents,):
        raise UsageError(f"expected {n_agents} actions, got shape {a.shape}")
    if a.min() < 0 or a.max() >= n_actions:
        raise UsageError(f"action out of range [0, {n_actions})")
    return a


_EDGE_MOVES = {}


def valid_moves(r, c, grid):
    """Indices into MOVES that keep (r, c) on the grid, ascending, cached
    per edge signature."""
    key = (r > 0, r < grid - 1, c > 0, c < grid - 1)
    ks = _EDGE_MOVES.get(key)
    if ks is None:
        up, down, left, right = key
        ks = np.flatnonzero([
            (mv[0] >= 0 or up) and (mv[0] <= 0 or down)
            and (mv[1] >= 0 or left) and (mv[1] <= 0 or right)
            for mv in MOVES])
        _EDGE_MOVES[key] = ks
    return ks


def apply_moves(pos, actions, alive, grid):
    out = pos.tolist()
    for p, a, live in zip(out, actions.tolist(), alive.tolist()):
        if live and a < len(_MOVE_LIST):
            r = p[0] + _MOVE_LIST[a][0]
            c = p[1] + _MOVE_LIST[a][1]
            if 0 <= r < grid and 0 <= c < grid:
                p[0] = r
                p[1] = c
    return np.array(out, dtype=np.int64)


@functools.cache
def _mask_cells(sight_k):
    """{(dr, dc): (5x5 cell, fade)} for every offset within range k."""
    k = sight_k or 2
    span = range(-k, k + 1)
    bins = {d: int(np.floor(d * 2.0 / k + 0.5)) + 2 for d in span}
    return {(dr, dc): (bins[dr] * 5 + bins[dc],
                       (k + 1.0 - max(abs(dr), abs(dc))) / (k + 1.0)
                       if sight_k else 1.0)
            for dr in span for dc in span}


class GridEnv:
    def __init__(self, spec, seed):
        self.spec = spec
        self.reset(seed)

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        spec = self.spec
        n_targets = spec.n_preys + spec.n_trees + spec.n_enemies
        pos = place_entities(self.rng, spec.grid, spec.n_agents + n_targets)
        self.agent_pos = pos[:spec.n_agents]
        self._place(pos[spec.n_agents:])
        self.t = 0
        self.done = False
        return self._obs()

    def _alive(self):
        return np.ones(self.spec.n_agents, dtype=np.bool_)

    def _status(self):
        return np.zeros(self.spec.n_agents)

    def _obs(self):
        spec = self.spec
        cells = _mask_cells(spec.sight_k)
        scale = spec.grid - 1.0
        share = 1.0 / spec.n_agents
        target_pos, target_val = self._targets()
        targets = [(p, v) for p, v in zip(target_pos.tolist(),
                                          target_val.tolist()) if v > 0]
        agents = self.agent_pos.tolist()
        alive = self._alive().tolist()
        allies = [p for p, live in zip(agents, alive) if live]
        rows = []
        for (r0, c0), live, st in zip(agents, alive, self._status().tolist()):
            row = [0.0] * OBS_DIM
            rows.append(row)
            if not live:
                continue
            row[0] = r0 / scale
            row[1] = c0 / scale
            for (r, c), v in targets:
                hit = cells.get((r - r0, c - c0))
                if hit is not None:
                    v *= hit[1]
                    if v > row[TARGET_OFF + hit[0]]:
                        row[TARGET_OFF + hit[0]] = v
            for r, c in allies:
                hit = cells.get((r - r0, c - c0))
                if hit is not None:
                    row[AGENT_OFF + hit[0]] += share
            row[STATUS_OFF] = st
        return np.array(rows)

    def _begin_step(self, actions):
        if self.done:
            raise UsageError("episode is done; call reset")
        a = validate_actions(actions, self.spec.n_agents, self.spec.n_actions)
        self.agent_pos = apply_moves(self.agent_pos, a, self._alive(),
                                     self.spec.grid)
        return a

    def _end_step(self, reward, kind, win, events):
        self.t += 1
        self.done = bool(win or not self._alive().any()
                         or self.t >= self.spec.episode_len)
        return StepResult(self._obs(), reward, self.done, kind, win, events)


class PredatorPrey(GridEnv):
    def _place(self, pos):
        self.prey_pos = pos
        self.prey_alive = np.ones(self.spec.n_preys, dtype=np.bool_)

    def _targets(self):
        return self.prey_pos, self.prey_alive.astype(np.float64)

    def step(self, actions):
        self._begin_step(actions)
        spec = self.spec

        live = np.flatnonzero(self.prey_alive)
        near = (np.abs(self.agent_pos[None, :, :]
                       - self.prey_pos[live, None, :]).sum(axis=2) <= 1)
        caught = near.sum(axis=1) >= 2
        self.prey_alive[live[caught]] = False
        events = near[caught].sum(axis=0, dtype=np.int64)

        for m in range(spec.n_preys):
            if not self.prey_alive[m]:
                continue
            r, c = self.prey_pos[m]
            ks = valid_moves(int(r), int(c), spec.grid)
            k = ks[self.rng.integers(ks.size)]
            self.prey_pos[m] += MOVES[k]

        reward = 5.0 * int(caught.sum()) - 0.01
        kind = KIND_INTERMEDIATE if caught.any() else KIND_NONE
        return self._end_step(reward, kind, bool(not self.prey_alive.any()),
                              events)


class Lumberjacks(GridEnv):
    def _place(self, pos):
        spec = self.spec
        self.tree_pos = pos
        self.tree_level = self.rng.integers(1, spec.n_agents + 1,
                                            size=spec.n_trees).astype(np.int64)
        self.tree_alive = np.ones(spec.n_trees, dtype=np.bool_)

    def _targets(self):
        level = self.tree_alive * self.tree_level
        return self.tree_pos, level / self.spec.n_agents

    def step(self, actions):
        self._begin_step(actions)

        live = np.flatnonzero(self.tree_alive)
        on_cell = (self.agent_pos[None, :, :]
                   == self.tree_pos[live, None, :]).all(axis=2)
        felled = on_cell.sum(axis=1) >= self.tree_level[live]
        self.tree_alive[live[felled]] = False
        events = on_cell[felled].sum(axis=0, dtype=np.int64)

        reward = 5.0 * int(felled.sum()) - 0.1
        kind = KIND_INTERMEDIATE if felled.any() else KIND_NONE
        return self._end_step(reward, kind, bool(not self.tree_alive.any()),
                              events)


def _nearest_in(pos, hp, from_pos):
    best, best_d = -1, 10 ** 9
    for m in range(pos.shape[0]):
        if hp[m] <= 0:
            continue
        d = max(abs(int(pos[m, 0]) - int(from_pos[0])),
                abs(int(pos[m, 1]) - int(from_pos[1])))
        if d < best_d:
            best, best_d = m, d
    return best, best_d


class Skirmish(GridEnv):
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

    def step(self, actions):
        a = self._begin_step(actions)
        spec = self.spec

        events = np.zeros(spec.n_agents, dtype=np.int64)
        for i in range(spec.n_agents):
            if a[i] != A_ATTACK or self.agent_hp[i] <= 0:
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
            kind = KIND_WIN
        else:
            kind = KIND_INTERMEDIATE if damage > 0 else KIND_NONE
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


def _toward(src, dst):
    dr = int(dst[0]) - int(src[0])
    dc = int(dst[1]) - int(src[1])
    if dr == 0 and dc == 0:
        return A_STAY
    if abs(dr) >= abs(dc):
        return 0 if dr < 0 else 1
    return 2 if dc < 0 else 3


class ScriptedPolicy:
    """Greedy task policy with per-episode lazy agents."""

    def __init__(self, seed, lazy_prob=0.5):
        self.rng = np.random.default_rng(seed)
        self.lazy_prob = lazy_prob
        self.lazy = None

    def begin_episode(self, env):
        self.lazy = self.rng.uniform(size=env.spec.n_agents) < self.lazy_prob

    def act(self, env):
        spec = env.spec
        if self.lazy is None:
            self.lazy = np.zeros(spec.n_agents, dtype=bool)
        actions = np.empty(spec.n_agents, dtype=np.int64)
        for i in range(spec.n_agents):
            if self.lazy[i]:
                actions[i] = self.rng.integers(0, spec.n_actions)
            else:
                actions[i] = self._greedy(env, i)
        return actions

    def _greedy(self, env, i):
        spec = env.spec
        pos = env.agent_pos[i]
        if spec.family == "pp":
            live = np.flatnonzero(env.prey_alive)
            if live.size == 0:
                return A_STAY
            d = np.abs(env.prey_pos[live] - pos).sum(axis=1)
            target = env.prey_pos[live[d.argmin()]]
            if d.min() <= 1:
                return A_STAY
            return _toward(pos, target)
        if spec.family == "lj":
            live = np.flatnonzero(env.tree_alive)
            if live.size == 0:
                return A_STAY
            d = np.abs(env.tree_pos[live] - pos).sum(axis=1)
            return _toward(pos, env.tree_pos[live[d.argmin()]])
        if env.agent_hp[i] <= 0:
            return A_STAY
        live = np.flatnonzero(env.enemy_hp > 0)
        if live.size == 0:
            return A_STAY
        cheb = np.abs(env.enemy_pos[live] - pos).max(axis=1)
        if cheb.min() <= spec.sight_k:
            return A_ATTACK
        return _toward(pos, env.enemy_pos[live[cheb.argmin()]])
