"""Shared environment machinery: specs, the env base class, placement,
moves and the one observation builder.

Observation vector, width 53 for every environment:

  [0:2)    own position, row and col each divided by (grid - 1)
  [2:27)   5x5 target mask centered on the agent, row-major
           (prey presence / tree level over N / enemy closeness)
  [27:52)  5x5 agent-count mask including self, count over N
  [52]     status scalar (health fraction in skirmish, 0 elsewhere)

Both masks are one range-k mask.  pp and lj use the literal 5x5 window
(k = 2); sk uses its sight range (k = 3), binned onto the 5x5 cells,
with the target value fading with distance.  Dead agents observe all
zeros.  Every entry lies in [0, 1].

A step returns a StepResult: the next observation, the team reward, the
done flag, the reward kind (KIND_NONE, KIND_INTERMEDIATE or KIND_WIN),
whether this step won the episode, and events, the (N,) int64 count of
rewarded events each agent took part in on this step (captures in pp,
cutdowns in lj, damaging attacks in sk).
"""

import functools
from dataclasses import dataclass

import numpy as np

from camarl.errors import ConfigurationError, UsageError

OBS_DIM = 53
TARGET_OFF = 2
AGENT_OFF = 27
STATUS_OFF = 52

# moves shared by all environments; skirmish appends attack as action 5
MOVES = np.array([[-1, 0], [1, 0], [0, -1], [0, 1], [0, 0]], dtype=np.int64)
_MOVE_LIST = MOVES.tolist()
A_STAY = 4
A_ATTACK = 5

# reward-kind tags stored per step
KIND_NONE = 0
KIND_INTERMEDIATE = 1
KIND_WIN = 2


@dataclass
class EnvSpec:
    env_id: str
    family: str            # "pp" | "lj" | "sk"
    n_agents: int
    grid: int
    episode_len: int
    n_actions: int
    n_preys: int = 0
    n_trees: int = 0
    n_enemies: int = 0
    sight_k: int = 0
    unit_hp: int = 0
    obs_dim: int = OBS_DIM


@dataclass
class StepResult:
    obs: np.ndarray         # (N, OBS_DIM)
    reward: float
    done: bool
    kind: int
    win: bool
    events: np.ndarray      # (N,) int64


_SPECS = {
    "pp": dict(family="pp", n_agents=4, grid=14, episode_len=100, n_actions=5,
               n_preys=2),
    "pp-sp": dict(family="pp", n_agents=5, grid=14, episode_len=100, n_actions=5,
                  n_preys=1),
    "lj": dict(family="lj", n_agents=4, grid=8, episode_len=100, n_actions=5,
               n_trees=8),
    "lj-sp": dict(family="lj", n_agents=4, grid=8, episode_len=100, n_actions=5,
                  n_trees=1),
    "sk3": dict(family="sk", n_agents=3, grid=10, episode_len=60, n_actions=6,
                n_enemies=3, sight_k=3, unit_hp=3),
    "sk3-sp": dict(family="sk", n_agents=3, grid=10, episode_len=60, n_actions=6,
                   n_enemies=1, sight_k=3, unit_hp=3),
    "sk5": dict(family="sk", n_agents=5, grid=10, episode_len=70, n_actions=6,
                n_enemies=5, sight_k=3, unit_hp=3),
    "sk5-sp": dict(family="sk", n_agents=5, grid=10, episode_len=70, n_actions=6,
                   n_enemies=1, sight_k=3, unit_hp=3),
}

ENV_IDS = tuple(_SPECS)


def env_spec(env_id: str) -> EnvSpec:
    if env_id not in _SPECS:
        raise ConfigurationError(
            f"unknown env {env_id!r}; choose from {', '.join(ENV_IDS)}")
    return EnvSpec(env_id=env_id, **_SPECS[env_id])


def make_env(env_id: str, seed: int):
    """Instantiate the environment class for an id."""
    from camarl.envs.predator_prey import PredatorPrey
    from camarl.envs.lumberjacks import Lumberjacks
    from camarl.envs.skirmish import Skirmish

    spec = env_spec(env_id)
    cls = {"pp": PredatorPrey, "lj": Lumberjacks, "sk": Skirmish}[spec.family]
    return cls(spec, seed)


def place_entities(rng: np.random.Generator, grid: int, count: int) -> np.ndarray:
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
    """Indices into MOVES that keep (r, c) on the grid, ascending.

    Validity only depends on which edges the cell touches, so results
    are cached per edge signature.
    """
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
    """Move each living agent; off-grid moves and non-move actions (attack)
    keep the agent in place."""
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
    """{(dr, dc): (5x5 cell, fade)} for every offset within range k.

    Without a sight range the mask is the literal 5x5 window (k = 2, the
    binning is the identity, no fade).  A sight range K bins offsets
    onto the 5x5 cells and fades a target at Chebyshev distance d to
    (K+1-d)/(K+1).
    """
    k = sight_k or 2
    span = range(-k, k + 1)
    bins = {d: int(np.floor(d * 2.0 / k + 0.5)) + 2 for d in span}
    return {(dr, dc): (bins[dr] * 5 + bins[dc],
                       (k + 1.0 - max(abs(dr), abs(dc))) / (k + 1.0)
                       if sight_k else 1.0)
            for dr in span for dc in span}


class GridEnv:
    """Seeding, placement, moves, clock and done shared by every family.

    A family places its targets in ``_place`` (after the agents, from the
    same draw), gives their positions and mask values in ``_targets``,
    and writes ``step`` as ``_begin_step``, its own rules, then
    ``_end_step``; ``step`` stays on each family class, where
    ``perfbench/spans.py`` patches it.  Agents that are not alive
    (``_alive``) neither move nor observe; ``_status`` fills the status
    scalar.
    """

    def __init__(self, spec: EnvSpec, seed: int):
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
        """Observations of all agents, (N, OBS_DIM).

        A target's mask value (from ``_targets``) is 0 once it is gone;
        a cell keeps the largest faded value that lands on it.  The
        agent mask counts living agents, self included, over N.  The
        loops run on Python scalars, several times faster than indexing
        numpy arrays element by element.
        """
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
        """Check and apply the agents' moves; returns the actions."""
        if self.done:
            raise UsageError("episode is done; call reset")
        a = validate_actions(actions, self.spec.n_agents, self.spec.n_actions)
        self.agent_pos = apply_moves(self.agent_pos, a, self._alive(),
                                     self.spec.grid)
        return a

    def _end_step(self, reward, kind, win, events) -> StepResult:
        """Advance the clock; done on a win, with no agent alive, or at the
        nominal episode length."""
        self.t += 1
        self.done = bool(win or not self._alive().any()
                         or self.t >= self.spec.episode_len)
        return StepResult(self._obs(), reward, self.done, kind, win, events)
