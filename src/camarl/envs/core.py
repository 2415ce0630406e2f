"""Shared environment machinery: specs, the env base class, placement,
moves, the one observation builder and the causality oracle that reads
its observations.

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

One env keeps its state in Python lists of ints and bools
(``agent_pos`` holds [r, c] lists, ``prey_alive``, ``tree_level``,
``enemy_hp``, ...), which tests may read and set.  A step runs its rules
on those lists in place, which for a handful of entities is several
times faster than numpy operations on tiny arrays.
``tests/env_reference.py`` keeps the array versions, which these match
byte for byte, generator draws included.

An ``EnvBatch`` steps E episodes of one env id at once (after EnvPool):
the same state names hold arrays with a leading env axis, each family
runs its rules vectorised over the envs, and ``observe_batch`` writes
every observation into one (E, N, OBS_DIM) array.  Each row matches the
one-env step byte for byte: the integer rules are the same and every
float is the same expression elementwise.  Across a handful of envs the
arrays pay; for one env the lists are faster, so both stay.

A step returns a StepResult: the next observation, the team reward, the
done flag, the reward kind (KIND_NONE, KIND_INTERMEDIATE or KIND_WIN),
whether this step won the episode, and events, the (N,) int64 count of
rewarded events each agent took part in on this step (captures in pp,
cutdowns in lj, damaging attacks in sk).  A batch step returns the same
fields per row: (E,) reward, done, kind and win, (E, N) events, and the
observations of the rows still running.

The causality oracle reads the same observation layout.  It answers, for
every step t and agent i of an episode: did i plausibly contribute to
the reward of step t, judged from i's observation before the reward
landed?

  pp  the reward is positive and a prey was visible
  lj  the reward is positive and a visible tree's level was at most the
      number of visible agents (self included)
  sk  a win credits everyone; an intermediate reward needs an enemy in
      sight range

The tree-level test needs no agent count: ``observe`` scales both the
visible-agent sum and the stored tree levels by 1/N, so the comparison
cancels it.
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
MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
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


def make_batch(envs):
    """The E freshly reset envs of one id, stepped as one EnvBatch."""
    from camarl.envs.predator_prey import PredatorPreyBatch
    from camarl.envs.lumberjacks import LumberjacksBatch
    from camarl.envs.skirmish import SkirmishBatch

    cls = {"pp": PredatorPreyBatch, "lj": LumberjacksBatch,
           "sk": SkirmishBatch}[envs[0].spec.family]
    return cls(envs)


def place_entities(rng: np.random.Generator, grid: int, count: int) -> list:
    """Uniform placement on distinct cells; count [r, c] lists."""
    cells = grid * grid
    if count > cells:
        raise ConfigurationError(f"{count} entities do not fit a {grid}x{grid} grid")
    flat = rng.choice(cells, size=count, replace=False)
    return [list(divmod(f, grid)) for f in flat.tolist()]


def validate_actions(actions, n_agents, n_actions) -> list:
    """The joint action as a list of ints, or UsageError."""
    a = np.asarray(actions, dtype=np.int64)
    if a.shape != (n_agents,):
        raise UsageError(f"expected {n_agents} actions, got shape {a.shape}")
    acts = a.tolist()
    if min(acts) < 0 or max(acts) >= n_actions:
        raise UsageError(f"action out of range [0, {n_actions})")
    return acts


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
        ks = _EDGE_MOVES[key] = tuple(
            k for k, (dr, dc) in enumerate(MOVES)
            if (dr >= 0 or up) and (dr <= 0 or down)
            and (dc >= 0 or left) and (dc <= 0 or right))
    return ks


def apply_moves(agents, actions, alive, grid):
    """Move each living agent (all when alive is None) in place on the
    [r, c] lists; off-grid moves, stay and attack keep the agent where it
    is."""
    for i, (p, a) in enumerate(zip(agents, actions)):
        if a < A_STAY and (alive is None or alive[i]):
            r = p[0] + MOVES[a][0]
            c = p[1] + MOVES[a][1]
            if 0 <= r < grid and 0 <= c < grid:
                p[0] = r
                p[1] = c


def toward(src, dst):
    """The move action that closes the gap from src to dst along the axis
    with the larger gap, rows on a tie; src and dst differ."""
    dr = dst[0] - src[0]
    dc = dst[1] - src[1]
    if abs(dr) >= abs(dc):
        return 0 if dr < 0 else 1
    return 2 if dc < 0 else 3


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


def observe(spec, agents, targets, alive=None, status=None) -> np.ndarray:
    """Observations of all agents, a fresh (N, OBS_DIM) float64 array.

    agents holds the [r, c] of every agent, targets the ([r, c], value)
    of every target still present (value > 0), alive whether each agent
    lives (all when None) and status its status scalar (0 when None).
    A cell keeps the largest faded target value that lands on it; the
    agent mask counts living agents, self included, over N.  Only the
    nonzero entries are gathered, by flat index, and written into a
    zeroed array at once.
    """
    cells = _mask_cells(spec.sight_k)
    scale = spec.grid - 1.0
    share = 1.0 / spec.n_agents
    allies = (agents if alive is None
              else [p for p, live in zip(agents, alive) if live])
    entries = {}
    for i, (r0, c0) in enumerate(agents):
        if alive is not None and not alive[i]:
            continue
        base = i * OBS_DIM
        entries[base] = r0 / scale
        entries[base + 1] = c0 / scale
        for (r, c), v in targets:
            hit = cells.get((r - r0, c - c0))
            if hit is not None:
                k = base + TARGET_OFF + hit[0]
                v *= hit[1]
                if v > entries.get(k, 0.0):
                    entries[k] = v
        for r, c in allies:
            hit = cells.get((r - r0, c - c0))
            if hit is not None:
                k = base + AGENT_OFF + hit[0]
                entries[k] = entries.get(k, 0.0) + share
        if status is not None:
            entries[base + STATUS_OFF] = status[i]
    obs = np.zeros((spec.n_agents, OBS_DIM))
    obs.reshape(-1)[list(entries)] = list(entries.values())
    return obs


@functools.cache
def _offset_table(sight_k, grid):
    """``_mask_cells`` as arrays over every offset on the grid.

    A position's code is r * w + c with w = 2 grid - 1, so the difference
    of two codes plus center indexes their offset.  Returns the (w, 1)
    code weights, center, and the 5x5 cell and the fade of each offset;
    an offset out of range has cell 25, which lands one past the mask,
    and fade 0.
    """
    w = 2 * grid - 1
    center = (grid - 1) * (w + 1)
    cell = np.full(w * w, 25)
    fade = np.zeros(w * w)
    for (dr, dc), (c, f) in _mask_cells(sight_k).items():
        cell[dr * w + dc + center] = c
        fade[dr * w + dc + center] = f
    return np.array([w, 1]), center, cell, fade


def observe_batch(spec, agents, targets, values, alive, status):
    """``observe`` for E envs at once, a fresh (E, N, OBS_DIM) float64
    array whose rows have ``observe``'s bytes.

    agents (E, N, 2) and targets (E, M, 2) hold positions; a target is
    present where its value in values (E, M) is above 0.  alive (E, N)
    bool and status (E, N) are None when every agent lives with status
    0.  An agent cell adds 1/N once per living agent on it, from 0.0 and
    in agent order, as ``observe`` adds; a target cell keeps the largest
    faded value landing on it.  An offset out of range lands one past
    its mask, on a cell written after it: agents on the status, targets
    on the first agent cell, where their 0.0 changes nothing.
    """
    weights, center, cell, fade = _offset_table(spec.sight_k, spec.grid)
    n_env, n = agents.shape[:2]
    size = n_env * n * OBS_DIM
    code = agents @ weights
    own = (code - center)[:, :, None]
    rows = np.arange(0, size, OBS_DIM).reshape(n_env, n, 1)
    # living allies, self included: (E, N, N) offsets
    hit = cell[code[:, None] - own]
    if alive is not None:
        hit[~np.broadcast_to(alive[:, None], hit.shape)] = 25
    obs = np.bincount((rows + AGENT_OFF + hit).reshape(-1),
                      np.full(hit.size, 1.0 / n), size)
    obs = obs.reshape(n_env, n, OBS_DIM)
    obs[:, :, :2] = agents / (spec.grid - 1.0)
    # targets: (E, N, M) offsets
    d = (targets @ weights)[:, None] - own
    np.maximum.at(obs.reshape(-1), rows + TARGET_OFF + cell[d],
                  values[:, None] * fade[d])
    obs[:, :, STATUS_OFF] = 0.0 if status is None else status
    if alive is not None:
        obs[~alive] = 0.0
    return obs


_EPS = 1e-9


def oracle_bits(family, obs, rewards, kinds) -> np.ndarray:
    """Per-step, per-agent oracle bits, (L, N) uint8.

    obs (L, N, D) holds the observation before action t at row t;
    rewards[t] and kinds[t] describe what that action caused.
    """
    obs = np.asarray(obs, dtype=np.float64)
    rewards = np.asarray(rewards)[:, None]
    kinds = np.asarray(kinds)[:, None]
    targets = obs[:, :, TARGET_OFF:AGENT_OFF]
    seen = targets > 0.0
    if family == "lj":
        share = obs[:, :, AGENT_OFF:STATUS_OFF].sum(axis=2)
        seen &= targets <= share[:, :, None] + _EPS
    bits = seen.any(axis=2) & (rewards > 0.0)
    if family == "sk":
        bits = (bits & (kinds == KIND_INTERMEDIATE)) | (kinds == KIND_WIN)
    return bits.astype(np.uint8)


def episode_ground_truth_arrays(family, obs, rewards, kinds) -> np.ndarray:
    """Per-episode bits (N,): agent i gets 1 iff its per-step oracle fired
    at any positively-rewarded step."""
    pos = np.asarray(rewards) > 0.0
    bits = oracle_bits(family, np.asarray(obs)[pos], np.asarray(rewards)[pos],
                       np.asarray(kinds)[pos])
    return bits.any(axis=0).astype(np.uint8)


class GridEnv:
    """Seeding, placement, moves, clock and done shared by every family.

    The state is plain lists that the rules mutate in place: agent and
    target positions as [r, c] lists, flags as bools, levels and hit
    points as ints.  Tests may read them and set them to lists of the
    same form.  A family places its targets in ``_place`` (after the
    agents, from the same draw) and gives ``_view``, the (targets,
    alive, status) of the current state that ``observe`` takes.  Its
    ``step`` is ``_begin_step``, its own rules on the lists, then
    ``_end_step``; ``step`` stays on each family class, where
    ``perfbench/spans.py`` patches it.  Agents that are not alive
    neither move nor observe.
    """

    def __init__(self, spec: EnvSpec, seed: int):
        self.spec = spec
        self.reset(seed)

    def reset(self, seed):
        """Place a fresh episode from seed; ``_obs()`` is its first
        observation."""
        self.rng = np.random.default_rng(seed)
        spec = self.spec
        n_targets = spec.n_preys + spec.n_trees + spec.n_enemies
        pos = place_entities(self.rng, spec.grid, spec.n_agents + n_targets)
        self.agent_pos = pos[:spec.n_agents]
        self._place(pos[spec.n_agents:])
        self.t = 0
        self.done = False

    def _obs(self):
        """Observations of the state as it stands, (N, OBS_DIM)."""
        return observe(self.spec, self.agent_pos, *self._view())

    def _begin_step(self, actions, alive=None):
        """Check the actions and move the living agents (all when alive is
        None); returns the actions as a list."""
        if self.done:
            raise UsageError("episode is done; call reset")
        spec = self.spec
        acts = validate_actions(actions, spec.n_agents, spec.n_actions)
        apply_moves(self.agent_pos, acts, alive, spec.grid)
        return acts

    def _end_step(self, reward, kind, win, events) -> StepResult:
        """Advance the clock; done on a win, with no agent alive, or at the
        nominal episode length."""
        targets, alive, status = self._view()
        self.t += 1
        self.done = bool(win or (alive is not None and not any(alive))
                         or self.t >= self.spec.episode_len)
        return StepResult(observe(self.spec, self.agent_pos, targets, alive,
                                  status),
                          reward, self.done, kind, win,
                          np.array(events, dtype=np.int64))


_MOVE_ARRAY = np.array(MOVES + ((0, 0),))   # attack, action 5, stays


class EnvBatch:
    """E episodes of one env id stepped as arrays, one row per env.

    Built from E freshly reset envs of one family: their state lists
    become arrays with a leading env axis under the same names
    (positions (E, count, 2) int64, flags bool, levels and hit points
    int64), and each env keeps its own generator in ``rngs``.  A family
    gives ``STATE``, the names it copies besides ``agent_pos``; ``_view``,
    the (targets, values, alive, status) arrays that ``observe_batch``
    takes; and ``step``: ``_begin_step``, its array rules, then
    ``_end_step``.  A row that finishes is dropped at once, so every
    array, ``rngs`` and the observations hold only the running rows, in
    env order.  The envs it was built from are spent: their state lists
    no longer advance, while their generators do.
    """

    STATE = ()

    def __init__(self, envs):
        self.spec = envs[0].spec
        self.rngs = [env.rng for env in envs]
        self.t = np.array([env.t for env in envs])
        for name in ("agent_pos",) + self.STATE:
            setattr(self, name, np.array([getattr(env, name) for env in envs]))

    def _obs(self):
        """Observations of the running rows as they stand, (E, N, OBS_DIM)."""
        return observe_batch(self.spec, self.agent_pos, *self._view())

    def _begin_step(self, actions, alive=None):
        """Check the (E, N) actions and move the living agents (all when
        alive is None); returns the actions as int64."""
        spec = self.spec
        a = np.asarray(actions, dtype=np.int64)
        if a.shape != self.agent_pos.shape[:2]:
            raise UsageError(f"expected {self.agent_pos.shape[:2]} actions, "
                             f"got shape {a.shape}")
        if a.min() < 0 or a.max() >= spec.n_actions:
            raise UsageError(f"action out of range [0, {spec.n_actions})")
        move = _MOVE_ARRAY[a]
        if alive is not None:
            move[~alive] = 0
        # a move changes one coordinate by one, so clipping it back onto
        # the grid is staying put
        self.agent_pos = np.minimum(np.maximum(self.agent_pos + move, 0),
                                    spec.grid - 1)
        return a

    def _end_step(self, reward, kind, win, events) -> StepResult:
        """Advance the clocks, drop the rows that are done (a win, no
        agent alive, or the nominal episode length) and observe the
        rest."""
        view = self._view()
        self.t += 1
        done = win | (self.t >= self.spec.episode_len)
        if view[2] is not None:
            done |= ~view[2].any(axis=1)
        if done.any():
            keep = np.flatnonzero(~done)
            for name in ("agent_pos", "t") + self.STATE:
                setattr(self, name, getattr(self, name)[keep])
            self.rngs = [self.rngs[k] for k in keep]
            view = [v if v is None else v[keep] for v in view]
        return StepResult(observe_batch(self.spec, self.agent_pos, *view),
                          reward, done, kind, win, events)
