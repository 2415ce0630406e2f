"""Shared environment machinery: specs, observation layout, placement.

Observation vector, width 53 for every environment:

  [0:2)    own position, row and col each divided by (grid - 1)
  [2:27)   5x5 target mask centered on the agent, row-major
           (prey presence / tree level over N / enemy closeness)
  [27:52)  5x5 agent-count mask including self, count over N
  [52]     status scalar (health fraction in skirmish, 0 elsewhere)

Dead or removed agents observe all zeros.  Every entry lies in [0, 1].

A step returns a StepResult: the next observation, the team reward, the
done flag, the reward kind (KIND_NONE, KIND_INTERMEDIATE or KIND_WIN),
whether this step won the episode, and events, the (N,) int64 count of
rewarded events each agent took part in on this step (captures in pp,
cutdowns in lj, damaging attacks in sk).
"""

from dataclasses import dataclass

import numpy as np

from camarl.errors import ConfigurationError, UsageError

OBS_DIM = 53
TARGET_OFF = 2
AGENT_OFF = 27
STATUS_OFF = 52

# moves shared by all environments; skirmish appends attack as action 5
MOVES = np.array([[-1, 0], [1, 0], [0, -1], [0, 1], [0, 0]], dtype=np.int64)
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


def apply_moves(pos, actions, alive, grid, moves):
    """Move each living agent; off-grid moves keep the agent in place."""
    out = pos.copy()
    for i in range(pos.shape[0]):
        if not alive[i]:
            continue
        a = actions[i]
        if a >= moves.shape[0]:
            continue
        r = pos[i, 0] + moves[a, 0]
        c = pos[i, 1] + moves[a, 1]
        if 0 <= r < grid and 0 <= c < grid:
            out[i, 0] = r
            out[i, 1] = c
    return out


def build_obs_window(agent_pos, alive, target_pos, target_val, target_alive,
                     grid, n_norm, out):
    """5x5 literal-window observations for the gridworld tasks.

    target_val carries the mask value to write (1.0 for preys, level/N for
    trees).  out must be a zeroed (N, OBS_DIM) buffer.
    """
    n = agent_pos.shape[0]
    for i in range(n):
        if not alive[i]:
            continue
        r0 = agent_pos[i, 0]
        c0 = agent_pos[i, 1]
        out[i, 0] = r0 / (grid - 1.0)
        out[i, 1] = c0 / (grid - 1.0)
        for m in range(target_pos.shape[0]):
            if not target_alive[m]:
                continue
            dr = target_pos[m, 0] - r0
            dc = target_pos[m, 1] - c0
            if -2 <= dr <= 2 and -2 <= dc <= 2:
                k = TARGET_OFF + (dr + 2) * 5 + (dc + 2)
                if target_val[m] > out[i, k]:
                    out[i, k] = target_val[m]
        for j in range(n):
            if not alive[j]:
                continue
            dr = agent_pos[j, 0] - r0
            dc = agent_pos[j, 1] - c0
            if -2 <= dr <= 2 and -2 <= dc <= 2:
                out[i, AGENT_OFF + (dr + 2) * 5 + (dc + 2)] += 1.0 / n_norm


def build_obs_skirmish(agent_pos, agent_hp, enemy_pos, enemy_hp, grid, k_range,
                       max_hp, out):
    """Sight-range observations: range K binned onto the 5x5 mask.

    Enemy cells carry (K+1-d)/(K+1) closeness with d the Chebyshev
    distance; the agent mask counts allies (self included) over N.
    """
    n = agent_pos.shape[0]
    for i in range(n):
        if agent_hp[i] <= 0:
            continue
        r0 = agent_pos[i, 0]
        c0 = agent_pos[i, 1]
        out[i, 0] = r0 / (grid - 1.0)
        out[i, 1] = c0 / (grid - 1.0)
        for m in range(enemy_pos.shape[0]):
            if enemy_hp[m] <= 0:
                continue
            dr = enemy_pos[m, 0] - r0
            dc = enemy_pos[m, 1] - c0
            cheb = max(abs(dr), abs(dc))
            if cheb <= k_range:
                br = int(np.floor(dr * 2.0 / k_range + 0.5)) + 2
                bc = int(np.floor(dc * 2.0 / k_range + 0.5)) + 2
                val = (k_range + 1.0 - cheb) / (k_range + 1.0)
                k = TARGET_OFF + br * 5 + bc
                if val > out[i, k]:
                    out[i, k] = val
        for j in range(n):
            if agent_hp[j] <= 0:
                continue
            dr = agent_pos[j, 0] - r0
            dc = agent_pos[j, 1] - c0
            if max(abs(dr), abs(dc)) <= k_range:
                br = int(np.floor(dr * 2.0 / k_range + 0.5)) + 2
                bc = int(np.floor(dc * 2.0 / k_range + 0.5)) + 2
                out[i, AGENT_OFF + br * 5 + bc] += 1.0 / n
        out[i, STATUS_OFF] = agent_hp[i] / max_hp
