"""Environment mechanics and oracle predicate tests.

The heavyweight 10k-rollout property sweeps live in the acceptance
module; here the same invariant checkers run on smaller samples plus
targeted hand-built scenarios.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from camarl.envs import (
    ENV_IDS, OBS_DIM, Skirmish, env_spec, make_batch, make_env, oracle_bits,
    KIND_NONE, KIND_INTERMEDIATE, KIND_WIN,
)
from camarl.envs import core
from camarl.envs.core import (
    A_STAY, TARGET_OFF, AGENT_OFF, STATUS_OFF, episode_ground_truth_arrays)
from camarl.envs.scripted import ScriptedPolicy
from camarl.errors import ConfigurationError, UsageError

import env_reference as R


def rollout_random(env_id, seed, check=None):
    """One random-action episode, each step passed to check."""
    env = make_env(env_id, seed)
    rng = np.random.default_rng(seed + 1)
    n_act = env.spec.n_actions
    done = False
    while not done:
        pre = snapshot(env)
        res = env.step(rng.integers(0, n_act, size=env.spec.n_agents))
        if check is not None:
            check(env, pre, res)
        done = res.done


STATE = ("agent_pos", "prey_pos", "prey_alive", "tree_pos", "tree_level",
         "tree_alive", "enemy_pos", "agent_hp", "enemy_hp")


def snapshot(env):
    """Array copies of every state attribute the env has."""
    return {name: np.array(getattr(env, name))
            for name in STATE if hasattr(env, name)}


# brute-force invariant checkers shared with the acceptance suite

def check_pp(env, pre, res):
    # the caught preys are those alive before the step and dead after it;
    # each had >= 2 agents within 1 cell of its pre-step cell, and no
    # survivor met the capture condition (post-move agent positions)
    post = snapshot(env)
    caught = np.flatnonzero(pre["prey_alive"] & ~post["prey_alive"])
    near = np.abs(post["agent_pos"][None, :, :]
                  - pre["prey_pos"][:, None, :]).sum(axis=2) <= 1
    assert (near[caught].sum(axis=1) >= 2).all()
    # each agent's events are the caught preys within 1 cell of it
    np.testing.assert_array_equal(res.events, near[caught].sum(axis=0))
    for m in np.flatnonzero(pre["prey_alive"] & post["prey_alive"]):
        assert near[m].sum() < 2
    assert round(res.reward * 100) == 500 * len(caught) - 1


def check_lj(env, pre, res):
    post = snapshot(env)
    cut = np.flatnonzero(pre["tree_alive"] & ~post["tree_alive"])
    on = (post["agent_pos"][None, :, :]
          == pre["tree_pos"][:, None, :]).all(axis=2)
    assert (on[cut].sum(axis=1) >= pre["tree_level"][cut]).all()
    # each agent's events are the felled trees it stands on
    np.testing.assert_array_equal(res.events, on[cut].sum(axis=0))
    for m in np.flatnonzero(pre["tree_alive"] & post["tree_alive"]):
        assert on[m].sum() < pre["tree_level"][m]
    assert round(res.reward * 10) == 50 * len(cut) - 1


def check_sk(env, pre, res):
    post = snapshot(env)
    dealt = int(pre["enemy_hp"].sum() - post["enemy_hp"].sum())
    assert dealt == res.events.sum() and res.events.max() <= 1
    assert (post["enemy_hp"] >= 0).all() and (post["agent_hp"] >= 0).all()
    base = dealt / env.total_enemy_hp
    if res.win:
        assert abs(res.reward - (base + 10.0)) < 1e-12
    else:
        assert abs(res.reward - base) < 1e-12


def check_obs(env, pre, res):
    assert res.obs.shape == (env.spec.n_agents, OBS_DIM)
    assert res.obs.min() >= 0.0 and res.obs.max() <= 1.0
    if isinstance(env, Skirmish):
        for i in np.flatnonzero(np.array(env.agent_hp) <= 0):
            assert not res.obs[i].any()


CHECKERS = {"pp": check_pp, "lj": check_lj, "sk": check_sk}


def full_check(env, pre, res):
    CHECKERS[env.spec.family](env, pre, res)
    check_obs(env, pre, res)


# ------------------------------------------------------------------- specs

def test_registry_and_spec_values():
    assert set(ENV_IDS) == {"pp", "pp-sp", "lj", "lj-sp",
                            "sk3", "sk3-sp", "sk5", "sk5-sp"}
    pp = env_spec("pp")
    assert (pp.n_agents, pp.n_preys, pp.grid, pp.episode_len) == (4, 2, 14, 100)
    pps = env_spec("pp-sp")
    assert (pps.n_agents, pps.n_preys) == (5, 1)
    lj = env_spec("lj")
    assert (lj.n_agents, lj.grid, lj.episode_len) == (4, 8, 100)
    assert env_spec("lj-sp").n_trees == 1
    sk3 = env_spec("sk3")
    assert (sk3.n_agents, sk3.n_enemies, sk3.episode_len) == (3, 3, 60)
    assert env_spec("sk3-sp").n_enemies == 1
    sk5 = env_spec("sk5")
    assert (sk5.n_agents, sk5.n_enemies, sk5.episode_len) == (5, 5, 70)
    with pytest.raises(ConfigurationError):
        env_spec("nope")


def test_reset_determinism_and_distinct_cells():
    for env_id in ENV_IDS:
        a = make_env(env_id, 7)
        b = make_env(env_id, 7)
        a.reset(3)
        b.reset(3)
        np.testing.assert_array_equal(a._obs(), b._obs())
        np.testing.assert_array_equal(np.array(a.agent_pos),
                                      np.array(b.agent_pos))
        env = make_env(env_id, 11)
        cells = {tuple(p) for p in env.agent_pos}
        for attr in ("prey_pos", "tree_pos", "enemy_pos"):
            if hasattr(env, attr):
                cells |= {tuple(p) for p in getattr(env, attr)}
        n_entities = env.spec.n_agents + env.spec.n_preys + env.spec.n_trees \
            + env.spec.n_enemies
        assert len(cells) == n_entities


def test_make_env_builds_no_observation(monkeypatch):
    calls = []
    observe = core.observe

    def counting(*args):
        calls.append(args)
        return observe(*args)

    monkeypatch.setattr(core, "observe", counting)
    for env_id in ENV_IDS:
        make_env(env_id, 0)
    assert not calls
    make_env("pp", 0)._obs()  # the counter sees the builder's calls
    assert len(calls) == 1


def _leaves(value):
    """The non-list leaves of a nested list (value itself if no list)."""
    if type(value) is not list:
        return [value]
    return [leaf for v in value for leaf in _leaves(v)]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_state_is_python_lists(env_id):
    # after construction and after every step, each state attribute is a
    # (nested) list of Python bools (the *_alive flags) or ints: no
    # ndarray and no numpy scalar
    env = make_env(env_id, 3)
    rng = np.random.default_rng(4)
    while True:
        for name in STATE:
            if hasattr(env, name):
                kind = bool if name.endswith("_alive") else int
                leaves = _leaves(getattr(env, name))
                assert leaves and all(type(x) is kind for x in leaves), name
        if env.done:
            break
        env.step(rng.integers(0, env.spec.n_actions, size=env.spec.n_agents))


def test_step_sequence_determinism():
    for env_id in ("pp", "lj", "sk3"):
        rng = np.random.default_rng(0)
        acts = [rng.integers(0, env_spec(env_id).n_actions,
                             size=env_spec(env_id).n_agents) for _ in range(30)]
        traces = []
        for _ in range(2):
            env = make_env(env_id, 123)
            tr = []
            for a in acts:
                res = env.step(a)
                tr.append((res.obs.tobytes(), res.reward, res.done))
                if res.done:
                    break
            traces.append(tr)
        assert traces[0] == traces[1]


def test_step_after_done_raises():
    env = make_env("sk3-sp", 5)
    while True:
        res = env.step(np.full(3, 5))
        if res.done:
            break
    with pytest.raises(UsageError):
        env.step(np.full(3, 5))


def test_bad_actions_raise():
    env = make_env("pp", 0)
    with pytest.raises(UsageError):
        env.step([9, 0, 0, 0])
    with pytest.raises(UsageError):
        env.step([0, 0, 0])
    # a batch takes one row of N actions per env
    batch = make_batch([make_env("pp", s) for s in range(3)])
    for actions in (np.full((3, 4), 5), np.full((3, 4), -1),
                    np.full((2, 4), 4), np.full(4, 4)):
        with pytest.raises(UsageError):
            batch.step(actions)


# ----------------------------------------------------------- predator-prey

def _pp_fixture():
    env = make_env("pp", 1)
    env.prey_alive = [True, True]
    return env


def test_pp_no_capture_step_penalty():
    env = _pp_fixture()
    env.agent_pos = [[0, 0], [0, 1], [13, 13], [13, 12]]
    env.prey_pos = [[7, 7], [6, 6]]
    res = env.step([4, 4, 4, 4])
    assert res.reward == -0.01
    assert not res.events.any()


def test_pp_capture_needs_two_agents():
    env = _pp_fixture()
    env.agent_pos = [[7, 7], [0, 0], [13, 13], [13, 0]]
    env.prey_pos = [[7, 7], [0, 13]]
    res = env.step([4, 4, 4, 4])  # one agent on the prey: nothing happens
    assert not res.events.any()
    assert env.prey_alive == [True, True]


def test_pp_capture_reward_and_removal():
    env = _pp_fixture()
    env.agent_pos = [[7, 7], [7, 8], [0, 0], [13, 13]]
    env.prey_pos = [[7, 7], [0, 13]]
    res = env.step([4, 4, 4, 4])
    assert abs(res.reward - 4.99) < 1e-12
    assert res.kind == KIND_INTERMEDIATE
    assert res.events.tolist() == [1, 1, 0, 0]
    assert env.prey_alive == [False, True]
    assert not res.done


def test_pp_done_when_all_captured():
    env = make_env("pp-sp", 2)
    env.agent_pos[:2] = [list(env.prey_pos[0]), list(env.prey_pos[0])]
    res = env.step([4] * 5)
    assert res.done and res.win


def test_pp_prey_moves_stay_in_grid():
    env = make_env("pp", 3)
    for _ in range(40):
        res = env.step(np.random.default_rng(1).integers(0, 5, 4))
        prey = np.array(env.prey_pos)
        assert (prey >= 0).all() and (prey < 14).all()
        if res.done:
            break


# ------------------------------------------------------------- lumberjacks

def test_lj_cut_requires_level_agents():
    env = make_env("lj", 4)
    env.tree_pos[0] = [4, 4]
    env.tree_level[0] = 3
    env.tree_alive = [True] + [False] * 7
    env.agent_pos = [[4, 4], [4, 4], [0, 0], [7, 7]]
    res = env.step([4, 4, 4, 4])  # only 2 of required 3
    assert not res.events.any() and res.reward == -0.1
    env.agent_pos[2] = [4, 4]
    res = env.step([4, 4, 4, 4])
    assert res.kind == KIND_INTERMEDIATE
    assert abs(res.reward - 4.9) < 1e-12
    assert res.events.tolist() == [1, 1, 1, 0]
    assert res.done and res.win


def test_lj_levels_in_range():
    for seed in range(10):
        env = make_env("lj", seed)
        levels = np.array(env.tree_level)
        assert (levels >= 1).all() and (levels <= 4).all()


# ---------------------------------------------------------------- skirmish

def test_sk_attack_out_of_range_noop():
    env = make_env("sk3", 6)
    env.agent_pos = [[0, 0], [0, 1], [1, 0]]
    env.enemy_pos = [[9, 9], [9, 8], [8, 9]]
    res = env.step([5, 5, 5])
    assert not res.events.any() and res.reward == 0.0


def test_sk_damage_reward_fraction():
    env = make_env("sk3", 6)
    env.agent_pos = [[5, 5], [0, 0], [0, 9]]
    env.enemy_pos = [[5, 6], [9, 0], [9, 9]]
    res = env.step([5, 4, 4])
    assert res.events.sum() == 1
    assert abs(res.reward - 1.0 / 9.0) < 1e-15
    assert res.events.tolist() == [1, 0, 0]


def test_sk_win_bonus_and_overkill_cap():
    env = make_env("sk3-sp", 8)
    env.enemy_pos[0] = [5, 5]
    env.enemy_hp[0] = 2
    env.agent_pos = [[5, 4], [5, 6], [4, 5]]
    res = env.step([5, 5, 5])  # three attackers, 2 HP left
    assert res.events.sum() == 2  # capped at remaining HP
    assert res.events.tolist() == [1, 1, 0]
    assert res.done and res.win
    assert abs(res.reward - (2 / 3 + 10.0)) < 1e-12


def test_sk_won_episode_intermediate_sums_to_one():
    pol = ScriptedPolicy(seed=3, lazy_prob=0.0)
    for seed in range(10):
        env = make_env("sk3", seed)
        pol.begin_episode(env)
        total, won = 0.0, False
        while True:
            res = env.step(pol.act(env))
            total += res.reward - (10.0 if res.win else 0.0)
            if res.done:
                won = res.win
                break
        if won:
            assert abs(total - 1.0) < 1e-9
            return
    pytest.fail("scripted policy never won in 10 seeds")


def test_sk_enemy_pursues_and_attacks():
    env = make_env("sk3-sp", 9)
    env.agent_pos = [[0, 0], [0, 1], [1, 1]]
    env.enemy_pos[0] = [8, 0]
    env.step([4, 4, 4])
    # out of range: enemy moved one cell along the larger-gap axis (rows)
    assert env.enemy_pos[0] == [7, 0]
    env.enemy_pos[0] = [2, 0]
    env.step([4, 4, 4])
    assert env.agent_hp == [3, 3, 2]  # in range: nearest agent (cheb 1) hit
    assert env.enemy_pos[0] == [2, 0]


def test_sk_dead_agents_zero_obs_and_frozen():
    env = make_env("sk3-sp", 10)
    env.agent_hp[1] = 0
    pos = list(env.agent_pos[1])
    res = env.step([4, 4, 4])
    assert not res.obs[1].any()
    assert env.agent_pos[1] == pos


def test_sk_timeout_done():
    env = make_env("sk3", 11)
    env.agent_pos = [[0, 0], [0, 1], [1, 0]]
    env.enemy_pos = [[9, 9], [9, 8], [8, 9]]
    env.enemy_hp = [10 ** 6] * 3  # unkillable; run out the clock
    steps = 0
    while True:
        res = env.step([4, 4, 4])
        steps += 1
        if res.done:
            break
        # keep the teams apart so nobody dies
        env.agent_pos = [[0, 0], [0, 1], [1, 0]]
        env.enemy_pos = [[9, 9], [9, 8], [8, 9]]
    assert steps <= 60 and not res.win


# ------------------------------------------------------------ observations

def test_obs_layout_pp():
    env = make_env("pp", 1)
    env.agent_pos = [[7, 7], [0, 0], [13, 13], [3, 3]]
    env.prey_pos = [[7, 9], [6, 6]]
    env.prey_alive = [True, True]
    obs = env._obs()
    assert abs(obs[0, 0] - 7 / 13) < 1e-12
    # prey at relative (0, +2) -> window cell (2, 4); at (-1, -1) -> (1, 1)
    assert obs[0, TARGET_OFF + 2 * 5 + 4] == 1.0
    assert obs[0, TARGET_OFF + 1 * 5 + 1] == 1.0
    # self at window center, counted once over N
    assert obs[0, AGENT_OFF + 2 * 5 + 2] == 0.25
    assert obs[0, STATUS_OFF] == 0.0


def test_obs_layout_lj_levels():
    env = make_env("lj", 2)
    env.agent_pos = [[4, 4], [4, 5], [0, 0], [7, 7]]
    env.tree_pos[0] = [4, 3]
    env.tree_level[0] = 3
    env.tree_alive = [True] + [False] * 7
    obs = env._obs()
    assert abs(obs[0, TARGET_OFF + 2 * 5 + 1] - 0.75) < 1e-12
    # two agents visible in the window (self + neighbor)
    assert abs(obs[0, AGENT_OFF:STATUS_OFF].sum() - 0.5) < 1e-12


def test_obs_layout_sk_distance_binning():
    env = make_env("sk3", 3)
    env.agent_pos = [[5, 5], [0, 0], [0, 9]]
    env.enemy_pos = [[5, 8], [2, 5], [9, 9]]
    env.agent_hp = [2, 2, 2]
    obs = env._obs()
    # enemy at distance 3 east: bin col round(3*2/3)+2 = 4, value 1/4
    assert abs(obs[0, TARGET_OFF + 2 * 5 + 4] - 0.25) < 1e-12
    # enemy at distance 3 north: bin row 0, value 1/4
    assert abs(obs[0, TARGET_OFF + 0 * 5 + 2] - 0.25) < 1e-12
    # far enemy (9,9) invisible; allies out of range; self visible
    assert abs(obs[0, AGENT_OFF:STATUS_OFF].sum() - 1 / 3) < 1e-12
    assert abs(obs[0, STATUS_OFF] - 2 / 3) < 1e-12


# ----------------------------------------------------------------- oracles

def _obs_with(target_cells=(), agent_share=0.0):
    o = np.zeros(OBS_DIM)
    for idx, val in target_cells:
        o[TARGET_OFF + idx] = val
    o[AGENT_OFF] = agent_share
    return o


def _bit(family, o, reward, kind=KIND_NONE):
    """oracle_bits on a one-step episode of the single observation o."""
    bits = oracle_bits(family, o[None, None], [reward], [kind])
    assert bits.shape == (1, 1) and bits.dtype == np.uint8
    return int(bits[0, 0])


def test_oracle_pp_cases():
    seen = _obs_with([(7, 1.0)])
    assert _bit("pp", seen, 4.99) == 1
    assert _bit("pp", seen, -0.01) == 0
    assert _bit("pp", _obs_with(), 4.99) == 0


def test_oracle_lj_cases():
    # tree level 2 of 4 visible, 2 agents visible
    o = _obs_with([(3, 0.5)], agent_share=0.5)
    assert _bit("lj", o, 4.9) == 1
    # level 3 visible, only 2 agents seen
    o = _obs_with([(3, 0.75)], agent_share=0.5)
    assert _bit("lj", o, 4.9) == 0
    assert _bit("lj", _obs_with(agent_share=1.0), 4.9) == 0
    assert _bit("lj", _obs_with([(3, 0.5)], 0.5), -0.1) == 0


def test_oracle_sk_cases():
    seen = _obs_with([(12, 0.75)])
    unseen = _obs_with()
    assert _bit("sk", seen, 1 / 9, KIND_INTERMEDIATE) == 1
    assert _bit("sk", unseen, 1 / 9, KIND_INTERMEDIATE) == 0
    # the win bonus credits everyone, even an all-zero (dead) observer
    assert _bit("sk", unseen, 10.0, KIND_WIN) == 1
    assert _bit("sk", seen, 0.0, KIND_NONE) == 0


@given(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_oracle_zero_for_nonpositive_reward(r):
    o = _obs_with([(0, 1.0)], agent_share=1.0)
    assert _bit("pp", o, r) == 0
    assert _bit("lj", o, r) == 0
    assert _bit("sk", o, r, KIND_INTERMEDIATE) == 0


def test_episode_ground_truth_existential():
    # no positive rewards -> all zero
    obs = np.zeros((3, 2, OBS_DIM))
    assert episode_ground_truth_arrays(
        "pp", obs, [-0.01] * 3, [KIND_NONE] * 3).tolist() == [0, 0]
    # agent 0 saw the prey at the rewarded step, agent 1 never did
    obs[1, 0, TARGET_OFF] = 1.0
    bits = episode_ground_truth_arrays(
        "pp", obs, [-0.01, 4.99, -0.01],
        [KIND_NONE, KIND_INTERMEDIATE, KIND_NONE])
    assert bits.tolist() == [1, 0]
    # a win step flips everyone on in skirmish
    bits = episode_ground_truth_arrays(
        "sk", np.zeros((2, 2, OBS_DIM)), [0.0, 10.2], [KIND_NONE, KIND_WIN])
    assert bits.tolist() == [1, 1]


# ------------------------------------------------------ random-rollout sweep

@pytest.mark.parametrize("env_id", ["pp", "pp-sp", "lj", "lj-sp",
                                    "sk3", "sk3-sp", "sk5", "sk5-sp"])
def test_invariants_random_rollouts(env_id):
    for seed in range(25):
        rollout_random(env_id, seed * 31 + 5, check=full_check)


def test_scripted_policy_wins():
    wins = 0
    for seed in range(20):
        env = make_env("sk3-sp", seed)
        pol = ScriptedPolicy(seed=seed, lazy_prob=0.0)
        pol.begin_episode(env)
        while True:
            res = env.step(pol.act(env))
            if res.done:
                wins += res.win
                break
    assert wins >= 18


# --------------------------------------- scalar envs against the reference

def assert_same_array(a, b, what):
    assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), what
    assert (a.dtype, a.shape) == (b.dtype, b.shape), what
    assert a.tobytes() == b.tobytes(), what


def assert_same_state(env, ref):
    """Every state attribute as an array, the clock and the generator
    state."""
    for name in STATE:
        assert hasattr(env, name) == hasattr(ref, name), name
        if hasattr(ref, name):
            assert_same_array(np.array(getattr(env, name)),
                              getattr(ref, name), name)
    assert (env.t, env.done) == (ref.t, ref.done)
    assert env.rng.bit_generator.state == ref.rng.bit_generator.state


def assert_same_result(res, ref):
    """Every StepResult field: its type, and its dtype and bytes."""
    for name in ("obs", "reward", "done", "kind", "win", "events"):
        a, b = getattr(res, name), getattr(ref, name)
        assert type(a) is type(b), name
        if isinstance(b, np.ndarray):
            assert_same_array(a, b, name)
        else:
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), name


def crafted(env_id, seed, state):
    """A fresh env with the given state, as lists of its own types."""
    env = make_env(env_id, seed)
    for name, value in state.items():
        kind = np.array(getattr(env, name)).dtype
        setattr(env, name, np.array(value, dtype=kind).tolist())
    return env


def twin_envs(env_id, seed, **state):
    """The env and its reference, both with the given state: lists on
    the env, arrays of the reference's dtypes on the reference."""
    env, ref = crafted(env_id, seed, state), R.make_env(env_id, seed)
    for name, value in state.items():
        setattr(ref, name, np.array(value, dtype=getattr(ref, name).dtype))
    assert_same_state(env, ref)
    assert_same_array(env._obs(), ref._obs(), "obs")
    return env, ref


def step_twins(env, ref, actions):
    res, want = env.step(actions), ref.step(actions)
    assert_same_result(res, want)
    assert_same_state(env, ref)
    return res


def run_twins(env_id, seed, how):
    """One episode of the env and its reference on the same actions,
    random, all-stay or scripted (each side its own policy)."""
    env, ref = twin_envs(env_id, seed)
    env.reset(seed)
    assert_same_array(env._obs(), ref.reset(seed), "reset obs")
    assert_same_state(env, ref)
    spec = env.spec
    rng = np.random.default_rng(seed + 1)
    pol = ScriptedPolicy(seed=seed, lazy_prob=0.5)
    ref_pol = R.ScriptedPolicy(seed=seed)
    pol.begin_episode(env)
    ref_pol.begin_episode(ref)
    history = []
    while not env.done:
        if how == "random":
            a = rng.integers(0, spec.n_actions, size=spec.n_agents)
        elif how == "stay":
            a = np.full(spec.n_agents, A_STAY)
        else:
            a, want = pol.act(env), ref_pol.act(ref)
            assert_same_array(a, want, "scripted actions")
            assert (pol.rng.bit_generator.state
                    == ref_pol.rng.bit_generator.state)
        history.append(step_twins(env, ref, a).obs)
    return history


@pytest.mark.parametrize("how", ["random", "stay", "scripted"])
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_scalar_env_matches_reference(env_id, how):
    for seed in range(6):
        history = run_twins(env_id, seed * 17 + 3, how)
        # every step hands out a fresh observation array
        assert len({id(o) for o in history}) == len(history)


def test_scripted_policy_without_begin_episode_matches_reference():
    for env_id in ENV_IDS:
        env, ref = twin_envs(env_id, 4)
        pol = ScriptedPolicy(seed=1, lazy_prob=0.5)
        ref_pol = R.ScriptedPolicy(seed=1)
        while not env.done:
            a = pol.act(env)
            assert_same_array(a, ref_pol.act(ref), env_id)
            step_twins(env, ref, a)


def step_batch(batch, envs, actions):
    """Step the batch on (E, N) actions and its scalar twins, one per row
    and each on its row; compare every result field, each generator, the
    rows dropped and the state of the rows kept.  Returns the twins still
    running."""
    gens = list(batch.rngs)
    res = batch.step(actions)
    want = [env.step(a) for env, a in zip(envs, actions)]
    for name, dtype in (("reward", np.float64), ("done", np.bool_),
                        ("kind", np.int64), ("win", np.bool_)):
        assert_same_array(getattr(res, name), np.array(
            [getattr(w, name) for w in want], dtype=dtype), name)
    assert_same_array(res.events, np.stack([w.events for w in want]),
                      "events")
    for gen, env in zip(gens, envs):
        assert gen.bit_generator.state == env.rng.bit_generator.state
    running = [env for env in envs if not env.done]
    assert len(batch.rngs) == len(running)
    if not running:
        assert res.obs.shape == (0,) + res.events.shape[1:] + (OBS_DIM,)
        return running
    assert_same_array(res.obs, np.stack([w.obs for w in want if not w.done]),
                      "obs")
    for name in ("t",) + STATE:
        if hasattr(envs[0], name):
            assert_same_array(getattr(batch, name),
                              np.array([getattr(e, name) for e in running]),
                              name)
    return running


class Twins:
    """A crafted state on the scalar env and its reference, and on row 0
    of a two-row batch whose row 1 holds the same state from the next
    seed; each batch row has a scalar twin of its own."""

    def __init__(self, env_id, seed, **state):
        self.env, self.ref = twin_envs(env_id, seed, **state)
        seeds = (seed, seed + 1)
        self.rows = [crafted(env_id, s, state) for s in seeds]
        self.batch = make_batch([crafted(env_id, s, state) for s in seeds])

    def step(self, actions):
        if self.rows:
            self.rows = step_batch(self.batch, self.rows,
                                   [actions] * len(self.rows))
        return step_twins(self.env, self.ref, actions)


def test_reference_lj_four_agents_on_level_four_tree():
    tw = Twins("lj", 4, tree_pos=[[4, 4]] * 2 + [[0, 7 - k] for k in range(6)],
               tree_level=[4, 4, 1, 1, 2, 3, 4, 1],
               agent_pos=[[4, 4], [4, 4], [4, 5], [4, 3]])
    res = tw.step([4, 4, 2, 3])  # the last two step onto it
    assert res.events.tolist() == [2, 2, 2, 2]  # both trees on the cell
    assert abs(res.reward - 9.9) < 1e-12
    for a in ([4, 4, 4, 4], [0, 1, 2, 3]):
        tw.step(a)


def test_reference_pp_two_preys_on_one_cell():
    tw = Twins("pp", 2, prey_pos=[[6, 6], [6, 6]],
               agent_pos=[[5, 6], [6, 7], [0, 0], [13, 13]])
    res = tw.step([4, 4, 4, 4])
    assert res.events.tolist() == [2, 2, 0, 0] and res.win
    assert not tw.rows   # both rows won and were dropped
    # one of two preys caught; the other keeps moving
    tw = Twins("pp", 3, prey_pos=[[6, 6], [6, 6]], prey_alive=[True, False],
               agent_pos=[[5, 6], [0, 0], [13, 13], [0, 13]])
    for _ in range(10):
        tw.step([4, 4, 4, 4])


def test_reference_sk_dead_agents():
    # agent 1 is dead: it neither moves nor attacks nor observes
    tw = Twins("sk3", 5, agent_hp=[1, 0, 2],
               agent_pos=[[5, 5], [5, 6], [0, 0]],
               enemy_pos=[[5, 7], [6, 6], [9, 9]])
    res = tw.step([5, 5, 1])
    assert not res.obs[1].any()
    for a in ([5, 5, 5], [0, 1, 2], [4, 4, 4], [5, 0, 5]):
        if tw.env.done:
            break
        tw.step(a)
    # every agent dead: the enemies stop and the episode ends
    tw = Twins("sk5", 7, agent_hp=[0, 0, 1, 0, 0],
               agent_pos=[[5, 5], [5, 6], [5, 7], [0, 0], [9, 9]],
               enemy_pos=[[4, 7], [9, 0], [0, 9], [8, 8], [2, 2]])
    res = tw.step([5, 5, 4, 5, 5])
    assert res.done and not res.win and not res.obs.any()


def test_reference_sk_ties_on_distance():
    # agent 0 sees enemies 1 and 2 at Chebyshev distance 2, enemy 0 is
    # dead; enemy 1 has agents 0 and 2 at distance 2, enemy 2 is out of
    # range of all and moves along a tied gap
    tw = Twins("sk3", 8, enemy_hp=[0, 3, 3],
               agent_pos=[[5, 5], [0, 0], [3, 5]],
               enemy_pos=[[5, 6], [3, 7], [7, 3]])
    for a in ([5, 4, 4], [5, 4, 5], [4, 4, 4], [5, 5, 5]):
        if tw.env.done:
            break
        tw.step(a)
    tw = Twins("sk3-sp", 9, agent_pos=[[0, 0], [0, 9], [9, 0]],
               enemy_pos=[[5, 5]])
    for _ in range(4):
        tw.step([4, 4, 4])


# ------------------------------------------- batches against scalar envs

@pytest.mark.parametrize("how", ["random", "stay", "scripted"])
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_batch_matches_scalar_envs(env_id, how):
    # E = 2, 7 and 16 envs; the scripted actions are each env's own
    # policy on its scalar twin
    spec = env_spec(env_id)
    ends = set()   # the steps at which rows were dropped
    for E in (2, 7, 16):
        seeds = [E * 31 + k for k in range(E)]
        batch = make_batch([make_env(env_id, s) for s in seeds])
        envs = [make_env(env_id, s) for s in seeds]
        assert_same_array(batch._obs(), np.stack([env._obs() for env in envs]),
                          "first obs")
        policies = {}
        for env, s in zip(envs, seeds):
            policies[id(env)] = ScriptedPolicy(seed=s, lazy_prob=0.5)
            policies[id(env)].begin_episode(env)
        rng = np.random.default_rng(E)
        running = envs
        while running:
            shape = (len(running), spec.n_agents)
            if how == "random":
                a = rng.integers(0, spec.n_actions, size=shape)
            elif how == "stay":
                a = np.full(shape, A_STAY)
            else:
                a = np.stack([policies[id(env)].act(env) for env in running])
            kept = step_batch(batch, running, a)
            if len(kept) < len(running):
                ends.add(running[0].t)
            running = kept
    # episodes ended at different steps; standing still, only skirmish
    # enemies end one, and no lj episode clears eight trees early
    if (how != "stay" or spec.family == "sk") and env_id != "lj":
        assert len(ends) > 1, ends

