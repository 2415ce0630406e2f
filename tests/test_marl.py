"""Q-learning stack: schedules, masks, replay, learners, training loop."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from camarl.envs import ENV_IDS, OBS_DIM, env_spec, make_env, oracle_bits
from camarl.envs.scripted import ScriptedPolicy
from camarl.errors import ConfigurationError, UsageError
from camarl.marl import (
    AgentLearner, EpisodeRecord, ReplayBuffer, TrainConfig, build_batch,
    collect_episode, collect_episodes, epsilon_at, evaluate, load_learners,
    masked_rewards, oracle_episode_bits, read_run, team_policy, train,
    write_log,
)
from camarl.marl.agent import PARAM_NAMES
from camarl.marl.evaluate import _T975, return_ci95
from camarl.nn import kernels


# ------------------------------------------------------------------ schedule

def test_epsilon_schedule_endpoints():
    assert epsilon_at(0, 1.0, 0.05, 50_000) == 1.0
    assert epsilon_at(50_000, 1.0, 0.05, 50_000) == 0.05
    assert epsilon_at(123_456, 1.0, 0.05, 50_000) == 0.05
    assert abs(epsilon_at(25_000, 1.0, 0.05, 50_000) - 0.525) < 1e-12
    with pytest.raises(UsageError):
        epsilon_at(-1, 1.0, 0.05, 50_000)


def test_epsilon_schedule_custom_range():
    assert epsilon_at(0, 1.0, 0.05, anneal_episodes=100) == 1.0
    assert abs(epsilon_at(50, 1.0, 0.05, anneal_episodes=100) - 0.525) < 1e-12
    assert epsilon_at(100, 1.0, 0.05, anneal_episodes=100) == 0.05
    assert epsilon_at(5, 0.5, 0.25, anneal_episodes=10) == 0.375


# ------------------------------------------------------------------- masking

def masked_reward(reward: float, c_bit: int, strict: bool = False) -> float:
    """Scalar reference of the mask that masked_rewards vectorises."""
    if strict or reward > 0:
        return c_bit * reward
    return reward


def test_masked_reward_policy():
    assert masked_reward(5.0, 0) == 0.0
    assert masked_reward(5.0, 1) == 5.0
    assert masked_reward(-0.01, 0) == -0.01
    assert masked_reward(-0.01, 1) == -0.01
    assert masked_reward(0.0, 0) == 0.0
    # strict variant masks everything
    assert masked_reward(-0.01, 0, strict=True) == 0.0
    assert masked_reward(-0.01, 1, strict=True) == -0.01


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=20),
       st.booleans())
@settings(max_examples=50, deadline=None)
def test_masked_rewards_matches_scalar(rs, strict):
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(len(rs), 3)).astype(np.uint8)
    out = masked_rewards(rs, bits, strict)
    for t, r in enumerate(rs):
        for i in range(3):
            assert out[t, i] == masked_reward(r, bits[t, i], strict)


# -------------------------------------------------------------------- replay

def _stub_item(tag):
    # what train pushes: (obs, actions, masked rewards), tagged by obs
    L, n = 3, 2
    return (np.full((L, n, OBS_DIM), tag, dtype=np.float32),
            np.zeros((L, n), dtype=np.int64), np.zeros((L, n)))


def _tags(items):
    return [int(obs[0, 0, 0]) for obs, _, _ in items]


def test_replay_fifo_eviction():
    buf = ReplayBuffer(capacity=50)
    for k in range(60):
        buf.push(_stub_item(k))
    assert _tags(buf._buf) == list(range(10, 60))


def test_replay_sample_without_replacement():
    buf = ReplayBuffer(capacity=10)
    items = [_stub_item(k) for k in range(10)]
    for item in items:
        buf.push(item)
    rng = np.random.default_rng(0)
    got = buf.sample(10, rng)
    assert sorted(_tags(got)) == list(range(10))
    # the buffer hands back the pushed arrays themselves
    assert all(any(g is item for item in items) for g in got)
    # batch larger than the buffer is capped
    assert len(buf.sample(99, rng)) == 10


def test_replay_empty_sample_raises():
    with pytest.raises(UsageError):
        ReplayBuffer(5).sample(1, np.random.default_rng(0))


def _stub_episode():
    L, n = 3, 2
    return EpisodeRecord(env_id="lj-sp",
                         obs=np.zeros((L, n, OBS_DIM), dtype=np.float32),
                         actions=np.zeros((L, n), dtype=np.int64),
                         rewards=np.zeros(L), kinds=np.zeros(L, dtype=np.int64),
                         win=False, events=np.zeros(n, dtype=np.int64))


def test_episode_record_validation():
    # records come only from the rollout loop, whose fields agree in
    # shape on every family; the bits are the trainer's to decide, and
    # the env seed its caller's
    stub = _stub_episode()
    assert not hasattr(stub, "bits") and not hasattr(stub, "seed")
    for env_id in ("pp", "lj", "sk3"):
        spec, _, ep = _collect(env_id)
        L, n = ep.length, spec.n_agents
        assert L >= 1 and ep.obs.shape == (L, n, OBS_DIM)
        for name, shape in (("actions", (L, n)), ("rewards", (L,)),
                            ("kinds", (L,)), ("events", (n,))):
            assert getattr(ep, name).shape == shape, (env_id, name)
        assert not hasattr(ep, "bits")


# ----------------------------------------------------------------- learners

def _learner(seed=0, obs_dim=6, n_actions=4, n_hidden=8):
    # one agent: the row view of a team of one
    return AgentLearner(obs_dim, n_actions, n_hidden, seed=[seed])[0]


def _zero_params(ln):
    ln.params.data[...] = 0.0
    ln.sync_target()


NO_PREV = np.array([-1])


def test_select_action_uniform_at_full_epsilon():
    ln = _learner()
    rng = np.random.default_rng(7)
    h = ln.initial_hidden()
    obs = np.zeros((1, 6))
    counts = np.zeros(4)
    for _ in range(10_000):
        a, _ = ln.act(obs, NO_PREV, h, 1.0, rng)
        counts[a[0]] += 1
    assert a.shape == (1,)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_select_action_greedy_and_tiebreak():
    ln = _learner()
    _zero_params(ln)
    ln.params["head.b"][...]= [0.0, 0.0, 1.0, 0.0]
    rng = np.random.default_rng(0)
    a, h = ln.act(np.ones((1, 6)), NO_PREV, ln.initial_hidden(), 0.0, rng)
    np.testing.assert_array_equal(a, [2])
    assert h.shape == (1, 1, 8)
    # all-equal Q values resolve to the lowest action index
    ln.params["head.b"][...]= 0.0
    a, _ = ln.act(np.ones((1, 6)), NO_PREV, ln.initial_hidden(), 0.0, rng)
    np.testing.assert_array_equal(a, [0])
    # every row of a stack takes its own argmax
    a, h = ln.act(np.ones((3, 6)), np.full(3, -1), ln.initial_hidden(3), 0.0,
                  rng)
    np.testing.assert_array_equal(a, [0, 0, 0])
    assert h.shape == (3, 1, 8)


def test_no_parameter_sharing():
    a, b = _learner(seed=1), _learner(seed=2)
    obs = np.ones((1, 6))
    q_before, _ = b.q_values(obs, NO_PREV, b.initial_hidden())
    a.params.data += 123.0
    q_after, _ = b.q_values(obs, NO_PREV, b.initial_hidden())
    np.testing.assert_array_equal(q_before, q_after)


def test_q_values_rows_match_unroll_with_prev_one_hot():
    # each stacked row equals a one-step unroll of its own input, whose
    # previous-action one-hot is built by hand (none for -1)
    ln = _learner(seed=5)
    rng = np.random.default_rng(5)
    prev = np.array([-1, 0, 1, 2, 3])
    obs = rng.random((5, 6))
    hidden = rng.standard_normal((5, 1, 8))
    q, h = ln.q_values(obs, prev, hidden)
    assert q.shape == (5, 4) and h.shape == (5, 1, 8)
    for e in range(5):
        x = np.zeros((1, 1, ln.n_in))
        x[0, 0, :6] = obs[e]
        if prev[e] >= 0:
            x[0, 0, 6 + prev[e]] = 1.0
        Q, Hs, *_ = kernels.qnet_unroll_fwd(x, hidden[e], [1],
                                            *ln._weights())
        assert Q[0, 0].tobytes() == q[e].tobytes()
        assert Hs[0].tobytes() == h[e].tobytes()


@pytest.mark.parametrize("obs, prev, hidden", [
    (np.zeros(6), NO_PREV, (1, 1, 8)),        # one observation, not a row
    (np.zeros((1, 5)), NO_PREV, (1, 1, 8)),
    (np.zeros((1, 6)), -1, (1, 1, 8)),        # scalar previous action
    (np.zeros((1, 6)), np.array([-1, -1]), (1, 1, 8)),
    (np.zeros((1, 6)), NO_PREV, (1, 8)),      # hidden without its row axis
    (np.zeros((1, 6)), NO_PREV, (2, 1, 8)),
    (np.zeros((1, 6)), NO_PREV, (1, 1, 7)),
    (np.zeros((2, 1, 6)), np.full(2, -1), (2, 1, 8)),
], ids=["obs-1d", "obs-width", "prev-scalar", "prev-rows", "hidden-2d",
        "hidden-rows", "hidden-width", "obs-3d"])
def test_acting_rejects_misshapen_rows(obs, prev, hidden):
    ln = _learner()
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        ln.q_values(obs, prev, np.zeros(hidden))
    with pytest.raises(UsageError):
        ln.act(obs, prev, np.zeros(hidden), 0.0, rng)


def test_exploration_takes_one_row():
    ln = _learner()
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        ln.act(np.zeros((2, 6)), np.full(2, -1), ln.initial_hidden(2), 0.5,
               rng)
    obs = np.zeros((2, 2, 6))
    team = AgentLearner(6, 4, 8, seed=[0, 1])
    with pytest.raises(UsageError):
        team_policy(team, 0.5, rng)(obs, None)
    # greedy lockstep and single-env exploration are both allowed
    assert team_policy(team)(obs, None).shape == (2, 2)
    assert team_policy(team, 0.5, rng)(obs[:1], None).shape == (1, 2)


def _team_and_singles(n=3, **kw):
    return (AgentLearner(6, 4, 8, seed=list(range(n)), **kw),
            [AgentLearner(6, 4, 8, seed=[i], **kw)[0] for i in range(n)])


def test_team_acting_matches_per_agent_acting():
    team, singles = _team_and_singles()
    rng = np.random.default_rng(3)
    E = 5
    obs = rng.random((E, 3, 6))
    prev = rng.integers(-1, 4, size=(E, 3))
    hidden = rng.standard_normal((E, 3, 1, 8))
    q, h = team.q_values(obs, prev, hidden)
    acts, _ = team.act(obs, prev, hidden, 0.0, rng)
    assert q.shape == (E, 3, 4) and h.shape == (E, 3, 1, 8)
    for i, ln in enumerate(singles):
        q_i, h_i = ln.q_values(obs[:, i], prev[:, i], hidden[:, i])
        assert q[:, i].tobytes() == q_i.tobytes()
        assert h[:, i].tobytes() == h_i.tobytes()
        a_i, _ = ln.act(obs[:, i], prev[:, i], hidden[:, i], 0.0, rng)
        np.testing.assert_array_equal(acts[:, i], a_i)
    # exploration draws in agent order, exactly as the agents one by one
    rng_team, rng_each = np.random.default_rng(9), np.random.default_rng(9)
    for t in range(40):
        a, _ = team.act(obs[t % E:t % E + 1], prev[:1], hidden[:1], 0.5,
                        rng_team)
        for i, ln in enumerate(singles):
            a_i, _ = ln.act(obs[t % E:t % E + 1, i], prev[:1, i],
                            hidden[:1, i], 0.5, rng_each)
            assert a[0, i] == a_i[0]
        assert rng_team.bit_generator.state == rng_each.bit_generator.state
    with pytest.raises(UsageError):
        team.act(obs, prev, hidden, 0.5, rng)
    with pytest.raises(UsageError):
        team.q_values(obs[:, 0], prev[:, 0], hidden[:, 0])


def test_team_train_steps_match_per_agent_steps():
    # every third update clips some agents and not others
    team, singles = _team_and_singles(grad_clip=0.05)
    rng = np.random.default_rng(12)
    for step in range(6):
        T, B = 5, 3
        X = np.zeros((3, T, B, 10))
        X[..., :6] = rng.random((3, T, B, 6))
        a = rng.integers(0, 4, size=(3, T, B))
        r = rng.normal(size=(3, T, B)) * (10.0 if step % 3 == 0 else 0.01)
        lengths = np.array([5, 5, 3])
        r[:, 3:, 2] = 0.0
        losses = team.train_step(X, a, r, lengths, 0.99)
        for i, ln in enumerate(singles):
            loss = ln.train_step(X[i], a[i], r[i], lengths, 0.99)
            assert np.float64(loss).tobytes() == losses[i].tobytes()
        if step % 2:
            team.sync_target()
            for ln in singles:
                ln.sync_target()
    assert len(list(team)) == 3
    for i, (view, ln) in enumerate(zip(team, singles)):
        assert view.last_loss == ln.last_loss
        assert view.last_loss.shape == ()
        assert np.shares_memory(view.params.data, team.params.data[i])
        got, want = view.state_arrays(), ln.state_arrays()
        assert list(got) == list(want)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), (i, k)


def test_team_row_views():
    team, singles = _team_and_singles()
    for view, ln in zip(team, singles):
        assert view.params.data.tobytes() == ln.params.data.tobytes()
        assert view.target_data.tobytes() == ln.target_data.tobytes()
    assert np.isnan(team.last_loss).all() and np.isnan(team[0].last_loss)
    # a view writes through to the team
    team[2].params["head.b"][...] = 1.0
    np.testing.assert_array_equal(team.params["head.b"][2], 1.0)
    with pytest.raises(IndexError):
        team[3]


def _manual_batch(ln, rewards, n_steps, action=0):
    T, B = n_steps, 1
    X = np.zeros((T, B, ln.n_in))
    actions = np.full((T, B), action, dtype=np.int64)
    rew = np.zeros((T, B))
    rew[:, 0] = rewards
    return X, actions, rew, np.array([T])


def padded_td_loss_and_grads(team, X, actions, rewards, lengths, gamma):
    """The padded TD update the packed one replaced, kept as reference.

    Every step of the online unroll and of the target pass runs every
    row; valid and terminal flags derived from lengths mask the TD error
    and the bootstrap.  Returns the loss and the gradients by parameter
    name, leaving team.params untouched.
    """
    T, B = X.shape[-3:-1]
    valid = (np.arange(T)[:, None] < lengths).astype(np.float64)
    terminal = np.zeros((T, B))
    terminal[lengths - 1, np.arange(B)] = 1.0
    n_valid = valid.sum()
    h0 = np.zeros(team.lead + (B, team.n_hidden))
    every_row = [B] * T
    w = team._online
    Q, *cache = kernels.qnet_unroll_fwd(X, h0, every_row, *w)
    target, h = np.empty_like(Q), h0
    for t in range(T):
        target[..., t, :, :], h = kernels.qnet_step(X[..., t, :, :], h,
                                                    *team._target)
    boot = np.zeros(Q.shape[:-1])
    boot[..., :-1, :] = target[..., 1:, :, :].max(axis=-1)
    y = rewards + gamma * boot * (1.0 - terminal)
    qa = np.take_along_axis(Q, actions[..., None], axis=-1)[..., 0]
    diff = (qa - y) * valid
    loss = (diff ** 2).reshape(team.lead + (-1,)).sum(axis=-1) / n_valid
    dQ = np.zeros_like(Q)
    np.put_along_axis(dQ, actions[..., None],
                      (2.0 * diff / n_valid)[..., None], axis=-1)
    grads = kernels.qnet_unroll_bwd(X, h0, every_row, *cache, w[0], w[1],
                                    w[4], dQ)
    return loss, dict(zip(PARAM_NAMES, grads))


@st.composite
def packed_batches(draw, one_length=False):
    """(N, T, lengths, seed): a team size, a padded length and B lengths
    in 1..T, longest first; one_length gives every episode length T."""
    T = draw(st.integers(1, 8))
    B = draw(st.integers(1, 6))
    lengths = ([T] * B if one_length else sorted(
        draw(st.lists(st.integers(1, T), min_size=B, max_size=B)),
        reverse=True))
    return draw(st.integers(1, 3)), T, lengths, draw(st.integers(0, 2 ** 16))


def _packed_update_both_ways(N, T, lengths, seed):
    """The packed update and the padded reference on one random batch,
    with junk inputs and actions past each length: (loss, grads) each."""
    rng = np.random.default_rng(seed)
    team = AgentLearner(5, 4, 8, seed=[seed + i for i in range(N)])
    team.target_data += rng.normal(scale=0.3, size=team.target_data.shape)
    lengths = np.array(lengths)
    B = len(lengths)
    live = np.arange(T)[:, None] < lengths
    X = np.where(live[..., None], rng.random((N, T, B, team.n_in)),
                 rng.normal(scale=50.0, size=(N, T, B, team.n_in)))
    actions = rng.integers(0, 4, size=(N, T, B))
    rewards = rng.normal(size=(N, T, B)) * live
    want = padded_td_loss_and_grads(team, X, actions, rewards, lengths, 0.9)
    loss = team.td_loss_and_grads(X, actions, rewards, lengths, 0.9)
    return (loss, dict(team.params.grads)), want


@settings(max_examples=60, deadline=None)
@given(packed_batches())
@example((2, 5, [5, 3, 1, 1], 0))     # lengths T and 1
@example((1, 4, [2], 1))              # a single row, shorter than T
@example((3, 6, [6, 6, 2], 2))
def test_packed_update_matches_padded_reference(batch):
    (loss, grads), (want_loss, want_grads) = _packed_update_both_ways(*batch)
    for name, got, ref in [("loss", loss, want_loss),
                           *((k, grads[k], want_grads[k])
                             for k in PARAM_NAMES)]:
        assert got.shape == ref.shape, name
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


@settings(max_examples=30, deadline=None)
@given(packed_batches(one_length=True))
@example((1, 1, [1], 0))
def test_packed_update_on_one_length_is_the_padded_update(batch):
    (loss, grads), (want_loss, want_grads) = _packed_update_both_ways(*batch)
    assert loss.tobytes() == want_loss.tobytes()
    for k in PARAM_NAMES:
        assert grads[k].tobytes() == want_grads[k].tobytes(), k


def test_td_loss_terminal_exact_target():
    ln = _learner()
    _zero_params(ln)
    ln.params["head.b"][...]= [5.0, 0.0, 0.0, 0.0]
    ln.sync_target()
    X, a, r, lengths = _manual_batch(ln, [5.0], 1)
    loss = ln.td_loss_and_grads(X, a, r, lengths, gamma=0.99)
    assert loss == 0.0
    ln.params.grad.fill(0.0)


def test_td_loss_masked_terminal_zero_target():
    ln = _learner()
    _zero_params(ln)
    X, a, r, lengths = _manual_batch(ln, [masked_reward(5.0, 0)], 1)
    loss = ln.td_loss_and_grads(X, a, r, lengths, gamma=0.99)
    assert loss == 0.0
    ln.params.grad.fill(0.0)


def test_td_loss_bootstrap_value():
    # nonterminal step: r=0, max target Q = 1, online Q = 0
    # -> squared error 0.99^2 = 0.9801 on that step, 0 on the terminal one
    ln = _learner()
    _zero_params(ln)
    for k, arr in ln.target.items():
        arr[...] = 0.0
    ln.target["head.b"][...] = [1.0, 0.0, 0.0, 0.0]
    X, a, r, lengths = _manual_batch(ln, [0.0, 0.0], 2)
    loss = ln.td_loss_and_grads(X, a, r, lengths, gamma=0.99)
    assert abs(loss - 0.9801 / 2) < 1e-12
    ln.params.grad.fill(0.0)


@pytest.mark.parametrize("lengths", [
    [2, 2],                      # one length too many
    [[2]],                       # not (B,)
    [2.0],                       # not integers
    [True],                      # booleans are no lengths
    [0],                         # empty episode
    [3],                         # longer than the batch
], ids=["count", "shape", "float", "bool", "zero", "beyond-T"])
def test_td_loss_refuses_lengths(lengths):
    ln = _learner()
    X, a, r, _ = _manual_batch(ln, [0.0, 1.0], 2)
    with pytest.raises(UsageError, match="lengths"):
        ln.td_loss_and_grads(X, a, r, lengths, gamma=0.99)
    assert not ln.params.grad.any()


def test_td_loss_refuses_increasing_lengths():
    ln = _learner()
    X, a, r, _ = _manual_batch(ln, [0.0, 1.0], 2)
    X, a, r = (np.concatenate([arr, arr], axis=1) for arr in (X, a, r))
    with pytest.raises(UsageError, match="non-increasing"):
        ln.td_loss_and_grads(X, a, r, [1, 2], gamma=0.99)


def test_td_loss_empty_batch_raises():
    ln = _learner()
    X, a, r, _ = _manual_batch(ln, [0.0], 1)
    with pytest.raises(UsageError, match="lengths"):
        ln.td_loss_and_grads(X[:, :0], a[:, :0], r[:, :0],
                             np.zeros(0, dtype=np.int64), gamma=0.99)


def test_td_loss_ignores_padding():
    ln = _learner(seed=5)
    X, a, r, lengths = _manual_batch(ln, [1.0, 0.5], 2)
    loss_short = ln.td_loss_and_grads(X, a, r, lengths, 0.99)
    g_short = {k: g.copy() for k, g in ln.params.grads.items()}
    ln.params.grad.fill(0.0)
    # same episode padded by two junk steps past its length; the packed
    # update never reads inputs or actions there, and rewards there are
    # zero, as build_batch pads them
    X2 = np.concatenate([X, np.ones((2, 1, ln.n_in)) * 9.0])
    a2 = np.concatenate([a, np.ones((2, 1), dtype=np.int64)])
    r2 = np.concatenate([r, np.zeros((2, 1))])
    loss_pad = ln.td_loss_and_grads(X2, a2, r2, lengths, 0.99)
    assert abs(loss_short - loss_pad) < 1e-12
    for k, g in ln.params.grads.items():
        np.testing.assert_allclose(g, g_short[k], rtol=1e-12, atol=1e-14)
    ln.params.grad.fill(0.0)


def test_target_constant_between_syncs():
    ln = _learner(seed=9)
    X, a, r, lengths = _manual_batch(ln, [1.0, -0.5, 2.0], 3)
    h0, rows = np.zeros((1, ln.n_hidden)), [1, 1, 1]
    before = ln.target_q(X, h0, rows).copy()
    for _ in range(5):
        ln.train_step(X, a, r, lengths, 0.99)
    np.testing.assert_array_equal(before, ln.target_q(X, h0, rows))
    ln.sync_target()
    after = ln.target_q(X, h0, rows)
    assert np.abs(after - before).max() > 0


def test_train_step_reduces_loss_on_fixed_batch():
    ln = AgentLearner(6, 4, 8, seed=[11], lr=5e-3)[0]
    rng = np.random.default_rng(4)
    T, B = 6, 4
    X = np.zeros((T, B, ln.n_in))
    X[:, :, :6] = rng.random((T, B, 6))
    a = rng.integers(0, 4, size=(T, B))
    r = rng.normal(size=(T, B))
    lengths = np.full(B, T)
    first = ln.train_step(X, a, r, lengths, 0.99)
    for _ in range(300):
        last = ln.train_step(X, a, r, lengths, 0.99)
    assert last < first * 0.5


def test_learner_state_roundtrip():
    ln = _learner(seed=13)
    X, a, r, lengths = _manual_batch(ln, [1.0, 2.0], 2)
    ln.train_step(X, a, r, lengths, 0.99)
    state = {k: v.copy() for k, v in ln.state_arrays().items()}
    other = _learner(seed=99)
    other.load_state(state)
    for k, arr in other.state_arrays().items():
        np.testing.assert_array_equal(arr, state[k])
    obs = np.ones((1, 6))
    qa, _ = ln.q_values(obs, np.array([2]), ln.initial_hidden())
    qb, _ = other.q_values(obs, np.array([2]), other.initial_hidden())
    np.testing.assert_array_equal(qa, qb)


# ------------------------------------------------------------ batch building

def _collect(env_id="lj-sp", seed=3, epsilon=1.0):
    spec = env_spec(env_id)
    learners = AgentLearner(spec.obs_dim, spec.n_actions, 8,
                            seed=list(range(spec.n_agents)))
    env = make_env(env_id, seed)
    rng = np.random.default_rng(seed)
    ep = collect_episode(env, team_policy(learners, epsilon, rng))
    return spec, learners, ep


RECORD_FIELDS = ("obs", "actions", "rewards", "kinds", "events")


@pytest.mark.parametrize("env_id", ENV_IDS)
@pytest.mark.parametrize("E", [1, 5, 20])
def test_lockstep_matches_sequential_episodes(env_id, E):
    spec = env_spec(env_id)
    learners = AgentLearner(spec.obs_dim, spec.n_actions, 64,
                            seed=list(range(spec.n_agents)))
    seeds = [700 + k for k in range(E)]
    lockstep = collect_episodes([make_env(env_id, s) for s in seeds],
                                team_policy(learners))
    assert len(lockstep) == E
    for s, got in zip(seeds, lockstep):
        want = collect_episode(make_env(env_id, s), team_policy(learners))
        assert (got.env_id, got.win) == (want.env_id, want.win)
        for name in RECORD_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
    if env_id == "sk3" and E > 1:
        # finished envs sat out while others kept stepping
        assert len({ep.length for ep in lockstep}) > 1


@pytest.mark.parametrize("E", [1, 20])
def test_lockstep_acts_only_for_live_envs(E):
    spec = env_spec("sk3")
    learners = AgentLearner(spec.obs_dim, spec.n_actions, 64,
                            seed=list(range(spec.n_agents)))
    envs = [make_env("sk3", 700 + k) for k in range(E)]
    # each env's observations when it rolls alone
    alone = [collect_episode(make_env("sk3", 700 + k),
                             team_policy(learners)).obs for k in range(E)]
    policy = team_policy(learners)
    rows, live = [], []
    ids = list(range(E))   # the env of each row, followed through keep

    def act(obs, keep):
        nonlocal ids
        if keep is not None:
            assert E > 1 and list(keep) == sorted(set(keep))
            ids = [ids[j] for j in keep]
        t = len(rows)
        rows.append(obs.shape[0])
        live.append(ids)
        for row, k in enumerate(ids):
            assert obs[row].tobytes() == alone[k][t].tobytes()
        return policy(obs, keep)

    lengths = [ep.length for ep in collect_episodes(envs, act)]
    assert rows == sorted(rows, reverse=True)
    assert live == [[k for k in range(E) if lengths[k] > t]
                    for t in range(max(lengths))]
    assert sum(rows) == sum(lengths)
    if E > 1:
        assert rows[-1] < E   # some rows were dropped


def test_collect_episode_shapes_and_flags():
    spec, _, ep = _collect()
    assert ep.obs.shape == (ep.length, spec.n_agents, OBS_DIM)
    assert ep.obs.dtype == np.float64 and ep.actions.dtype == np.int64
    assert ep.length <= spec.episode_len
    assert ep.events.shape == (spec.n_agents,)
    assert ep.events.dtype == np.int64
    # replaying the actions gives the summed step events and the last win
    env = make_env("lj-sp", 3)
    events = np.zeros(spec.n_agents, dtype=np.int64)
    for a in ep.actions:
        res = env.step(a)
        events += res.events
    assert res.done
    np.testing.assert_array_equal(ep.events, events)
    assert res.win == ep.win


def test_oracle_episode_bits_match_stepwise():
    spec, _, ep = _collect("pp", seed=5)
    bits = oracle_episode_bits(ep)
    assert bits.shape == (ep.length, spec.n_agents)
    for t in range(ep.length):
        step = slice(t, t + 1)
        np.testing.assert_array_equal(
            bits[t], oracle_bits("pp", ep.obs[step], ep.rewards[step],
                                 ep.kinds[step])[0])
    assert bits.dtype == np.uint8


def reference_build_batch(episodes, n_actions, obs_dim, strict_mask):
    """The per-episode batch loop build_batch replaced, kept as reference.

    Takes (obs, actions, rewards, bits) per episode and masks each
    episode's rewards as it is batched, tiling per-episode (N,) bits
    over the steps as the trainer did.  The batch is packed: episodes
    longest first, ties in the order given (Python's sort is stable).
    """
    episodes = sorted(episodes, key=lambda ep: -len(ep[1]))
    B = len(episodes)
    lengths = np.array([len(a) for _, a, _, _ in episodes])
    T = int(lengths.max())
    n = episodes[0][0].shape[1]
    X = np.zeros((n, T, B, obs_dim + n_actions))
    actions = np.zeros((n, T, B), dtype=np.int64)
    rewards = np.zeros((n, T, B))
    agent = np.arange(n)[:, None]
    for b, (obs, acts, rews, bits) in enumerate(episodes):
        L = len(acts)
        if bits.ndim == 1:
            bits = np.tile(bits, (L, 1))
        a = acts.T
        X[:, :L, b, :obs_dim] = obs.swapaxes(0, 1)
        X[agent, np.arange(1, L), b, obs_dim + a[:, :-1]] = 1.0
        actions[:, :L, b] = a
        rewards[:, :L, b] = masked_rewards(rews, bits, strict_mask).T
    return X, actions, rewards, lengths


def _random_episodes(rng, n, D, A, B, max_len):
    out = []
    for _ in range(B):
        L = int(rng.integers(1, max_len + 1))
        out.append((rng.standard_normal((L, n, D)).astype(np.float32),
                    rng.integers(0, A, size=(L, n)),
                    rng.choice([-0.01, 0.0, 0.5, 5.0], size=L),
                    rng.integers(0, 2, size=(L, n) if rng.random() < 0.5
                                 else (n,)).astype(np.uint8)))
    return out


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_build_batch_matches_reference(seed, strict):
    rng = np.random.default_rng(seed)
    n, D, A = int(rng.integers(1, 6)), int(rng.integers(1, 60)), 5
    team = AgentLearner(D, A, 8, seed=list(range(n)))
    episodes = _random_episodes(rng, n, D, A, int(rng.integers(1, 33)),
                                int(rng.integers(1, 40)))
    want = reference_build_batch(episodes, A, D, strict)
    got = build_batch([(o, a, masked_rewards(r, b, strict))
                       for o, a, r, b in episodes], team)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def test_build_batch_layout():
    spec, team, ep = _collect(seed=8)
    bits = oracle_episode_bits(ep)
    X, acts, rews, lengths = build_batch(
        [(ep.obs, ep.actions, masked_rewards(ep.rewards, bits, False))],
        team)
    assert X.shape[0] == acts.shape[0] == rews.shape[0] == spec.n_agents
    X, acts, rews = X[1], acts[1], rews[1]
    L = ep.length
    assert X.shape == (L, 1, spec.obs_dim + spec.n_actions)
    np.testing.assert_array_equal(X[0, 0, spec.obs_dim:], 0.0)
    for t in range(1, L):
        onehot = np.zeros(spec.n_actions)
        onehot[ep.actions[t - 1, 1]] = 1.0
        np.testing.assert_array_equal(X[t, 0, spec.obs_dim:], onehot)
        np.testing.assert_allclose(X[t, 0, :spec.obs_dim],
                                   ep.obs[t, 1].astype(np.float64))
    np.testing.assert_array_equal(acts[:, 0], ep.actions[:, 1])
    expect = masked_rewards(ep.rewards, bits, False)[:, 1]
    np.testing.assert_array_equal(rews[:, 0], expect)
    assert lengths.tolist() == [L]


def test_build_batch_padding():
    spec, team, ep1 = _collect(seed=8)
    L2 = ep1.length // 2
    item1 = (ep1.obs, ep1.actions, np.ones((ep1.length, spec.n_agents)))
    item2 = tuple(arr[:L2] for arr in item1)
    item3 = (item2[0] + 1.0, item2[1], item2[2] * 2.0)
    # the short episodes come first and tie: they keep their order
    X, acts, rews, lengths = build_batch([item2, item1, item3], team)
    assert lengths.tolist() == [ep1.length, L2, L2]
    assert X.shape[1] == ep1.length
    for b, item in enumerate((item1, item2, item3)):
        L = lengths[b]
        np.testing.assert_array_equal(acts[:, :L, b], item[1].T)
        np.testing.assert_array_equal(rews[:, :L, b], item[2].T)
        assert X[:, L:, b].sum() == 0.0
        assert not rews[:, L:, b].any() and not acts[:, L:, b].any()


# ----------------------------------------------------------------- training

DESK = dict(total_steps=600, eval_interval=300, eval_episodes=2,
            epsilon_anneal_episodes=50, target_sync=3, batch_size=4,
            n_hidden=8)


def test_train_smoke_writes_logs_and_checkpoints(tmp_path):
    cfg = TrainConfig(env_id="lj-sp", trainer="idql", seed=0, **DESK)
    res = train(cfg, out_dir=tmp_path / "run")
    assert res.steps >= cfg.total_steps
    assert res.episodes >= 1
    assert len(res.rows) >= 2
    for row in res.rows:
        for key in ("step", "episode", "eval_return_mean", "eval_return_ci95",
                    "win_rate", "epsilon", "event_count_agent_0"):
            assert key in row
    assert res.rows[0]["epsilon"] == 1.0
    assert res.rows[-1]["epsilon"] < 1.0
    run = tmp_path / "run"
    assert (run / "train_log.csv").exists()
    assert (run / "run.json").exists()
    learners = load_learners(run)
    assert read_run(run)["trainer"] == "idql" and len(list(learners)) == 4
    obs = np.zeros((1, OBS_DIM))
    for ln, trained in zip(learners, res.learners):
        qa, _ = ln.q_values(obs, NO_PREV, ln.initial_hidden())
        qb, _ = trained.q_values(obs, NO_PREV, trained.initial_hidden())
        np.testing.assert_array_equal(qa, qb)


@given(st.integers(1, 80), st.integers(1, 100), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_train_logs_the_whole_evaluation_grid(total_steps, interval, seed):
    # sk3 episodes run up to 60 steps, so one often crosses several grid
    # points, the last one included; every point is evaluated anyway
    cfg = TrainConfig(env_id="sk3", trainer="idql", seed=seed,
                      total_steps=total_steps, eval_interval=interval,
                      eval_episodes=1, batch_size=2, n_hidden=4)
    res = train(cfg)
    assert [r["step"] for r in res.rows] == [
        *range(0, total_steps, interval), total_steps]
    assert res.steps >= total_steps


def test_train_acd_constant_one_matches_idql():
    cfg_a = TrainConfig(env_id="lj-sp", trainer="idql", seed=4, **DESK)
    cfg_b = TrainConfig(env_id="lj-sp", trainer="acd-marl", seed=4, **DESK)
    ones = lambda ep: np.ones(ep.n_agents, dtype=np.uint8)
    res_a = train(cfg_a)
    res_b = train(cfg_b, bits_fn=ones)
    for la, lb in zip(res_a.learners, res_b.learners):
        for (ka, ta), (kb, tb) in zip(la.params.state_arrays().items(),
                                      lb.params.state_arrays().items()):
            assert ka == kb
            np.testing.assert_array_equal(ta, tb)


def test_train_icl_uses_oracle_bits():
    # icl masks with the oracle's bits and never reads bits_fn
    cfg = TrainConfig(env_id="lj-sp", trainer="icl", seed=7, **DESK)
    res = train(cfg)
    assert res.episodes > 0
    other = train(cfg, bits_fn=lambda ep: np.zeros(ep.n_agents, np.uint8))
    assert res.learners.params.data.tobytes() == (
        other.learners.params.data.tobytes())


def test_train_acd_rejects_malformed_bits():
    # (L,) would broadcast to an (L, L) reward matrix, (N+1,) would
    # carry a bit for an agent that does not exist, and (L, N) is not
    # one bit per agent for the episode
    cfg = TrainConfig(env_id="lj", trainer="acd-marl", seed=0, **DESK)
    for shape in (lambda ep: (ep.length,), lambda ep: (ep.n_agents + 1,),
                  lambda ep: (ep.length, ep.n_agents),
                  lambda ep: (ep.length, ep.n_agents + 1)):
        with pytest.raises(ConfigurationError, match="bits has shape"):
            train(cfg, bits_fn=lambda ep: np.ones(shape(ep), dtype=np.uint8))


@pytest.mark.parametrize("value", [7, -1, 0.5, 2], ids=[
    "acd-marl-seven", "acd-marl-minus-one", "acd-marl-half", "acd-marl-two"])
def test_train_rejects_non_binary_bits(value):
    # a bit other than 0 or 1 would scale the reward instead of masking
    # it; casting to uint8 first would wrap -1 to 255 and cut 0.5 to 0
    cfg = TrainConfig(env_id="lj", trainer="acd-marl", seed=0, **DESK)

    def bits(ep):
        out = np.ones(ep.n_agents)
        out[0] = value
        return out
    with pytest.raises(ConfigurationError, match="must be 0 or 1"):
        train(cfg, bits_fn=bits)


def test_rewards_masked_once_per_collected_episode(monkeypatch):
    # masking happens when an episode enters replay, not each time it is
    # sampled into a batch
    trainer = importlib.import_module("camarl.marl.trainer")
    calls = {"masked": 0, "sampled": 0}
    mask, sample = trainer.masked_rewards, ReplayBuffer.sample

    def counting_mask(*args):
        calls["masked"] += 1
        return mask(*args)

    def counting_sample(self, *args):
        batch = sample(self, *args)
        calls["sampled"] += len(batch)
        return batch

    monkeypatch.setattr(trainer, "masked_rewards", counting_mask)
    monkeypatch.setattr(ReplayBuffer, "sample", counting_sample)
    res = train(TrainConfig(env_id="sk3", trainer="icl", seed=0, **DESK))
    assert calls["masked"] == res.episodes
    # batches of 4 replay most episodes several times
    assert calls["sampled"] > 3 * res.episodes


def test_train_acd_requires_encoder():
    cfg = TrainConfig(env_id="lj-sp", trainer="acd-marl", seed=0, **DESK)
    with pytest.raises(ConfigurationError):
        train(cfg)


def test_train_acd_node_count_mismatch():
    # bits for one agent too few: not (N,)
    cfg = TrainConfig(env_id="lj-sp", trainer="acd-marl", seed=0, **DESK)

    def bits(ep):
        return np.ones(ep.n_agents - 1, dtype=np.uint8)
    with pytest.raises(ConfigurationError, match="bits has shape"):
        train(cfg, bits_fn=bits)


def test_train_acd_per_episode_bits_broadcast():
    cfg = TrainConfig(env_id="lj-sp", trainer="acd-marl", seed=0,
                      total_steps=300, eval_interval=300, eval_episodes=1,
                      epsilon_anneal_episodes=50, target_sync=3, batch_size=2,
                      n_hidden=8)

    def bits(ep):
        return np.ones(ep.n_agents, dtype=np.uint8)
    res = train(cfg, bits_fn=bits)
    assert res.episodes >= 1


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(env_id="nope", trainer="idql").validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(env_id="pp", trainer="qmix").validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(env_id="pp", trainer="idql", gamma=1.5).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(env_id="pp", trainer="idql", batch_size=64).validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(env_id="pp", trainer="idql", lr=0.0).validate()


@pytest.mark.parametrize("field, value", [
    ("total_steps", "40"), ("total_steps", 40.0), ("batch_size", True),
    ("seed", None), ("gamma", "0.9"), ("lr", False), ("strict_mask", 1),
    ("env_id", 3), ("trainer", None)])
def test_train_config_field_types(field, value):
    # each field holds its annotated type; a bool is no int
    cfg = TrainConfig(**{"env_id": "pp", "trainer": "idql", field: value})
    with pytest.raises(ConfigurationError, match=field):
        cfg.validate()


def test_train_config_accepts_ints_as_floats():
    cfg = TrainConfig(env_id="pp", trainer="idql", gamma=1, lr=1,
                      epsilon_end=0, grad_clip=10)
    assert cfg.validate() is cfg


def test_write_log_deterministic(tmp_path):
    rows = [{"step": 0, "episode": 0, "eval_return_mean": -9.1,
             "eval_return_ci95": 0.25, "win_rate": 0.0, "epsilon": 1.0,
             "event_count_agent_0": 0.0, "event_count_agent_1": 2.0}]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_log(a, rows, 2)
    write_log(b, rows, 2)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.split(",")[:6] == ["step", "episode", "eval_return_mean",
                                     "eval_return_ci95", "win_rate", "epsilon"]


# --------------------------------------------------------------- evaluation

def test_evaluate_untrained_near_step_penalty_baseline():
    spec = env_spec("lj")
    learners = AgentLearner(spec.obs_dim, spec.n_actions, 8,
                            seed=list(range(spec.n_agents)))
    s = evaluate(learners, "lj", n_episodes=50, seed=0)
    assert -10.01 <= s.mean_return <= -5.0
    assert s.n_episodes == 50


@pytest.mark.parametrize("n_episodes", [0, -1])
def test_evaluate_rejects_fewer_than_one_episode(monkeypatch, n_episodes):
    # the package's evaluate function shadows the submodule's name
    ev = importlib.import_module("camarl.marl.evaluate")
    spec = env_spec("sk3")
    learners = AgentLearner(spec.obs_dim, spec.n_actions, 8,
                            seed=list(range(spec.n_agents)))
    made = []
    monkeypatch.setattr(ev, "make_env", lambda *a: made.append(a))
    with pytest.raises(UsageError, match="at least one evaluation episode"):
        evaluate(learners, "sk3", n_episodes, seed=0)
    assert made == []


def test_evaluate_deterministic():
    spec = env_spec("sk3-sp")
    learners = AgentLearner(spec.obs_dim, spec.n_actions, 8,
                            seed=list(range(spec.n_agents)))
    a = evaluate(learners, "sk3-sp", n_episodes=5, seed=42)
    b = evaluate(learners, "sk3-sp", n_episodes=5, seed=42)
    np.testing.assert_array_equal(a.returns, b.returns)
    assert a.mean_return == b.mean_return and a.win_rate == b.win_rate
    np.testing.assert_array_equal(a.per_agent_events, b.per_agent_events)


def test_t975_table_is_scipys_stdtrit_bit_for_bit():
    # the pins read df 1 and 19, the benchmark 11 and 59
    assert len(_T975) >= 64
    for df, q in enumerate(_T975, start=1):
        assert type(q) is float
        assert q.hex() == float(special.stdtrit(df, 0.975)).hex(), df


@pytest.mark.parametrize("n", [2, 20, 60, len(_T975) + 1, len(_T975) + 2])
def test_return_ci95_matches_stdtrit_bit_for_bit(n):
    # n = len(_T975) + 2 is past the table: return_ci95 falls back to scipy
    r = np.random.default_rng(n).normal(size=n) * 7.0
    want = float(special.stdtrit(n - 1, 0.975) * r.std(ddof=1) / np.sqrt(n))
    assert return_ci95(r).hex() == want.hex()


def test_scripted_one_tree_level_one_positive_return():
    env = make_env("lj-sp", 1)
    env.tree_level[0] = 1
    pol = ScriptedPolicy(seed=0, lazy_prob=0.0)
    pol.begin_episode(env)
    total = 0.0
    while True:
        res = env.step(pol.act(env))
        total += res.reward
        if res.done:
            break
    assert total > 0.0 and res.win
