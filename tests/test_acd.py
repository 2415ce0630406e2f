"""Causal discovery: preprocessing, model invariants, training, extraction."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import savgol_filter

from camarl.acd import (
    AcdModel, SeriesSample, collect_dataset, elbo_loss, episode_to_sample,
    evaluate_accuracy, make_bits_fn, minmax_normalize, ordered_pairs,
    predict_c, preprocess_series, savgol_smooth, sg_window,
    sigma_for, split_dataset, train_acd,
)
from camarl.acd.dataset import (
    POLY_ORDER, _fit_weights, preprocess, sg_weight_table)
from camarl.acd.inference import margin_auc
from camarl.acd.training import load_acd, save_acd
from camarl.envs import OBS_DIM, env_spec, make_env
from camarl.envs.core import episode_ground_truth_arrays
from camarl.errors import (
    CollectionError, ConfigurationError, UsageError)
from camarl.marl import (
    AgentLearner, EpisodeRecord, collect_episode, team_policy)
from camarl.acd.model import TEMPERATURE, sample_gumbel
from camarl.acd.training import backward
from camarl.nn import kernels as K
from camarl.nn.layers import rmsprop_update

from helpers import relative_error


# ------------------------------------------------------------- preprocessing

def test_sg_window_values():
    assert sg_window(100) == 49
    assert sg_window(60) == 29
    assert sg_window(70) == 35
    assert sg_window(24) == 11
    with pytest.raises(ConfigurationError):
        sg_window(23)


def test_sg_window_odd_and_above_order():
    for T in range(24, 200):
        d = sg_window(T)
        assert d % 2 == 1 and d > 10


def test_savgol_reproduces_low_degree_polynomials():
    t = np.linspace(-1, 1, 100)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=11)  # degree 10
    y = np.polyval(coeffs, t)[:, None]
    out = savgol_smooth(y)
    np.testing.assert_allclose(out, y, atol=1e-8)


def test_savgol_constant_unchanged():
    out = savgol_smooth(np.full((60, 1), 3.25))
    np.testing.assert_allclose(out, 3.25, atol=1e-10)


def test_savgol_matches_scipy_interior():
    rng = np.random.default_rng(1)
    y = rng.normal(size=100)
    delta = sg_window(100)
    ours = savgol_smooth(y[:, None])[:, 0]
    ref = savgol_filter(y, delta, 10)
    half = delta // 2
    # scipy fits the unscaled Vandermonde, which carries ~1e-6 conditioning
    # noise at this order; agreement beyond that is all we can ask of it
    np.testing.assert_allclose(ours[half:-half], ref[half:-half], atol=1e-5)


def test_savgol_multichannel():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(60, 4))
    out = savgol_smooth(y)
    for c in range(4):
        np.testing.assert_allclose(out[:, c:c + 1],
                                   savgol_smooth(y[:, c:c + 1]), atol=1e-12)


def test_sg_weight_table_cached_and_read_only():
    table = sg_weight_table(100)
    assert sg_weight_table(100) is table
    assert isinstance(table, tuple) and len(table) == 100
    for lo, hi, w in table:
        assert w.shape == (hi - lo,)
        with pytest.raises(ValueError):
            w[0] = 1.0
    # every full-width window is fitted alone yet gets the same weights
    full = {w.tobytes() for lo, hi, w in table
            if hi - lo == sg_window(100)}
    assert len(full) == 1


def _savgol_uncached(x):
    T = x.shape[0]
    half = sg_window(T) // 2
    out = np.empty_like(x)
    for t in range(T):
        lo, hi = max(0, t - half), min(T, t + half + 1)
        w = _fit_weights(np.arange(lo, hi) - t, min(POLY_ORDER, hi - lo - 1))
        out[t] = w @ x[lo:hi]
    return out


@pytest.mark.parametrize("T", [24, 25, 100])
def test_savgol_matches_uncached_reference(T):
    rng = np.random.default_rng(T)
    for x in (rng.normal(size=(T, 1)), rng.normal(size=(T, 3))):
        for _ in range(2):  # the second call reads the cached table
            assert savgol_smooth(x).tobytes() == _savgol_uncached(x).tobytes()


def test_minmax_normalize():
    np.testing.assert_allclose(minmax_normalize([0.0, 5.0, 0.0, 10.0]),
                               [0.0, 0.5, 0.0, 1.0])
    np.testing.assert_array_equal(minmax_normalize([2.0, 2.0, 2.0]),
                                  [0.0, 0.0, 0.0])


def _smooth_node(series):
    # the per-node smoother that the stacked savgol_smooth replaced: one
    # (W,) @ (W, D) product per position of one node's (T, D) series
    x = np.asarray(series, dtype=np.float64)
    out = np.empty_like(x)
    for t, (lo, hi, w) in enumerate(sg_weight_table(x.shape[0])):
        out[t] = w @ x[lo:hi]
    return out


def _preprocess_per_node(x):
    out = x.astype(np.float64).copy()
    for i in range(x.shape[0] - 1):
        out[i] = _smooth_node(x[i])
    out[-1, :, 0] = minmax_normalize(x[-1, :, 0])
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("padded", [False, True], ids=["full", "padded"])
@pytest.mark.parametrize("T", [24, 25, 100])
@pytest.mark.parametrize("env_id", ["pp", "lj", "sk3", "sk5"])
def test_preprocess_series_matches_per_node_reference(env_id, T, padded,
                                                      dtype):
    n = env_spec(env_id).n_agents + 1
    rng = np.random.default_rng([n, T, padded])
    L = T - T // 3 if padded else T
    x = np.zeros((n, T, OBS_DIM))
    x[:-1, :L] = (rng.normal(size=(n - 1, L, OBS_DIM))
                  * 10.0 ** rng.uniform(-3, 3, (n - 1, L, OBS_DIM)))
    x[-1, :L, 0] = rng.normal(size=L)
    x = x.astype(dtype)
    before = x.copy()
    out = preprocess_series(x)
    assert out.dtype == np.float64 and out.shape == x.shape
    assert out.tobytes() == _preprocess_per_node(x).tobytes()
    assert x.tobytes() == before.tobytes()


def test_preprocess_series_layout():
    rng = np.random.default_rng(3)
    x = np.zeros((3, 50, 5))
    x[:2] = rng.random((2, 50, 5))
    x[2, :, 0] = rng.random(50) * 7 - 2
    out = preprocess_series(x)
    np.testing.assert_allclose(out[0], savgol_smooth(x[0]))
    np.testing.assert_allclose(out[2, :, 0], minmax_normalize(x[2, :, 0]))
    assert out[2, :, 1:].sum() == 0.0
    assert out[2, :, 0].min() >= 0.0 and out[2, :, 0].max() <= 1.0


def _minmax_whole(x):
    # the whole-array form that the per-row minmax_normalize replaced
    lo, hi = x.min(), x.max()
    return np.zeros_like(x) if hi == lo else (x - lo) / (hi - lo)


def test_minmax_normalize_per_row():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(4, 3, 30)) * 10.0 ** rng.uniform(-3, 3, (4, 3, 1))
    rows[1, 2] = 2.5
    rows[3, 0] = 0.0
    out = minmax_normalize(rows)
    for idx in np.ndindex(rows.shape[:-1]):
        assert out[idx].tobytes() == _minmax_whole(rows[idx]).tobytes()
    assert out[1, 2].tobytes() == out[3, 0].tobytes() == bytes(8 * 30)


@pytest.mark.parametrize("env_id", ["pp", "sk3"])
def test_preprocess_stack_matches_per_sample(env_id):
    samples = collect_dataset(env_id, 6, seed=1)
    const = samples[0].x.copy()
    const[-1, :, 0] = 2.5   # a constant reward row normalizes to zeros
    samples.append(replace(samples[0], x=const))
    got = preprocess(samples)
    assert got.dtype == np.float64
    assert got.shape == (len(samples),) + samples[0].x.shape
    for k, s in enumerate(samples):
        assert got[k].tobytes() == preprocess_series(s.x).tobytes()
    assert got[-1, -1].tobytes() == bytes(const[-1].nbytes)


def test_preprocess_fills_the_stack_block_by_block(monkeypatch):
    # 17 samples: two full blocks and a block of one
    import camarl.acd.dataset as dataset

    samples = collect_dataset("pp", 17, seed=2)
    assert len(samples) % dataset.EVAL_BLOCK != 0
    sizes = []

    def counted(x):
        sizes.append(len(x))
        return preprocess_series(x)

    monkeypatch.setattr(dataset, "preprocess_series", counted)
    got = preprocess(samples)
    assert sum(sizes) == 17 and max(sizes) == dataset.EVAL_BLOCK
    assert got.shape == (17,) + samples[0].x.shape
    for k, s in enumerate(samples):
        assert got[k].tobytes() == preprocess_series(s.x).tobytes()


def test_preprocess_rejects_mixed_shapes():
    a = SeriesSample(x=np.zeros((4, 24, 2)), env_id="sk3-sp",
                     bits=np.zeros(3, dtype=np.uint8), length=24)
    with pytest.raises(ConfigurationError, match="mixes sample shapes"):
        preprocess([a, replace(a, x=np.zeros((4, 25, 2)))])


# ------------------------------------------------------------------ dataset

def test_episode_to_sample_layout_and_padding():
    ep = EpisodeRecord(
        env_id="pp-sp",
        obs=np.random.default_rng(0).random((30, 5, OBS_DIM)),
        actions=np.zeros((30, 5), dtype=np.int64),
        rewards=np.linspace(0, 1, 30), kinds=np.zeros(30, dtype=np.int64),
        win=True, events=np.zeros(5, dtype=np.int64))
    s = episode_to_sample(ep, np.array([1, 0, 1, 0, 0], dtype=np.uint8), 4)
    assert s.x.shape == (6, 100, OBS_DIM)
    assert s.length == 30 and s.x.shape[0] == 6 and s.seed == 4
    np.testing.assert_array_equal(s.x[0, :30], ep.obs[:, 0])
    np.testing.assert_array_equal(s.x[5, :30, 0], ep.rewards)
    assert s.x[:, 30:].sum() == 0.0
    assert s.x[5, :, 1:].sum() == 0.0


def test_collect_dataset_scripted():
    samples = collect_dataset("sk3-sp", 6, seed=0, lazy_prob=0.0)
    assert len(samples) == 6
    for s in samples:
        assert s.x.shape == (4, 60, OBS_DIM)
        assert s.bits.shape == (3,)
        assert set(np.unique(s.bits)) <= {0, 1}
    # deterministic
    again = collect_dataset("sk3-sp", 6, seed=0, lazy_prob=0.0)
    for a, b in zip(samples, again):
        np.testing.assert_array_equal(a.x, b.x)


def test_collect_dataset_empty_budget():
    assert collect_dataset("pp", 0, seed=0) == []


def test_collect_dataset_never_wins():
    # zero-Q learners always argmax to action 0 (a move), never attack,
    # so no skirmish rollout can ever end in a win
    from camarl.marl import AgentLearner
    spec = env_spec("sk3-sp")
    learners = AgentLearner(OBS_DIM, spec.n_actions, n_hidden=8,
                            seed=list(range(spec.n_agents)))
    learners.params["head.W"][...] = 0.0
    learners.params["head.b"][...] = 0.0
    with pytest.raises(CollectionError):
        collect_dataset("sk3-sp", 2, seed=0, learners=learners,
                        attempt_factor=2)


def _collect_one_by_one(env_id, n, seed, learners, attempt_factor):
    """Greedy collection rolled one attempt at a time: the reference."""
    spec = env_spec(env_id)
    seeds = np.random.SeedSequence(seed).generate_state(
        attempt_factor * n, np.uint64)
    samples, attempts = [], 0
    for ep_seed in seeds:
        if len(samples) == n:
            break
        attempts += 1
        ep = collect_episode(make_env(env_id, int(ep_seed)),
                             team_policy(learners))
        if ep.win:
            bits = episode_ground_truth_arrays(spec.family, ep.obs,
                                               ep.rewards, ep.kinds)
            samples.append(episode_to_sample(ep, bits, int(ep_seed)))
    return samples, {"attempts": attempts, "wins": len(samples)}


def _random_team(env_id, seed):
    spec = env_spec(env_id)
    return AgentLearner(spec.obs_dim, spec.n_actions, 16,
                        seed=[seed + i for i in range(spec.n_agents)])


@pytest.mark.parametrize("env_id, n, attempt_factor, short", [
    ("sk3-sp", 6, 20, False),
    ("lj-sp", 3, 20, False),
    ("sk3-sp", 10, 2, True),
], ids=["sk3-ends-early", "lj-ends-early", "sk3-budget-runs-out"])
def test_greedy_collection_matches_one_by_one(env_id, n, attempt_factor,
                                              short):
    # random teams that win now and then, so the lockstep takes several
    # blocks of episodes of several lengths
    learners = _random_team(env_id, 20 if env_id == "sk3-sp" else 0)
    want, want_stats = _collect_one_by_one(env_id, n, 0, learners,
                                           attempt_factor)
    stats = {}
    got = collect_dataset(env_id, n, seed=0, learners=learners,
                          attempt_factor=attempt_factor, stats=stats)
    assert stats == want_stats
    assert (len(got) < n) == short
    assert (stats["attempts"] == attempt_factor * n) == short
    assert [(s.seed, s.length) for s in got] == [
        (s.seed, s.length) for s in want]
    for a, b in zip(got, want):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.bits.tobytes() == b.bits.tobytes()


def test_greedy_collection_without_a_win_matches_one_by_one():
    learners = _random_team("sk3-sp", 0)
    learners.params["head.W"][...] = 0.0   # always action 0: never a win
    learners.params["head.b"][...] = 0.0
    want, want_stats = _collect_one_by_one("sk3-sp", 4, 0, learners, 3)
    assert want == []
    stats = {}
    with pytest.raises(CollectionError) as err:
        collect_dataset("sk3-sp", 4, seed=0, learners=learners,
                        attempt_factor=3, stats=stats)
    assert stats == want_stats == {"attempts": 12, "wins": 0}
    assert str(err.value) == ("no winning episodes in 12 attempts on "
                              "sk3-sp (win rate 0.00)")


def test_split_dataset():
    samples = [SeriesSample(x=np.zeros((2, 24, 1)), env_id="pp",
                            bits=np.zeros(1, dtype=np.uint8), length=24,
                            seed=k)
               for k in range(10)]
    train, held = split_dataset(samples, 0.8, seed=1)
    assert len(train) == 8 and len(held) == 2
    assert {s.seed for s in train} | {s.seed for s in held} == set(range(10))
    for few in ([], samples[:1]):
        with pytest.raises(UsageError):
            split_dataset(few, 0.8)


# -------------------------------------------------------------------- model

def _toy_model(n_nodes=4, T=12, D=3, seed=0):
    return AcdModel(n_nodes, T, D, seed=seed, enc_hidden=16, dec_hidden=8)


def _toy_batch(n=4, T=12, D=3, B=2, seed=1):
    return np.random.default_rng(seed).random((B, n, T, D))


def test_ordered_pairs_count():
    src, dst = ordered_pairs(5)
    assert len(src) == 20
    assert all(i != j for i, j in zip(src, dst))


def test_encoder_logit_shape_and_determinism():
    m = _toy_model()
    x = _toy_batch()
    a = m.encode(x)[0]
    b = m.encode(x)[0]
    assert a.shape == (2, 12, 2)
    np.testing.assert_array_equal(a, b)


def test_encoder_input_validation():
    m = _toy_model()
    with pytest.raises(ConfigurationError):
        m.encode(np.zeros((1, 5, 12, 3)))
    with pytest.raises(ConfigurationError):
        m.encode(np.zeros((1, 4, 9, 3)))


def test_encoder_permutation_equivariance():
    m = _toy_model()
    x = _toy_batch(B=1)
    logits = m.encode(x)[0][0]
    # swap observation nodes 0 and 2
    perm = np.array([2, 1, 0, 3])
    xp = x[:, perm]
    logits_p = m.encode(xp)[0][0]
    src, dst = m.src, m.dst
    pair_index = {(i, j): p for p, (i, j) in enumerate(zip(src, dst))}
    inv = np.argsort(perm)
    for p, (i, j) in enumerate(zip(src, dst)):
        q = pair_index[(inv[i], inv[j])]
        np.testing.assert_allclose(logits_p[p], logits[q], atol=1e-12)


def test_zeroed_head_gives_uniform_logits():
    m = _toy_model()
    m.params["enc.head.W"][...] = 0.0
    m.params["enc.head.b"][...] = 0.0
    logits = m.encode(_toy_batch())[0]
    np.testing.assert_array_equal(logits, 0.0)


def test_decoder_no_edge_blocks_information():
    m = _toy_model()
    x = _toy_batch(B=1, seed=5)
    w = np.zeros((1, m.n_pairs))
    base = m.decode(x, w, [12])[0]
    x2 = x.copy()
    x2[0, 0] += 3.21  # perturb node 0's whole series
    pert = m.decode(x2, w, [12])[0]
    # all other nodes' predictions are exactly unchanged
    np.testing.assert_array_equal(base[0, 1:], pert[0, 1:])
    assert np.abs(base[0, 0] - pert[0, 0]).max() > 0


def test_decoder_edge_carries_information():
    m = _toy_model()
    x = _toy_batch(B=1, seed=6)
    w_data = np.zeros((1, m.n_pairs))
    pair = [p for p, (i, j) in enumerate(zip(m.src, m.dst))
            if i == 0 and j == 1][0]
    w_data[0, pair] = 1.0
    base = m.decode(x, w_data, [12])[0]
    x2 = x.copy()
    x2[0, 0] += 3.21
    pert = m.decode(x2, w_data, [12])[0]
    assert np.abs(base[0, 1] - pert[0, 1]).max() > 0
    # nodes without an incoming edge from node 0 stay put
    np.testing.assert_array_equal(base[0, 2:], pert[0, 2:])


def test_decoder_padding_is_inert():
    # with the edge weights fixed, the decoder never reads the padding
    # past a sample's length: perturbing it moves no prediction, NLL,
    # NLL gradient or decoder gradient bit
    m = _toy_model()
    x = _toy_batch(B=3, seed=11)
    lengths = np.array([11, 9, 5])
    w = np.random.default_rng(3).random((3, m.n_pairs))
    logits = np.zeros((3, m.n_pairs, 2))
    runs = []
    for shift in (0.0, 7.5):
        xs = x.copy()
        for b, L in enumerate(lengths):
            xs[b, :, L:] += shift
        pred, dec = m.decode(xs, w, lengths)
        terms = elbo_loss(pred, xs[:, :, 1:11, :], logits, 5e-3, lengths)
        m.params.grad.fill(0.0)
        g_w = m.decode_bwd(dec, terms.g_pred)
        grads = {name: g.copy() for name, g in m.params.grads.items()
                 if name.startswith("dec.")}
        runs.append((pred, terms, g_w, grads))
        assert pred.shape == (3, 4, 10, 3)
        for b, L in enumerate(lengths):
            assert not pred[b, :, L - 1:].any()
    (p0, t0, w0, g0), (p1, t1, w1, g1) = runs
    assert p0.tobytes() == p1.tobytes()
    assert np.float64(t0.nll).tobytes() == np.float64(t1.nll).tobytes()
    assert t0.g_pred.tobytes() == t1.g_pred.tobytes()
    assert w0.tobytes() == w1.tobytes()
    assert len(g0) == 8 and all(np.abs(g).max() > 0 for g in g0.values())
    for name in g0:
        assert g0[name].tobytes() == g1[name].tobytes(), name
    # each sample's steps predict what a full-length decode predicts
    full = m.decode(x, w, [12, 12, 12])[0]
    for b, L in enumerate(lengths):
        np.testing.assert_allclose(p0[b, :, :L - 1], full[b, :, :L - 1],
                                   rtol=0, atol=1e-12)


def test_decode_rejects_bad_lengths():
    m = _toy_model()
    x = _toy_batch(B=3)
    w = np.zeros((3, m.n_pairs))
    for lengths in ([5, 9, 12], [12, 5, 9], [12, 9], [13, 9, 5], [12, 9, 0]):
        with pytest.raises(UsageError, match="non-increasing"):
            m.decode(x, w, lengths)


def adjacency(model, edge_bits):
    """(..., n_pairs) pair bits to (..., n, n) adjacencies, zero diagonal:
    the reference predict_c is checked against."""
    n = model.n_nodes
    a = np.zeros(np.shape(edge_bits)[:-1] + (n, n), dtype=np.uint8)
    a[..., model.src, model.dst] = edge_bits
    return a


def test_adjacency_can_be_asymmetric():
    m = _toy_model()
    bits = np.zeros(m.n_pairs, dtype=np.uint8)
    pair = [p for p, (i, j) in enumerate(zip(m.src, m.dst))
            if i == 0 and j == 1][0]
    bits[pair] = 1
    a = adjacency(m, bits)
    assert a[0, 1] == 1 and a[1, 0] == 0
    assert np.trace(a) == 0


# --------------------------------------------------------------------- loss

def test_elbo_zero_cases():
    m = _toy_model()
    x = _toy_batch(B=2, seed=7)
    logits, _ = m.encode(x)
    rng = np.random.default_rng(0)
    w, _ = m.sample_edges(logits, rng)
    pred, _ = m.decode(x, w, [12, 12])
    terms = elbo_loss(pred, pred.copy(), logits, 5e-4, [12, 12])
    assert terms.nll == 0.0
    assert terms.kl >= 0.0
    # uniform posterior -> zero KL
    m.params["enc.head.W"][...] = 0.0
    m.params["enc.head.b"][...] = 0.0
    logits_u, _ = m.encode(x)
    terms_u = elbo_loss(pred, pred.copy(), logits_u, 5e-4, [12, 12])
    assert abs(terms_u.kl) < 1e-12


def test_elbo_hand_value():
    # single scalar error of 0.1 at sigma 5e-3: 0.01 / (2 * 0.005) = 1.0
    pred = np.full((1, 1, 1, 1), 0.1)
    target = np.zeros((1, 1, 1, 1))
    logits = np.zeros((1, 1, 2))
    terms = elbo_loss(pred, target, logits, 5e-3, [2])
    assert abs(terms.nll - 1.0) < 1e-12
    assert abs(terms.nll + terms.kl - 1.0) < 1e-12
    # d nll / d pred = (pred - target) / (sigma * batch) = 20
    assert abs(terms.g_pred.item() - 20.0) < 1e-12
    np.testing.assert_array_equal(terms.g_logits, 0.0)


def test_elbo_sigma_validation():
    pred = np.zeros((1, 1, 1, 1))
    with pytest.raises(ConfigurationError):
        elbo_loss(pred, pred, np.zeros((1, 1, 2)), 0.0, [2])


def test_elbo_rejects_mismatched_target():
    # a one-step pred would broadcast against a longer target
    pred = np.zeros((1, 1, 1, 1))
    with pytest.raises(UsageError, match="does not match"):
        elbo_loss(pred, np.zeros((1, 1, 5, 1)), np.zeros((1, 1, 2)), 5e-3,
                  [2])


def test_elbo_gradient_flows_through_encoder():
    m = _toy_model(n_nodes=3, T=12, D=2)
    x = _toy_batch(n=3, T=12, D=2, B=2, seed=8)
    rng = np.random.default_rng(1)
    logits, enc = m.encode(x)
    w, soft = m.sample_edges(logits, rng)
    pred, dec = m.decode(x, w, [12, 12])
    terms = elbo_loss(pred, x[:, :, 1:, :], logits, 5e-4, [12, 12])
    backward(m, terms, enc, dec, soft)
    g = m.params.grads["enc.emb1.W"]
    assert np.abs(g).max() > 0


def _fused_loss(m, x, noise_seed, sigma, lengths):
    """The training loop's forward for one batch: (terms, enc, dec, soft).

    Each call draws its edge sample from a fresh generator on noise_seed,
    so repeated calls hold the Gumbel noise fixed.
    """
    logits, enc = m.encode(x)
    w, soft = m.sample_edges(logits, np.random.default_rng(noise_seed))
    pred, dec = m.decode(x, w, lengths)
    return (elbo_loss(pred, x[:, :, 1:lengths[0], :], logits, sigma, lengths),
            enc, dec, soft)


def _check_fused_gradients(m, x, noise_seed, sigma, lengths, names,
                           n_entries):
    """Central differences of the ELBO against the fused backward."""
    terms, *caches = _fused_loss(m, x, noise_seed, sigma, lengths)
    backward(m, terms, *caches)
    h = 1e-6
    for name in names:
        flat = m.params[name].reshape(-1)
        gflat = m.params.grads[name].reshape(-1)
        for k in np.linspace(0, flat.size - 1, n_entries, dtype=int):
            keep = flat[k]
            flat[k] = keep + h
            up = _fused_loss(m, x, noise_seed, sigma, lengths)[0]
            flat[k] = keep - h
            dn = _fused_loss(m, x, noise_seed, sigma, lengths)[0]
            flat[k] = keep
            num = ((up.nll + up.kl) - (dn.nll + dn.kl)) / (2 * h)
            assert relative_error(gflat[k], num) < 1e-3, (name, k)
    m.params.grad.fill(0.0)


def test_elbo_encoder_gradcheck():
    # finite differences through encode -> sample -> decode with the
    # Gumbel noise held fixed
    m = _toy_model(n_nodes=3, T=12, D=2, seed=3)
    x = _toy_batch(n=3, T=12, D=2, B=1, seed=9)
    names = ("enc.head.W", "enc.emb1.b", "enc.fe2a.W", "dec.msg.W")
    _check_fused_gradients(m, x, 2, 5e-2, [12], names, 5)


def test_fused_elbo_gradcheck_every_parameter():
    m = AcdModel(3, 6, 2, seed=4, enc_hidden=5, dec_hidden=4)
    x = _toy_batch(n=3, T=6, D=2, B=2, seed=10)
    names = list(m.params.grads)
    assert len(names) == 26
    for lengths in ([6, 6], [6, 4]):
        _check_fused_gradients(m, x, 3, 5e-2, lengths, names, 3)


def _preprocessed(env_id, n):
    return preprocess(collect_dataset(env_id, n, seed=0))


def _with_lengths(env_id, n):
    """A preprocessed stack of n collected samples and their lengths."""
    samples = collect_dataset(env_id, n, seed=0)
    return preprocess(samples), np.array([s.length for s in samples])


@pytest.mark.parametrize("env_id, enc_hidden, dec_hidden",
                         [("pp", 128, 64), ("sk3", 16, 16)],
                         ids=["pp-benchmark-width", "sk3-golden-width"])
def test_fused_elbo_matches_tape_byte_for_byte(env_id, enc_hidden,
                                               dec_hidden):
    # two batches of 19 on their true lengths, longest first, with an
    # RMSprop step between them, so the second batch runs on updated
    # weights
    import tape as T

    data, lengths = _with_lengths(env_id, 19)
    M, n, T_len, D = data.shape
    m = AcdModel(n, T_len, D, seed=0, enc_hidden=enc_hidden,
                 dec_hidden=dec_hidden)
    ref = T.TapeAcd(m)
    sigma = sigma_for(env_id)
    rng = np.random.default_rng(1)
    for _ in range(2):
        order = rng.permutation(M)
        order = order[np.argsort(-lengths[order], kind="stable")]
        x, lb = data[order], lengths[order]
        assert len(set(lb.tolist())) >= 2 and lb[0] < T_len
        noise_seed = int(rng.integers(2 ** 32))
        terms, *caches = _fused_loss(m, x, noise_seed, sigma, lb)
        backward(m, terms, *caches)

        logits = ref.encode(x)
        noise = sample_gumbel(np.random.default_rng(noise_seed),
                              (M, m.n_pairs, 2))
        pred = ref.decode(x, ref.sample_edges(logits, TEMPERATURE, noise),
                          lb)
        nll, kl, total = T.elbo_loss(pred, x[:, :, 1:lb[0], :], logits,
                                     sigma, lb)
        T.backward(total)

        assert np.float64(terms.nll).tobytes() == nll.data.tobytes()
        assert np.float64(terms.kl).tobytes() == kl.data.tobytes()
        for name, g in m.params.grads.items():
            assert g.tobytes() == ref.leaves[name].grad.tobytes(), name
        rmsprop_update(m.params, lr=5e-4)
        for leaf in ref.leaves.values():
            leaf.grad.fill(0.0)


@pytest.fixture(scope="module")
def preprocessed_24():
    return {env_id: _preprocessed(env_id, 24) for env_id in ("pp", "sk3")}


@pytest.mark.parametrize("env_id, enc_hidden, dec_hidden",
                         [("pp", 128, 64), ("sk3", 16, 16), ("sk3", 64, 64)],
                         ids=["pp-benchmark-width", "sk3-golden-width",
                              "sk3-64"])
def test_stacked_encode_matches_batch_one_calls(preprocessed_24, env_id,
                                                enc_hidden, dec_hidden):
    # an (M, 1, n, T, D) stack encodes as M batch-1 calls, logits and
    # cache byte for byte; one 2-D batch of M would round differently
    data = preprocessed_24[env_id]
    _, n, T_len, D = data.shape
    m = AcdModel(n, T_len, D, seed=0, enc_hidden=enc_hidden,
                 dec_hidden=dec_hidden)
    for M in (1, 2, 7, 24):
        x = data[:M]
        logits, cache = m.encode(x[:, None])
        assert logits.shape == (M, 1, m.n_pairs, 2)
        for k in range(M):
            one, one_cache = m.encode(x[k:k + 1])
            assert logits[k].tobytes() == one.tobytes()
            for a, b in zip(cache, one_cache, strict=True):
                assert a[k].tobytes() == b.tobytes()


def _full_width(m):
    """m with enc.emb1 multiplying every input, padding included: the
    encoder before it read only the live prefix."""
    def embed(flat):
        flat = np.ascontiguousarray(flat)
        return K.affine_act_fwd(flat, m.emb1.W, m.emb1.b, m.emb1.act), flat
    m._embed = embed
    return m


def _prefix_width(x):
    """P * D for a (..., n, T, D) batch, P - 1 its last nonzero step."""
    live = np.flatnonzero(x.any(axis=tuple(range(x.ndim - 2)) + (-1,)))
    return (live[-1] + 1 if len(live) else 0) * x.shape[-1]


@pytest.mark.parametrize("stacked", [True, False], ids=["stack", "batch"])
def test_live_prefix_encode_matches_full_width(preprocessed_24, stacked):
    # sk3 samples end at different steps, so the stack's items and the
    # batch read prefixes of different lengths: equal in value, rounded
    # over a shorter inner dimension
    data = preprocessed_24["sk3"]
    _, n, T_len, D = data.shape
    widths = [_prefix_width(x) for x in data]
    assert len(set(widths)) > 1 and max(widths) < T_len * D
    m = AcdModel(n, T_len, D, seed=0, enc_hidden=64, dec_hidden=16)
    full = _full_width(AcdModel(n, T_len, D, seed=0, enc_hidden=64,
                                dec_hidden=16))
    x = data[:, None] if stacked else data
    got, cache = m.encode(x)
    want = full.encode(x)[0]
    for a, b in zip(got.reshape(-1, 2), want.reshape(-1, 2)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    np.testing.assert_array_equal(m.hard_edges(got), full.hard_edges(want))
    prefixes = cache[0] if stacked else [cache[0]]
    assert [p.shape[1] for p in prefixes] == (
        widths if stacked else [max(widths)])


def test_live_prefix_reads_pp_whole(preprocessed_24):
    # the reward node's padding normalizes to a positive constant on pp,
    # so every series is live to T and the product is today's full one
    data = preprocessed_24["pp"]
    _, n, T_len, D = data.shape
    assert all(_prefix_width(x) == T_len * D for x in data)
    m = AcdModel(n, T_len, D, seed=0, enc_hidden=32, dec_hidden=16)
    full = _full_width(AcdModel(n, T_len, D, seed=0, enc_hidden=32,
                                dec_hidden=16))
    for x in (data[:8], data[:8, None]):
        assert m.encode(x)[0].tobytes() == full.encode(x)[0].tobytes()


def test_live_prefix_of_silent_and_full_length_inputs():
    m = _toy_model()
    full = _full_width(_toy_model())
    silent = np.zeros((2, 4, 12, 3))
    last = np.zeros((1, 4, 12, 3))
    last[0, 1, -1, 2] = 0.5
    for x in (silent, last, silent[:, None]):
        logits, cache = m.encode(x)
        assert np.isfinite(logits).all()
        np.testing.assert_array_equal(logits, full.encode(x)[0])
    assert m.encode(silent)[1][0].shape == (8, 0)
    assert m.encode(last)[1][0].shape == (4, 36)
    # an all-zero batch trains: its emb1 weight takes no gradient at all
    _, enc = m.encode(silent)
    m.encode_bwd(enc, np.ones((2, m.n_pairs, 2)))
    assert not m.params.grads["enc.emb1.W"].any()
    assert m.params.grads["enc.emb1.b"].any()


def test_live_prefix_leaves_emb1_rows_past_it_alone(preprocessed_24):
    data = preprocessed_24["sk3"]
    _, n, T_len, D = data.shape
    m = AcdModel(n, T_len, D, seed=0, enc_hidden=16, dec_hidden=16)
    lengths = np.array([s.length for s in collect_dataset("sk3", 24,
                                                           seed=0)])
    order = np.argsort(-lengths, kind="stable")
    x, lb = data[order], lengths[order]
    k = _prefix_width(x)
    assert 0 < k < T_len * D
    terms, *caches = _fused_loss(m, x, 0, sigma_for("sk3"), lb)
    backward(m, terms, *caches)
    g = m.params.grads["enc.emb1.W"]
    assert g[k:].tobytes() == np.zeros_like(g[k:]).tobytes()
    assert np.abs(g[:k]).max() > 0
    W = m.params["enc.emb1.W"]
    before = W.copy()
    rmsprop_update(m.params, lr=5e-4)
    assert W[k:].tobytes() == before[k:].tobytes()
    assert (W[:k] != before[:k]).any()


# ----------------------------------------------------------------- training

def _tiny_dataset(n_samples=12, n=3, T=24, D=4, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n_samples):
        x = np.zeros((n + 1, T, D))
        x[:n] = rng.random((n, T, D))
        x[n, :, 0] = rng.random(T)
        out.append(SeriesSample(x=x, env_id="sk3-sp",
                                bits=rng.integers(0, 2, n).astype(np.uint8),
                                length=T, seed=k))
    return out


def test_train_acd_loss_decreases_and_deterministic(tmp_path):
    data = _tiny_dataset()
    kw = dict(epochs=8, batch_size=4, seed=5, lr=2e-3, enc_hidden=16,
              dec_hidden=8)
    res = train_acd(data, out_dir=tmp_path / "acd", **kw)
    assert len(res.rows) == 8
    assert res.rows[-1]["total"] < res.rows[0]["total"]
    res2 = train_acd(data, **kw)
    for a, b in zip(res.rows, res2.rows):
        assert a == b
    assert (tmp_path / "acd" / "encoder.ckpt").exists()
    assert (tmp_path / "acd" / "acd_log.csv").exists()
    model, meta = load_acd(tmp_path / "acd" / "encoder.ckpt")
    assert meta["env_id"] == "sk3-sp"
    assert meta["sigma"] == sigma_for("sk3-sp") == 5e-3
    x = preprocess(data[:2])
    np.testing.assert_array_equal(model.encode(x)[0], res.model.encode(x)[0])


def test_train_acd_overfits_single_sample():
    # one sample with smooth sinusoid dynamics, repeated to fill a batch;
    # the reconstruction term should collapse when memorization is easy
    rng = np.random.default_rng(7)
    n, T, D = 3, 24, 4
    t = np.arange(T)
    x = np.zeros((n + 1, T, D))
    for i in range(n):
        for d in range(D):
            f = rng.uniform(0.05, 0.2)
            x[i, :, d] = np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x[n, :, 0] = np.cumsum(rng.random(T))
    sample = SeriesSample(x=x, env_id="sk3-sp",
                          bits=rng.integers(0, 2, n).astype(np.uint8),
                          length=T, seed=0)
    res = train_acd([sample] * 8, epochs=60, batch_size=8, seed=1, lr=5e-3,
                    enc_hidden=16, dec_hidden=8)
    assert res.rows[-1]["nll"] < 0.2 * res.rows[0]["nll"]


def test_train_acd_validation(tmp_path):
    with pytest.raises(UsageError):
        train_acd([])
    bad = _tiny_dataset(2)
    bad[1] = SeriesSample(x=np.zeros((5, 24, 4)), env_id="sk3-sp",
                          bits=np.zeros(4, dtype=np.uint8), length=24)
    with pytest.raises(ConfigurationError):
        train_acd(bad, epochs=1, enc_hidden=8, dec_hidden=4)
    for kw in ({"epochs": 0}, {"epochs": -3}, {"batch_size": 0},
               {"batch_size": -1}):
        with pytest.raises(ConfigurationError, match="at least 1"):
            train_acd(_tiny_dataset(2), enc_hidden=8, dec_hidden=4, **kw)
    # a length outside 1..T would fit the decoder on nothing or on padding
    for length in (0, -1, 25, 2.5, None):
        bad = _tiny_dataset(2)
        bad[1] = replace(bad[1], length=length)
        with pytest.raises(ConfigurationError, match="lengths"):
            train_acd(bad, epochs=1, enc_hidden=8, dec_hidden=4,
                      out_dir=tmp_path / "fit")
        assert not (tmp_path / "fit").exists()


# ---------------------------------------------------------------- inference

def test_predict_c_extraction_rules():
    m = _toy_model(n_nodes=4, T=24, D=3)
    x = np.random.default_rng(1).random((1, 4, 24, 3))
    # saturate the head so every pair decodes to no-edge -> all zeros
    m.params["enc.head.W"][...] = 0.0
    m.params["enc.head.b"][...] = [9.0, -9.0]
    np.testing.assert_array_equal(predict_c(m, x), [[0, 0, 0]])
    # force edges everywhere: the reward column lights up
    m.params["enc.head.b"][...] = [-9.0, 9.0]
    np.testing.assert_array_equal(predict_c(m, x), [[1, 1, 1]])


def test_evaluate_accuracy_oracle_and_closure():
    m = _toy_model(n_nodes=3, T=24, D=2)
    samples = _tiny_dataset(10, n=2, T=24, D=2, seed=3)
    res = evaluate_accuracy(m, samples)
    assert abs(res["correct"] + res["false_positive"]
               + res["false_negative"] - 100.0) < 1e-9
    with pytest.raises(UsageError):
        evaluate_accuracy(m, [])


def test_evaluate_accuracy_all_ones_predictor():
    m = _toy_model(n_nodes=3, T=24, D=2)
    m.params["enc.head.W"][...] = 0.0
    m.params["enc.head.b"][...] = [-9.0, 9.0]
    samples = _tiny_dataset(20, n=2, T=24, D=2, seed=4)
    density = np.mean([s.bits.mean() for s in samples])
    res = evaluate_accuracy(m, samples)
    assert abs(res["correct"] - 100 * density) < 1e-9
    assert abs(res["false_positive"] - 100 * (1 - density)) < 1e-9
    assert res["false_negative"] == 0.0


def test_evaluate_accuracy_baselines():
    m = _toy_model(n_nodes=3, T=24, D=2)
    samples = _tiny_dataset(20, n=2, T=24, D=2, seed=4)
    truth = np.stack([s.bits for s in samples])
    share = 100.0 * truth.sum() / truth.size
    assert 0.0 < share < 100.0
    # one stack of all 20 samples, which evaluate_accuracy scores in blocks
    pred = predict_c(m, preprocess(samples))
    tpr = ((pred == 1) & (truth == 1)).sum() / (truth == 1).sum()
    tnr = ((pred == 0) & (truth == 0)).sum() / (truth == 0).sum()
    res = evaluate_accuracy(m, samples)
    assert res["correct"] == 100.0 * (pred == truth).sum() / truth.size
    assert res["false_positive"] == 100.0 * (pred > truth).sum() / truth.size
    assert res["false_negative"] == 100.0 * (pred < truth).sum() / truth.size
    assert res["label_share"] == share
    assert res["majority"] == max(share, 100.0 - share)
    assert res["balanced"] == pytest.approx(50.0 * (tpr + tnr))
    bits, margins = predict_c(m, preprocess(samples), margins=True)
    assert bits.tobytes() == pred.tobytes()
    assert res["margin_auc"] == margin_auc(margins, truth)
    # the all-ones predictor on mixed labels is balanced at exactly 50
    m.params["enc.head.W"][...] = 0.0
    m.params["enc.head.b"][...] = [-9.0, 9.0]
    assert evaluate_accuracy(m, samples)["balanced"] == 50.0
    # one class only: no true-negative rate, so no balanced accuracy
    ones = [replace(s, bits=np.ones_like(s.bits)) for s in samples]
    res = evaluate_accuracy(m, ones)
    assert res["label_share"] == res["majority"] == res["correct"] == 100.0
    assert np.isnan(res["balanced"])
    assert np.isnan(res["margin_auc"])


def test_margin_auc_hand_values():
    # 1-labels score 0.3 and 2.0, 0-labels -1.0 and 0.3: of the four
    # pairs three are ordered and one ties, (3 + 0.5) / 4
    assert margin_auc(np.array([0.3, -1.0, 2.0, 0.3]),
                      np.array([1, 0, 1, 0])) == 0.875
    assert margin_auc(np.array([[2.0, 1.0], [0.5, -3.0]]),
                      np.array([[1, 1], [0, 0]])) == 1.0
    assert margin_auc(np.array([2.0, 1.0, 0.5]), np.array([0, 0, 1])) == 0.0
    assert margin_auc(np.full(4, 0.7), np.array([1, 0, 0, 1])) == 0.5
    assert np.isnan(margin_auc(np.array([0.1, 0.2]), np.array([1, 1])))
    assert np.isnan(margin_auc(np.array([0.1, 0.2]), np.array([0, 0])))


def test_predict_c_stack_matches_per_sample(preprocessed_24):
    data = preprocessed_24["sk3"]
    _, n, T_len, D = data.shape
    m = AcdModel(n, T_len, D, seed=2, enc_hidden=16, dec_hidden=8)
    # centre the edge head on the reward column, so both bits occur
    logits = m.encode(data[:, None])[0][:, 0, m.dst == n - 1]
    m.params["enc.head.b"][1] -= np.median(logits[..., 1] - logits[..., 0])
    bits = predict_c(m, data)
    assert bits.shape == (len(data), n - 1) and bits.dtype == np.uint8
    assert 0.0 < bits.mean() < 1.0
    for k in range(len(data)):
        a = adjacency(m, m.hard_edges(m.encode(data[k:k + 1])[0][0]))
        assert bits[k].tobytes() == a[:-1, -1].tobytes()
        assert bits[k].tobytes() == predict_c(m, data[k:k + 1])[0].tobytes()


def test_evaluate_accuracy_preprocesses_and_encodes_per_block(monkeypatch):
    # one preprocess and one stacked encode per EVAL_BLOCK samples, not
    # one per sample
    import camarl.acd.inference as inference

    calls = {"preprocess": 0, "encode": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inference, "preprocess",
                        counted("preprocess", inference.preprocess))
    monkeypatch.setattr(AcdModel, "encode",
                        counted("encode", AcdModel.encode))
    m = _toy_model(n_nodes=3, T=24, D=2)
    data = _tiny_dataset(2 * inference.EVAL_BLOCK + 1, n=2, T=24, D=2, seed=3)
    assert evaluate_accuracy(m, data[:inference.EVAL_BLOCK])["n_pairs"] == (
        2 * inference.EVAL_BLOCK)
    assert calls == {"preprocess": 1, "encode": 1}
    assert evaluate_accuracy(m, data)["n_pairs"] == 2 * len(data)
    assert calls == {"preprocess": 4, "encode": 4}


def test_make_bits_fn_node_check():
    m = _toy_model(n_nodes=4, T=100, D=OBS_DIM)
    with pytest.raises(ConfigurationError):
        make_bits_fn(m, "pp")  # pp needs 5 nodes
    m2 = AcdModel(5, 100, OBS_DIM, seed=0, enc_hidden=8, dec_hidden=4)
    fn = make_bits_fn(m2, "pp")

    class Ep:
        env_id = "pp"
        seed = 0
        obs = np.random.default_rng(0).random((40, 4, OBS_DIM))
        rewards = np.linspace(0, 1, 40)
    bits = fn(Ep())
    assert bits.shape == (4,)
    assert set(np.unique(bits)) <= {0, 1}
