"""Causal discovery: preprocessing, model invariants, training, extraction."""

import numpy as np
import pytest
from scipy.signal import savgol_filter

from camarl.acd import (
    AcdModel, SeriesSample, collect_dataset, elbo_loss, episode_to_sample,
    evaluate_accuracy, make_bits_fn, minmax_normalize, ordered_pairs,
    predict_c, preprocess_series, savgol_smooth, sg_window,
    sigma_for, split_dataset, train_acd,
)
from camarl.acd.dataset import preprocess
from camarl.acd.inference import adjacency
from camarl.acd.preprocess import POLY_ORDER, _fit_weights, sg_weight_table
from camarl.acd.training import load_acd, save_acd
from camarl.envs import OBS_DIM, env_spec
from camarl.errors import (
    CollectionError, ConfigurationError, UsageError)
from camarl.marl import EpisodeRecord
from camarl.acd.model import sample_gumbel
from camarl.acd.training import TEMPERATURE, backward
from camarl.nn.optim import RmspropState, rmsprop_update

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
    y = np.polyval(coeffs, t)
    out = savgol_smooth(y)
    np.testing.assert_allclose(out, y, atol=1e-8)


def test_savgol_constant_unchanged():
    out = savgol_smooth(np.full(60, 3.25))
    np.testing.assert_allclose(out, 3.25, atol=1e-10)


def test_savgol_matches_scipy_interior():
    rng = np.random.default_rng(1)
    y = rng.normal(size=100)
    delta = sg_window(100)
    ours = savgol_smooth(y)
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
        np.testing.assert_allclose(out[:, c], savgol_smooth(y[:, c]),
                                   atol=1e-12)


def test_sg_weight_table_cached_and_read_only():
    table = sg_weight_table(100)
    assert sg_weight_table(100) is table
    assert isinstance(table, tuple) and len(table) == 100
    for lo, hi, w in table:
        assert w.shape == (hi - lo,)
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_preprocess_submodule_is_not_shadowed():
    # a package attribute named like the submodule would shadow it, and
    # the dotted import would bind that attribute instead
    import camarl.acd
    import camarl.acd.preprocess as m

    assert m.sg_weight_table is sg_weight_table
    assert camarl.acd.preprocess is m
    assert "preprocess" not in camarl.acd.__all__


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
    for x in (rng.normal(size=T), rng.normal(size=(T, 3))):
        for _ in range(2):  # the second call reads the cached table
            assert savgol_smooth(x).tobytes() == _savgol_uncached(x).tobytes()


def test_minmax_normalize():
    np.testing.assert_allclose(minmax_normalize([0.0, 5.0, 0.0, 10.0]),
                               [0.0, 0.5, 0.0, 1.0])
    np.testing.assert_array_equal(minmax_normalize([2.0, 2.0, 2.0]),
                                  [0.0, 0.0, 0.0])


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


# ------------------------------------------------------------------ dataset

def test_episode_to_sample_layout_and_padding():
    ep = EpisodeRecord(
        env_id="pp-sp", seed=4,
        obs=np.random.default_rng(0).random((30, 5, OBS_DIM)),
        actions=np.zeros((30, 5), dtype=np.int64),
        rewards=np.linspace(0, 1, 30), kinds=np.zeros(30, dtype=np.int64),
        bits=np.ones((30, 5), dtype=np.uint8), win=True,
        events=np.zeros(5, dtype=np.int64))
    s = episode_to_sample(ep, np.array([1, 0, 1, 0, 0], dtype=np.uint8))
    assert s.x.shape == (6, 100, OBS_DIM)
    assert s.length == 30 and s.n_nodes == 6 and s.seed == 4
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
    learners = []
    for i in range(spec.n_agents):
        ln = AgentLearner(OBS_DIM, spec.n_actions, n_hidden=8, seed=i)
        ln.params["head.W"].data[...] = 0.0
        ln.params["head.b"].data[...] = 0.0
        learners.append(ln)
    with pytest.raises(CollectionError):
        collect_dataset("sk3-sp", 2, seed=0, learners=learners,
                        attempt_factor=2)


def test_split_dataset():
    samples = [SeriesSample(x=np.zeros((2, 24, 1)), env_id="pp",
                            bits=np.zeros(1, dtype=np.uint8), seed=k)
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
    m.params["enc.head.W"].data[...] = 0.0
    m.params["enc.head.b"].data[...] = 0.0
    logits = m.encode(_toy_batch())[0]
    np.testing.assert_array_equal(logits, 0.0)


def test_decoder_no_edge_blocks_information():
    m = _toy_model()
    x = _toy_batch(B=1, seed=5)
    w = np.zeros((1, m.n_pairs))
    base = m.decode(x, w)[0]
    x2 = x.copy()
    x2[0, 0] += 3.21  # perturb node 0's whole series
    pert = m.decode(x2, w)[0]
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
    base = m.decode(x, w_data)[0]
    x2 = x.copy()
    x2[0, 0] += 3.21
    pert = m.decode(x2, w_data)[0]
    assert np.abs(base[0, 1] - pert[0, 1]).max() > 0
    # nodes without an incoming edge from node 0 stay put
    np.testing.assert_array_equal(base[0, 2:], pert[0, 2:])


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
    w, _ = m.sample_edges(logits, 0.5, rng=rng)
    pred, _ = m.decode(x, w)
    terms = elbo_loss(pred, pred.copy(), logits, sigma=5e-4)
    assert terms.nll == 0.0
    assert terms.kl >= 0.0
    # uniform posterior -> zero KL
    m.params["enc.head.W"].data[...] = 0.0
    m.params["enc.head.b"].data[...] = 0.0
    logits_u, _ = m.encode(x)
    terms_u = elbo_loss(pred, pred.copy(), logits_u, sigma=5e-4)
    assert abs(terms_u.kl) < 1e-12


def test_elbo_hand_value():
    # single scalar error of 0.1 at sigma 5e-3: 0.01 / (2 * 0.005) = 1.0
    pred = np.full((1, 1, 1, 1), 0.1)
    target = np.zeros((1, 1, 1, 1))
    logits = np.zeros((1, 1, 2))
    terms = elbo_loss(pred, target, logits, sigma=5e-3)
    assert abs(terms.nll - 1.0) < 1e-12
    assert abs(terms.total - 1.0) < 1e-12
    # d nll / d pred = (pred - target) / (sigma * batch) = 20
    assert abs(terms.g_pred.item() - 20.0) < 1e-12
    np.testing.assert_array_equal(terms.g_logits, 0.0)


def test_elbo_sigma_validation():
    pred = np.zeros((1, 1, 1, 1))
    with pytest.raises(ConfigurationError):
        elbo_loss(pred, pred, np.zeros((1, 1, 2)), sigma=0.0)


def test_elbo_gradient_flows_through_encoder():
    m = _toy_model(n_nodes=3, T=12, D=2)
    x = _toy_batch(n=3, T=12, D=2, B=2, seed=8)
    rng = np.random.default_rng(1)
    logits, enc = m.encode(x)
    noise = sample_gumbel(rng, logits.shape)
    w, soft = m.sample_edges(logits, TEMPERATURE, noise=noise)
    pred, dec = m.decode(x, w)
    terms = elbo_loss(pred, x[:, :, 1:, :], logits, sigma=5e-4)
    backward(m, terms, enc, dec, soft)
    g = m.params["enc.emb1.W"].grad
    assert np.abs(g).max() > 0


def _fused_loss(m, x, noise, sigma):
    """The training loop's forward for one batch: (terms, enc, dec, soft)."""
    logits, enc = m.encode(x)
    w, soft = m.sample_edges(logits, TEMPERATURE, noise=noise)
    pred, dec = m.decode(x, w)
    return elbo_loss(pred, x[:, :, 1:, :], logits, sigma), enc, dec, soft


def _check_fused_gradients(m, x, noise, sigma, names, n_entries):
    """Central differences of the ELBO against the fused backward."""
    terms, *caches = _fused_loss(m, x, noise, sigma)
    backward(m, terms, *caches)
    h = 1e-6
    for name in names:
        t = m.params[name]
        flat = t.data.reshape(-1)
        gflat = t.grad.reshape(-1)
        for k in np.linspace(0, flat.size - 1, n_entries, dtype=int):
            keep = flat[k]
            flat[k] = keep + h
            up = _fused_loss(m, x, noise, sigma)[0].total
            flat[k] = keep - h
            dn = _fused_loss(m, x, noise, sigma)[0].total
            flat[k] = keep
            num = (up - dn) / (2 * h)
            assert relative_error(gflat[k], num) < 1e-3, (name, k)
    for _, t in m.params.named():
        t.grad.fill(0.0)


def test_elbo_encoder_gradcheck():
    # finite differences through encode -> sample -> decode with the
    # Gumbel noise held fixed
    m = _toy_model(n_nodes=3, T=12, D=2, seed=3)
    x = _toy_batch(n=3, T=12, D=2, B=1, seed=9)
    noise = sample_gumbel(np.random.default_rng(2), (1, m.n_pairs, 2))
    _check_fused_gradients(m, x, noise, 5e-2, ("enc.head.W", "enc.emb1.b",
                                               "enc.fe2a.W", "dec.msg.W"), 5)


def test_fused_elbo_gradcheck_every_parameter():
    m = AcdModel(3, 6, 2, seed=4, enc_hidden=5, dec_hidden=4)
    x = _toy_batch(n=3, T=6, D=2, B=2, seed=10)
    noise = sample_gumbel(np.random.default_rng(3), (2, m.n_pairs, 2))
    names = [name for name, _ in m.params.named()]
    assert len(names) == 26
    _check_fused_gradients(m, x, noise, 5e-2, names, 3)


def _preprocessed(env_id, n):
    return np.stack([preprocess(s).x
                     for s in collect_dataset(env_id, n, seed=0)])


@pytest.mark.parametrize("env_id, enc_hidden, dec_hidden",
                         [("pp", 128, 64), ("sk3", 16, 16)],
                         ids=["pp-benchmark-width", "sk3-golden-width"])
def test_fused_elbo_matches_tape_byte_for_byte(env_id, enc_hidden,
                                               dec_hidden):
    # two batches of 19 with an RMSprop step between them, so the second
    # batch runs on updated weights
    import tape as T

    data = _preprocessed(env_id, 19)
    M, n, T_len, D = data.shape
    m = AcdModel(n, T_len, D, seed=0, enc_hidden=enc_hidden,
                 dec_hidden=dec_hidden)
    ref = T.TapeAcd(m)
    opt = RmspropState(m.params)
    sigma = sigma_for(env_id)
    rng = np.random.default_rng(1)
    for _ in range(2):
        x = data[rng.permutation(M)]
        noise = sample_gumbel(rng, (M, m.n_pairs, 2))
        terms, *caches = _fused_loss(m, x, noise, sigma)
        backward(m, terms, *caches)

        logits = ref.encode(x)
        pred = ref.decode(x, ref.sample_edges(logits, TEMPERATURE, noise))
        nll, kl, total = T.elbo_loss(pred, x[:, :, 1:, :], logits, sigma)
        T.backward(total)

        assert np.float64(terms.nll).tobytes() == nll.data.tobytes()
        assert np.float64(terms.kl).tobytes() == kl.data.tobytes()
        for name, p in m.params.named():
            assert p.grad.tobytes() == ref.leaves[name].grad.tobytes(), name
        rmsprop_update(m.params, opt, lr=5e-4)
        for leaf in ref.leaves.values():
            leaf.grad.fill(0.0)


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
                                seed=k))
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
    x = np.stack([preprocess(s).x for s in data[:2]])
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
                          bits=rng.integers(0, 2, n).astype(np.uint8), seed=0)
    res = train_acd([sample] * 8, epochs=60, batch_size=8, seed=1, lr=5e-3,
                    enc_hidden=16, dec_hidden=8)
    assert res.rows[-1]["nll"] < 0.2 * res.rows[0]["nll"]


def test_train_acd_validation():
    with pytest.raises(UsageError):
        train_acd([])
    bad = _tiny_dataset(2)
    bad[1] = SeriesSample(x=np.zeros((5, 24, 4)), env_id="sk3-sp",
                          bits=np.zeros(4, dtype=np.uint8))
    with pytest.raises(ConfigurationError):
        train_acd(bad, epochs=1, enc_hidden=8, dec_hidden=4)


# ---------------------------------------------------------------- inference

def test_predict_c_extraction_rules():
    m = _toy_model(n_nodes=4, T=24, D=3)
    sample = SeriesSample(x=np.random.default_rng(1).random((4, 24, 3)),
                          env_id="lj-sp", bits=np.zeros(3, dtype=np.uint8))
    # saturate the head so every pair decodes to no-edge -> all zeros
    m.params["enc.head.W"].data[...] = 0.0
    m.params["enc.head.b"].data[...] = [9.0, -9.0]
    np.testing.assert_array_equal(predict_c(m, sample), [0, 0, 0])
    # force edges everywhere: the reward column lights up
    m.params["enc.head.b"].data[...] = [-9.0, 9.0]
    np.testing.assert_array_equal(predict_c(m, sample), [1, 1, 1])


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
    m.params["enc.head.W"].data[...] = 0.0
    m.params["enc.head.b"].data[...] = [-9.0, 9.0]
    samples = _tiny_dataset(20, n=2, T=24, D=2, seed=4)
    density = np.mean([s.bits.mean() for s in samples])
    res = evaluate_accuracy(m, samples)
    assert abs(res["correct"] - 100 * density) < 1e-9
    assert abs(res["false_positive"] - 100 * (1 - density)) < 1e-9
    assert res["false_negative"] == 0.0


def test_make_bits_fn_node_check():
    m = _toy_model(n_nodes=4, T=100, D=OBS_DIM)
    with pytest.raises(ConfigurationError):
        make_bits_fn(m, "pp")  # pp needs 5 nodes
    m2 = AcdModel(5, 100, OBS_DIM, seed=0, enc_hidden=8, dec_hidden=4)
    fn = make_bits_fn(m2, "pp")
    assert fn.n_nodes == 5

    class Ep:
        env_id = "pp"
        seed = 0
        obs = np.random.default_rng(0).random((40, 4, OBS_DIM))
        rewards = np.linspace(0, 1, 40)
    bits = fn(Ep())
    assert bits.shape == (4,)
    assert set(np.unique(bits)) <= {0, 1}
