"""Substrate tests: kernels, the reference tape, optimizer, checkpoints."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tape as T
from helpers import gradcheck, relative_error
from camarl.acd.model import sample_gumbel
from camarl.errors import ConfigurationError, UsageError
from camarl.nn import kernels as K
from camarl.nn.layers import ParamSet, Dense, GruCell
from camarl.nn.optim import (
    EPS, RHO, RmspropState, rmsprop_update, clip_global_norm)
from camarl.nn.checkpoint import (
    atomic_open, load_checkpoint, read_json, save_checkpoint, write_csv,
    write_json)

RNG = np.random.default_rng(1234)
SRC = Path(__file__).resolve().parents[1] / "src"


def _param(*shape):
    return T.Parameter(RNG.uniform(-0.8, 0.8, size=shape))


# ------------------------------------------------------------- import time

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_camarl(code="import camarl.harness.cli", preset=()):
    # a fresh interpreter with only the preset BLAS variables in its
    # environment; every warning is an error
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(dict.fromkeys(preset, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)


def test_default_backend_imports_silently():
    # the CLI module imports every subpackage
    res = _import_camarl()
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("preset, named", [
    ((), BLAS_VARS), (BLAS_VARS[:1], BLAS_VARS[1:]), (BLAS_VARS, ())])
def test_blas_pin_warns_when_numpy_came_first(preset, named):
    # the pin is an environment variable that BLAS reads when numpy loads
    # it, so camarl imported after numpy must name the pins it missed; the
    # other order is test_default_backend_imports_silently
    res = _import_camarl("import numpy; import camarl", preset)
    if not named:
        assert res.returncode == 0, res.stderr
        return
    assert res.returncode != 0
    line = res.stderr.strip().splitlines()[-1]
    assert line.startswith("RuntimeWarning: numpy was imported before camarl")
    for var in BLAS_VARS:
        assert (var in line) == (var in named), var


# ------------------------------------------------------------ dense layers

@pytest.mark.parametrize("act", [K.ACT_IDENTITY, K.ACT_TANH, K.ACT_RELU])
def test_dense_gradcheck(act):
    x = _param(4, 5)
    W = _param(5, 3)
    b = _param(3)
    if act == K.ACT_RELU:
        # keep pre-activations away from the kink
        pre = x.data @ W.data + b.data
        b.data[np.abs(pre).min(axis=0) < 1e-3] += 0.01
    s = T.constant(RNG.normal(size=(4, 3)))
    gradcheck(lambda: (T.dense(x, W, b, act) * s).sum(), [x, W, b])


def test_dense_matches_plain_numpy():
    x, W, b = _param(6, 4), _param(4, 7), _param(7)
    y = T.dense(x, W, b, K.ACT_TANH)
    np.testing.assert_allclose(y.data, np.tanh(x.data @ W.data + b.data), rtol=1e-12)


# -------------------------------------------------------------------- gru

def test_gru_step_gradcheck():
    H = 4
    x = _param(3, 5)
    h = _param(3, H)
    Wx = _param(5, 3 * H)
    Wh = _param(H, 3 * H)
    bx = _param(3 * H)
    bh = _param(3 * H)
    s = T.constant(RNG.normal(size=(3, H)))
    gradcheck(lambda: (T.gru_step(x, h, Wx, Wh, bx, bh) * s).sum(),
              [x, h, Wx, Wh, bx, bh])


def test_gru_chain_gradcheck():
    # three steps through time, gradients flow through the carried state
    H, B, I = 3, 2, 4
    xs = [_param(B, I) for _ in range(3)]
    h0 = _param(B, H)
    Wx, Wh, bx, bh = _param(I, 3 * H), _param(H, 3 * H), _param(3 * H), _param(3 * H)
    s = T.constant(RNG.normal(size=(B, H)))

    def loss():
        h = h0
        for x in xs:
            h = T.gru_step(x, h, Wx, Wh, bx, bh)
        return (h * s).sum()

    gradcheck(loss, xs + [h0, Wx, Wh, bx, bh])


def test_gru_reference_formula():
    # independent recomputation of one step from the gate equations
    H = 3
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 4))
    h = rng.normal(size=(2, H))
    Wx = rng.normal(size=(4, 3 * H)) * 0.3
    Wh = rng.normal(size=(H, 3 * H)) * 0.3
    bx = rng.normal(size=3 * H) * 0.1
    bh = rng.normal(size=3 * H) * 0.1
    h_new = K.gru_fwd(x, h, Wx, Wh, bx, bh)[0]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    px, ph = x @ Wx + bx, h @ Wh + bh
    r = sig(px[:, :H] + ph[:, :H])
    z = sig(px[:, H:2 * H] + ph[:, H:2 * H])
    n = np.tanh(px[:, 2 * H:] + r * ph[:, 2 * H:])
    np.testing.assert_allclose(h_new, z * h + (1 - z) * n, rtol=1e-12)


# --------------------------------------------------------- fused unroll

def _unroll_setup(T_len=4, B=2, I=5, H=4, A=3, seed=99):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(T_len, B, I))
    h0 = np.zeros((B, H))
    p = {
        "Wx": rng.uniform(-0.4, 0.4, (I, 3 * H)), "Wh": rng.uniform(-0.4, 0.4, (H, 3 * H)),
        "bx": rng.uniform(-0.4, 0.4, 3 * H), "bh": rng.uniform(-0.4, 0.4, 3 * H),
        "Wq": rng.uniform(-0.4, 0.4, (H, A)), "bq": rng.uniform(-0.4, 0.4, A),
    }
    S = rng.normal(size=(T_len, B, A))
    return X, h0, p, S


def _unroll_loss(X, h0, p, S):
    Q = K.qnet_unroll_fwd(X, h0, p["Wx"], p["Wh"], p["bx"], p["bh"],
                          p["Wq"], p["bq"])[0]
    return float((Q * S).sum())


def test_qnet_unroll_matches_tape():
    X, h0, p, S = _unroll_setup()
    out = K.qnet_unroll_fwd(X, h0, p["Wx"], p["Wh"], p["bx"], p["bh"],
                            p["Wq"], p["bq"])
    Q, Hs, R, Z, Nc, GHN = out
    grads = K.qnet_unroll_bwd(X, h0, Hs, R, Z, Nc, GHN,
                              p["Wx"], p["Wh"], p["Wq"], S)

    # same computation composed from tape ops
    tp = {k: T.Parameter(v) for k, v in p.items()}
    h = T.constant(h0)
    loss = None
    for t in range(X.shape[0]):
        h = T.gru_step(T.constant(X[t]), h, tp["Wx"], tp["Wh"], tp["bx"], tp["bh"])
        q = T.dense(h, tp["Wq"], tp["bq"], K.ACT_IDENTITY)
        term = (q * T.constant(S[t])).sum()
        loss = term if loss is None else loss + term
    T.backward(loss)

    names = ["Wx", "Wh", "bx", "bh", "Wq", "bq"]
    for name, g in zip(names, grads):
        np.testing.assert_allclose(g, tp[name].grad, rtol=1e-9, atol=1e-11,
                                   err_msg=name)


def test_qnet_unroll_finite_difference():
    X, h0, p, S = _unroll_setup(seed=41)
    out = K.qnet_unroll_fwd(X, h0, p["Wx"], p["Wh"], p["bx"], p["bh"],
                            p["Wq"], p["bq"])
    grads = dict(zip(["Wx", "Wh", "bx", "bh", "Wq", "bq"],
                     K.qnet_unroll_bwd(X, h0, *out[1:], p["Wx"], p["Wh"],
                                       p["Wq"], S)))
    h = 1e-5
    for name, arr in p.items():
        num = np.zeros_like(arr)
        flat, nf = arr.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = _unroll_loss(X, h0, p, S)
            flat[i] = orig - h
            fm = _unroll_loss(X, h0, p, S)
            flat[i] = orig
            nf[i] = (fp - fm) / (2 * h)
        assert relative_error(grads[name], num) < 1e-4, name


def test_qnet_step_agrees_with_unroll():
    X, h0, p, _ = _unroll_setup(T_len=3)
    Q = K.qnet_unroll_fwd(X, h0, p["Wx"], p["Wh"], p["bx"], p["bh"],
                          p["Wq"], p["bq"])[0]
    h = h0
    for t in range(3):
        q, h = K.qnet_step(X[t], h, p["Wx"], p["Wh"], p["bx"], p["bh"],
                           p["Wq"], p["bq"])
        np.testing.assert_allclose(q, Q[t], rtol=1e-12)


def _gru_weights(rng, n_in, H):
    return (rng.uniform(-0.3, 0.3, (n_in, 3 * H)),
            rng.uniform(-0.3, 0.3, (H, 3 * H)),
            rng.uniform(-0.1, 0.1, 3 * H), rng.uniform(-0.1, 0.1, 3 * H))


@pytest.mark.parametrize("n_in", [58, 59], ids=["lj", "sk3"])
@pytest.mark.parametrize("E", [1, 2, 12, 60])
def test_stacked_acting_kernels_match_single_rows(E, n_in):
    # an (E, 1, .) stack rounds each row as its own (1, .) product
    H, A = 64, n_in - 53
    rng = np.random.default_rng(E * 100 + n_in)
    Wx, Wh, bx, bh = _gru_weights(rng, n_in, H)
    Wq, bq = rng.uniform(-0.3, 0.3, (H, A)), rng.uniform(-0.1, 0.1, A)
    x = rng.random((E, 1, n_in))
    h = rng.uniform(-1.0, 1.0, (E, 1, H))
    stacked_gru = K.gru_fwd(x, h, Wx, Wh, bx, bh)
    q, h_new = K.qnet_step(x, h, Wx, Wh, bx, bh, Wq, bq)
    assert q.shape == (E, 1, A) and h_new.shape == (E, 1, H)
    for e in range(E):
        row_gru = K.gru_fwd(x[e], h[e], Wx, Wh, bx, bh)
        for a, b in zip(stacked_gru, row_gru):
            assert a[e].tobytes() == b.tobytes()
        q_e, h_e = K.qnet_step(x[e], h[e], Wx, Wh, bx, bh, Wq, bq)
        assert q[e].tobytes() == q_e.tobytes()
        assert h_new[e].tobytes() == h_e.tobytes()


def _gru_fwd_dot(x, h, Wx, Wh, bx, bh):
    # reference: the 2-D np.dot form, which a 2-D batch must match
    H = h.shape[1]
    pre_x = np.dot(x, Wx) + bx
    pre_h = np.dot(h, Wh) + bh
    r = K.sigmoid_stable(pre_x[:, :H] + pre_h[:, :H])
    z = K.sigmoid_stable(pre_x[:, H:2 * H] + pre_h[:, H:2 * H])
    ghn = pre_h[:, 2 * H:].copy()
    n = np.tanh(pre_x[:, 2 * H:] + r * ghn)
    return z * h + (1.0 - z) * n, r, z, n, ghn


@pytest.mark.parametrize("B, n_in, H", [(1, 58, 64), (8, 58, 64),
                                        (32, 59, 64), (5, 14, 8)])
def test_batched_gru_fwd_matches_dot_form(B, n_in, H):
    rng = np.random.default_rng(B + n_in + H)
    w = _gru_weights(rng, n_in, H)
    x = rng.random((B, n_in))
    h = rng.uniform(-1.0, 1.0, (B, H))
    for a, b in zip(K.gru_fwd(x, h, *w), _gru_fwd_dot(x, h, *w)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------ distributions

def test_softmax_gradcheck():
    x = _param(3, 5)
    s = T.constant(RNG.normal(size=(3, 5)))
    gradcheck(lambda: (T.softmax(x) * s).sum(), [x])


def test_log_softmax_gradcheck():
    x = _param(4, 6)
    s = T.constant(RNG.normal(size=(4, 6)))
    gradcheck(lambda: (T.log_softmax(x) * s).sum(), [x])


def test_log_softmax_is_log_of_softmax():
    x = RNG.normal(size=(5, 7)) * 30.0  # large logits, stability matters
    np.testing.assert_allclose(T.log_softmax(T.constant(x)).data,
                               np.log(T.softmax(T.constant(x)).data),
                               rtol=1e-10, atol=1e-12)


def test_gumbel_softmax_soft_gradcheck():
    logits = _param(3, 4)
    noise = sample_gumbel(np.random.default_rng(5), (3, 4))
    s = T.constant(RNG.normal(size=(3, 4)))
    gradcheck(lambda: (T.gumbel_softmax(logits, 0.5, noise) * s).sum(), [logits])


def test_kl_categorical_uniform():
    logits = _param(5, 4)
    gradcheck(lambda: T.kl_categorical_uniform(logits).sum(), [logits])
    # uniform logits give zero KL
    z = T.constant(np.zeros((2, 6)))
    np.testing.assert_allclose(T.kl_categorical_uniform(z).data, 0.0, atol=1e-12)
    # a point mass on one of k outcomes approaches log k
    p = T.constant(np.array([[50.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(T.kl_categorical_uniform(p).data, np.log(4.0),
                               rtol=1e-6)


# ------------------------------------------------------------ tape semantics

def test_shape_ops_gradcheck():
    x = _param(2, 3, 4)
    s = T.constant(RNG.normal(size=(2, 12)))
    gradcheck(lambda: (T.reshape(x, (2, 12)) * s).sum(), [x])

    a, b = _param(2, 3), _param(2, 5)
    s2 = T.constant(RNG.normal(size=(2, 8)))
    gradcheck(lambda: (T.concat([a, b], axis=-1) * s2).sum(), [a, b])

    y = _param(3, 4, 2)
    idx = np.array([0, 2, 2, 1])
    s3 = T.constant(RNG.normal(size=(3, 4, 2)))
    gradcheck(lambda: (T.take(y, idx, axis=1) * s3).sum(), [y])

    m = RNG.normal(size=(4, 3))
    z = _param(2, 4, 5)
    s4 = T.constant(RNG.normal(size=(2, 3, 5)))
    gradcheck(lambda: (T.mix_axis1(z, m) * s4).sum(), [z])


def test_broadcast_gradcheck():
    a = _param(3, 1, 4)
    b = _param(5, 1)
    s = T.constant(RNG.normal(size=(3, 5, 4)))
    gradcheck(lambda: ((a * b + a) * s).sum(), [a, b])


def test_square_gradcheck():
    a = _param(3, 3)
    s = T.constant(RNG.normal(size=(3, 3)))
    gradcheck(lambda: (T.square(a) * s).sum(), [a])


def test_backward_accumulates_across_calls():
    x = T.Parameter([2.0, 3.0])
    T.backward((x * x).sum())
    once = x.grad.copy()
    T.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, 2.0 * once)


def test_shared_subexpression_accumulates():
    x = T.Parameter([1.5])
    y = x * 3.0
    T.backward((y + y * y).sum())  # d/dx (3x + 9x^2) = 3 + 18x
    np.testing.assert_allclose(x.grad, [3.0 + 18.0 * 1.5])


def test_deep_graph_no_recursion_limit():
    x = T.Parameter([1.0])
    y = x
    for _ in range(5000):
        y = y + 0.0
    T.backward(y.sum())
    np.testing.assert_allclose(x.grad, [1.0])


def test_backward_nonscalar_raises():
    x = _param(2, 2)
    with pytest.raises(UsageError):
        T.backward(x * 1.0)


def test_shape_mismatch_raises():
    with pytest.raises(ConfigurationError):
        T.dense(_param(2, 3), _param(4, 5), _param(5), K.ACT_IDENTITY)
    with pytest.raises(ConfigurationError):
        T.gru_step(_param(2, 3), _param(2, 4), _param(3, 9), _param(3, 9),
                   _param(9), _param(9))
    with pytest.raises(ConfigurationError):
        T.gumbel_softmax(_param(2, 2), 0.0, np.zeros((2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_add_broadcast_property(rows, cols, flip):
    rng = np.random.default_rng(rows * 10 + cols)
    a = T.Parameter(rng.normal(size=(rows, cols)))
    b = T.Parameter(rng.normal(size=(1, cols) if flip else (rows, 1)))
    T.backward((a + b).sum())
    np.testing.assert_allclose(a.grad, np.ones((rows, cols)))
    np.testing.assert_allclose(b.grad, np.full(b.data.shape, rows if flip else cols))


# ---------------------------------------------------------------- optimizer

def test_rmsprop_hand_value():
    ps = ParamSet()
    p = ps.add("w", [1.0])
    p.grad[:] = [2.0]
    state = RmspropState(ps)
    rmsprop_update(ps, state, lr=5e-4)
    v = 0.01 * 4.0
    expected = 1.0 - 5e-4 * 2.0 / (np.sqrt(v) + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)
    np.testing.assert_allclose(state.v["w"], [v], rtol=1e-12)
    assert p.grad[0] == 0.0  # zeroed after the step


def test_rmsprop_shrinks_quadratic():
    ps = ParamSet()
    p = ps.add("w", np.array([3.0, -2.0]))
    state = RmspropState(ps)
    for _ in range(400):
        p.grad += 2.0 * p.data  # d/dw sum(w^2)
        rmsprop_update(ps, state, lr=0.01)
    assert np.all(np.abs(p.data) < 0.1)


def test_clip_global_norm():
    ps = ParamSet()
    a = ps.add("a", [3.0])
    b = ps.add("b", [4.0])
    a.grad[:] = [3.0]
    b.grad[:] = [4.0]
    norm = clip_global_norm(ps, 1.0)
    assert abs(norm - 5.0) < 1e-12
    np.testing.assert_allclose(a.grad, [0.6])
    np.testing.assert_allclose(b.grad, [0.8])
    # below the threshold nothing changes
    a.grad[:] = [0.3]
    b.grad[:] = [0.4]
    clip_global_norm(ps, 1.0)
    np.testing.assert_allclose(a.grad, [0.3])


def _ref_rmsprop_step(p, g, v, lr, rho, eps):
    for i in range(p.shape[0]):
        gi = g[i]
        v[i] = rho * v[i] + (1.0 - rho) * gi * gi
        p[i] -= lr * gi / (np.sqrt(v[i]) + eps)


def _ref_sumsq(a):
    s = 0.0
    for i in range(a.shape[0]):
        s += a[i] * a[i]
    return s


def _ref_scale_inplace(a, s):
    for i in range(a.shape[0]):
        a[i] *= s


def _wide_floats(rng, n):
    """Random signs, magnitudes log-uniform over 1e-8 .. 1e3."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 3, n)


@pytest.mark.parametrize("n", [0, 1, 10_007])
def test_optimizer_kernels_match_scalar_loops(n):
    rng = np.random.default_rng(n)
    p, g = _wide_floats(rng, n), _wide_floats(rng, n)
    v = np.abs(_wide_floats(rng, n))
    p_ref, v_ref = p.copy(), v.copy()
    K.rmsprop_step(p, g, v, 5e-4, 0.99, 1e-8)
    _ref_rmsprop_step(p_ref, g, v_ref, 5e-4, 0.99, 1e-8)
    assert p.tobytes() == p_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()

    total = K.sumsq(g)
    assert np.float64(total).tobytes() == np.float64(_ref_sumsq(g)).tobytes()


def test_clipped_rmsprop_update_matches_scalar_path():
    rng = np.random.default_rng(5)
    shapes = {"W": (40, 25), "b": (25,), "q": (7,)}
    sets = []
    for _ in range(2):
        ps = ParamSet()
        for name, shape in shapes.items():
            ps.add(name, np.zeros(shape))
        sets.append(ps)
    states = [RmspropState(ps) for ps in sets]
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        data, grad = _wide_floats(rng, n), _wide_floats(rng, n)
        v = np.abs(_wide_floats(rng, n))
        for ps, state in zip(sets, states):
            ps[name].data[...] = data.reshape(shape)
            ps[name].grad[...] = grad.reshape(shape)
            state.v[name][...] = v

    norm = rmsprop_update(sets[0], states[0], lr=5e-4, max_norm=1e-3)

    ps, state = sets[1], states[1]
    total = 0.0
    for _, t in ps.named():
        total += _ref_sumsq(t.grad.reshape(-1))
    ref_norm = float(np.sqrt(total))
    assert ref_norm > 1e-3  # the update clips
    for _, t in ps.named():
        _ref_scale_inplace(t.grad.reshape(-1), 1e-3 / ref_norm)
    for name, t in ps.named():
        _ref_rmsprop_step(t.data.reshape(-1), t.grad.reshape(-1),
                          state.v[name], 5e-4, RHO, EPS)

    assert norm == ref_norm
    for (name, t), (_, t_ref) in zip(sets[0].named(), ps.named()):
        assert t.data.tobytes() == t_ref.data.tobytes(), name
        assert states[0].v[name].tobytes() == state.v[name].tobytes(), name
        assert not t.grad.any()


# --------------------------------------------------------------- containers

def test_paramset_duplicate_name_raises():
    ps = ParamSet()
    ps.add("x", [1.0])
    with pytest.raises(UsageError):
        ps.add("x", [2.0])


def test_paramset_load_shape_mismatch_raises():
    ps = ParamSet()
    ps.add("x", np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        ps.load_arrays({"x": np.zeros(3)})
    with pytest.raises(ConfigurationError):
        ps.load_arrays({})


def test_layers_init_scale():
    ps = ParamSet()
    rng = np.random.default_rng(0)
    d = Dense(ps, "d", 100, 50, K.ACT_IDENTITY, rng)
    bound = 1.0 / np.sqrt(100)
    assert np.abs(d.W.data).max() <= bound
    g = GruCell(ps, "g", 100, 64, rng)
    assert np.abs(g.Wx.data).max() <= bound
    assert np.abs(g.Wh.data).max() <= 1.0 / np.sqrt(64)
    assert len(ps) == 6


# -------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(11)
    arrays = {"a.W": rng.normal(size=(7, 3)), "b": rng.normal(size=5),
              "scalar": np.array(3.75)}
    meta = {"seed": 42, "note": "x"}
    path = tmp_path / "ck.bin"
    save_checkpoint(path, arrays, meta)
    loaded, m = load_checkpoint(path)
    assert m["seed"] == 42 and m["note"] == "x"
    assert "substrate_version" in m
    for k, v in arrays.items():
        assert loaded[k].tobytes() == v.tobytes()
        assert loaded[k].shape == v.shape


def test_checkpoint_deterministic_bytes(tmp_path):
    arrays = {"w": np.linspace(0, 1, 9).reshape(3, 3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, arrays, {"k": 1})
    save_checkpoint(p2, arrays, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(ConfigurationError):
        load_checkpoint(p)


def test_checkpoint_torn_or_padded_raises(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)}, {"k": 1})
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    # every cut inside the fixed prefix and the header, a few in the payload
    cuts = list(range(4, 16 + hlen + 1)) + [len(raw) - 8, len(raw) - 1]
    for cut in cuts:
        path.write_bytes(raw[:cut])
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)
    path.write_bytes(raw + b"\0" * 8)
    with pytest.raises(ConfigurationError, match="after its payload"):
        load_checkpoint(path)
    path.write_bytes(raw[:16] + b"\xff" + raw[17:])
    with pytest.raises(ConfigurationError, match="corrupt header"):
        load_checkpoint(path)
    path.write_bytes(raw)
    assert load_checkpoint(path)[1]["k"] == 1


def _checkpoint_with_header(path, header):
    """A complete checkpoint file around a hand-written JSON header."""
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(b"CMCK" + struct.pack("<IQ", 1, len(blob)) + blob)


MALFORMED_HEADERS = {
    "list": [],
    "tensors-not-list": {"tensors": "x"},
    "no-tensors": {},
    "no-shape": {"tensors": [{"name": "w"}]},
    "no-name": {"tensors": [{"shape": [2]}]},
    "negative-dim": {"tensors": [{"name": "w", "shape": [-1]}]},
    "meta-not-dict": {"tensors": [], "meta": 5},
}


@pytest.mark.parametrize("header", MALFORMED_HEADERS.values(),
                         ids=MALFORMED_HEADERS.keys())
def test_checkpoint_malformed_header_raises(tmp_path, header):
    path = tmp_path / "ck.bin"
    _checkpoint_with_header(path, header)
    with pytest.raises(ConfigurationError, match="malformed header"):
        load_checkpoint(path)


def test_checkpoint_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"w": np.arange(4.0)}, {"k": 1})
    good = path.read_bytes()
    # the header is written before "bad" fails to convert to float64
    with pytest.raises(ValueError):
        save_checkpoint(path, {"w": np.ones(4), "bad": np.array(["x"])})
    assert path.read_bytes() == good
    arrays, meta = load_checkpoint(path)
    assert arrays["w"].tolist() == [0.0, 1.0, 2.0, 3.0] and meta["k"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


def test_csv_writes_numpy_scalars_as_python_floats(tmp_path):
    # repr(np.float64(x)) reads "np.float64(x)" under numpy 2
    path = tmp_path / "t.csv"
    x = np.float64(0.1) + np.float64(0.2)
    write_csv(path, ("a", "b", "c"), [(x, float(x), np.int64(3))])
    assert path.read_bytes() == (b"a,b,c\r\n0.30000000000000004,"
                                 b"0.30000000000000004,3\r\n")


def test_json_roundtrip_and_input_errors(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": [1, 0.5], "a": None})
    assert path.read_text() == ('{\n  "a": null,\n  "b": [\n    1,\n'
                                '    0.5\n  ]\n}\n')
    assert read_json(path) == {"a": None, "b": [1, 0.5]}
    with pytest.raises(UsageError):
        read_json(tmp_path / "missing.json")
    with pytest.raises(UsageError):
        load_checkpoint(tmp_path)
    for text in ("{torn", "[]", "\xff"):
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigurationError):
            read_json(path)


def _bad_log_rows():
    # the header and the first row go out before the second row fails
    row = {"step": 0, "episode": 1, "eval_return_mean": 0.5,
           "eval_return_ci95": 0.0, "win_rate": 0.0, "epsilon": 1.0,
           "event_count_agent_0": 0}
    return [row, {"step": 1}]


def test_atomic_writers_that_raise_keep_previous_file(tmp_path):
    from camarl.harness.cli import _write_accuracy
    from camarl.marl import write_log

    path = tmp_path / "out.csv"
    path.write_text("earlier\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w") as f:
            f.write("partial")
            f.flush()
            raise RuntimeError("writer failed mid-write")
    with pytest.raises(KeyError):
        write_log(path, _bad_log_rows(), n_agents=1)
    with pytest.raises(KeyError):
        _write_accuracy(path, {"correct": 1.0})
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    with atomic_open(path, "w") as f:
        f.write("replaced\n")
    assert path.read_text() == "replaced\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
