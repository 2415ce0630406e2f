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
from camarl.acd.model import AcdModel, sample_gumbel
from camarl.acd.training import backward, elbo_loss
from camarl.errors import ConfigurationError, UsageError
from camarl.nn import kernels as K
from camarl.marl import AgentLearner
from camarl.nn.layers import (
    EPS, RHO, Dense, ParamSet, clip_global_norm, dense_init, rmsprop_update)
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


def test_import_loads_no_scipy():
    # scipy.special alone takes about half of a process's start-up; only
    # return_ci95 beyond its quantile table may import it
    res = _import_camarl(
        "import sys, camarl, camarl.acd, camarl.marl, camarl.metrics, "
        "camarl.harness.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


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

def _unroll_setup(T_len=4, B=2, I=5, H=4, A=3, seed=99, lead=(),
                  lengths=None):
    # lead=(N,) stacks N independent nets along a leading agent axis;
    # lengths, non-increasing, packs the batch: rows[t] counts the rows
    # longer than t (every row at every step by default).  S holds a
    # gradient past the rows too, which the backward must not read.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=lead + (T_len, B, I))
    h0 = np.zeros(lead + (B, H))
    p = {
        "Wx": rng.uniform(-0.4, 0.4, lead + (I, 3 * H)),
        "Wh": rng.uniform(-0.4, 0.4, lead + (H, 3 * H)),
        "bx": rng.uniform(-0.4, 0.4, lead + (3 * H,)),
        "bh": rng.uniform(-0.4, 0.4, lead + (3 * H,)),
        "Wq": rng.uniform(-0.4, 0.4, lead + (H, A)),
        "bq": rng.uniform(-0.4, 0.4, lead + (A,)),
    }
    S = rng.normal(size=lead + (T_len, B, A))
    lengths = np.full(B, T_len) if lengths is None else np.asarray(lengths)
    rows = (lengths > np.arange(T_len)[:, None]).sum(axis=1)
    return X, h0, rows, p, S


# a packed prefix batch of unequal lengths, for T 4 and B 3
RAGGED = [4, 2, 1]


def _unroll_args(p):
    # the kernel arguments in order; a stack's biases broadcast as
    # (N, 1, m) against its (N, B, m) rows
    return [v[..., None, :] if k[0] == "b" and v.ndim == 2 else v
            for k, v in p.items()]


def _unroll_loss(X, h0, rows, p, S):
    Q = K.qnet_unroll_fwd(X, h0, rows, *_unroll_args(p))[0]
    return float((Q * S).sum())


def _check_unroll_against_tape(lead, lengths):
    X, h0, rows, p, S = _unroll_setup(B=3, lead=lead, lengths=lengths)
    Q, Hs, R, Z, Nc, GHN = K.qnet_unroll_fwd(X, h0, rows, *_unroll_args(p))
    grads = K.qnet_unroll_bwd(X, h0, rows, Hs, R, Z, Nc, GHN,
                              p["Wx"], p["Wh"], p["Wq"], S)

    # same computation composed from tape ops, one net and one episode
    # at a time, each over its own length
    names = ["Wx", "Wh", "bx", "bh", "Wq", "bq"]
    for i in np.ndindex(lead):
        tp = {k: T.Parameter(v[i]) for k, v in p.items()}
        loss = None
        for b in range(X.shape[-2]):
            h = T.constant(h0[i][b:b + 1])
            for t in range(int((rows > b).sum())):
                h = T.gru_step(T.constant(X[i][t, b:b + 1]), h, tp["Wx"],
                               tp["Wh"], tp["bx"], tp["bh"])
                q = T.dense(h, tp["Wq"], tp["bq"], K.ACT_IDENTITY)
                np.testing.assert_allclose(Q[i][t, b:b + 1], q.data,
                                           rtol=1e-12)
                term = (q * T.constant(S[i][t, b:b + 1])).sum()
                loss = term if loss is None else loss + term
        T.backward(loss)
        for name, g in zip(names, grads):
            np.testing.assert_allclose(g[i], tp[name].grad, rtol=1e-9,
                                       atol=1e-11, err_msg=name)
        live = np.arange(X.shape[-2]) < rows[:, None]
        assert not Q[i][~live].any()


def test_qnet_unroll_matches_tape():
    for lengths in (None, RAGGED):
        _check_unroll_against_tape((), lengths)


def test_stacked_qnet_unroll_matches_tape():
    for lengths in (None, RAGGED):
        _check_unroll_against_tape((2,), lengths)


def _check_unroll_finite_difference(lead, lengths):
    X, h0, rows, p, S = _unroll_setup(B=3, seed=41, lead=lead,
                                      lengths=lengths)
    out = K.qnet_unroll_fwd(X, h0, rows, *_unroll_args(p))
    grads = dict(zip(["Wx", "Wh", "bx", "bh", "Wq", "bq"],
                     K.qnet_unroll_bwd(X, h0, rows, *out[1:], p["Wx"],
                                       p["Wh"], p["Wq"], S)))
    h = 1e-5
    for name, arr in p.items():
        num = np.zeros_like(arr)
        flat, nf = arr.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = _unroll_loss(X, h0, rows, p, S)
            flat[i] = orig - h
            fm = _unroll_loss(X, h0, rows, p, S)
            flat[i] = orig
            nf[i] = (fp - fm) / (2 * h)
        assert relative_error(grads[name], num) < 1e-4, name


def test_qnet_unroll_finite_difference():
    for lengths in (None, RAGGED):
        _check_unroll_finite_difference((), lengths)


def test_stacked_qnet_unroll_finite_difference():
    for lengths in (None, RAGGED):
        _check_unroll_finite_difference((2,), lengths)


@pytest.mark.parametrize("T_len", [1, 6, 100])
@pytest.mark.parametrize("B", [1, 5, 32])
@pytest.mark.parametrize("N", [1, 3, 4])
def test_stacked_unroll_matches_per_agent_calls(N, B, T_len):
    # a team's (N, T, B, .) unroll rounds each agent as its own 2-D call,
    # forward intermediates and gradients alike, on a full batch and on a
    # packed one whose lengths fall from T_len to 1 (one row: T_len)
    for lengths in (None, np.linspace(T_len, 1, B).round().astype(int)):
        X, h0, rows, p, S = _unroll_setup(T_len, B, I=58, H=64, A=5,
                                          lead=(N,),
                                          seed=N * 1000 + B * 10 + T_len,
                                          lengths=lengths)
        live = np.arange(B) < rows[:, None]
        out = K.qnet_unroll_fwd(X, h0, rows, *_unroll_args(p))
        grads = K.qnet_unroll_bwd(X, h0, rows, *out[1:], p["Wx"], p["Wh"],
                                  p["Wq"], S)
        for i in range(N):
            pi = {k: v[i] for k, v in p.items()}
            out_i = K.qnet_unroll_fwd(X[i], h0[i], rows, *_unroll_args(pi))
            grads_i = K.qnet_unroll_bwd(X[i], h0[i], rows, *out_i[1:],
                                        pi["Wx"], pi["Wh"], pi["Wq"], S[i])
            # the stores' rows past each step's prefix are never written
            for k, (a, b) in enumerate(zip(out, out_i)):
                assert a[i][live].tobytes() == b[live].tobytes(), k
            assert not out[0][i][~live].any()
            for k, (a, b) in enumerate(zip(grads, grads_i)):
                assert (a[i].shape == b.shape
                        and a[i].tobytes() == b.tobytes()), k


def test_qnet_step_agrees_with_unroll():
    X, h0, rows, p, _ = _unroll_setup(T_len=3)
    Q = K.qnet_unroll_fwd(X, h0, rows, p["Wx"], p["Wh"], p["bx"], p["bh"],
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


def _sigmoid_where(x):
    # reference: the two-sided np.where form sigmoid_stable replaced
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gru_fwd_dot(x, h, Wx, Wh, bx, bh):
    # reference: the 2-D np.dot form, which a 2-D batch must match; its
    # sigmoid is its own, so a changed kernel cannot change the reference
    H = h.shape[1]
    pre_x = np.dot(x, Wx) + bx
    pre_h = np.dot(h, Wh) + bh
    r = _sigmoid_where(pre_x[:, :H] + pre_h[:, :H])
    z = _sigmoid_where(pre_x[:, H:2 * H] + pre_h[:, H:2 * H])
    ghn = pre_h[:, 2 * H:].copy()
    n = np.tanh(pre_x[:, 2 * H:] + r * ghn)
    return z * h + (1.0 - z) * n, r, z, n, ghn


def _gru_bwd_dot(x, h, Wx, Wh, r, z, n, ghn, gh_new):
    # reference: the 2-D np.dot form the backward had before stacking
    dz, dn, dh = gh_new * (h - n), gh_new * (1.0 - z), gh_new * z
    dn_pre = dn * (1.0 - n * n)
    dr, dghn = dn_pre * ghn, dn_pre * r
    dr_pre, dz_pre = dr * r * (1.0 - r), dz * z * (1.0 - z)
    gpre_x = np.concatenate((dr_pre, dz_pre, dn_pre), axis=1)
    gpre_h = np.concatenate((dr_pre, dz_pre, dghn), axis=1)
    return (np.dot(gpre_x, Wx.T), dh + np.dot(gpre_h, Wh.T),
            np.dot(x.T, gpre_x), np.dot(h.T, gpre_h),
            np.sum(gpre_x, axis=0), np.sum(gpre_h, axis=0))


@pytest.mark.parametrize("B, n_in, H", [(1, 58, 64), (8, 58, 64),
                                        (32, 59, 64), (5, 14, 8)])
def test_batched_gru_fwd_matches_dot_form(B, n_in, H):
    # the backward, which the edge model shares in 2-D, is checked too
    rng = np.random.default_rng(B + n_in + H)
    w = _gru_weights(rng, n_in, H)
    x = rng.random((B, n_in))
    h = rng.uniform(-1.0, 1.0, (B, H))
    fwd = K.gru_fwd(x, h, *w)
    for a, b in zip(fwd, _gru_fwd_dot(x, h, *w)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    g = rng.normal(size=(B, H))
    scratch = (np.empty_like(w[0]), np.empty_like(w[1]))
    want = _gru_bwd_dot(x, h, w[0], w[1], *fwd[1:], g)
    for out in ((None, None), scratch):
        got = K.gru_bwd(x, h, w[0], w[1], *fwd[1:], g, out)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    got = K.gru_bwd(x, h, None, w[1], *fwd[1:], g)
    assert got[0] is None
    for a, b in zip(got[1:], want[1:]):
        assert a.tobytes() == b.tobytes()


# ------------------------------------------------------- pointwise kernels

def _float_cases(rng):
    """Seven scales, random bit patterns and the edges of exp's range."""
    scaled = [rng.normal(size=20_000) * s
              for s in (1e-300, 1e-8, 1e-2, 1.0, 30.0, 700.0, 1e300)]
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=200_000, dtype=np.int64).view(np.float64)
    edges = np.array([0.0, np.inf, 5e-324, 709.78, 745.2, 746.0,
                      np.finfo(np.float64).max])
    out = np.concatenate(scaled + [bits, edges, -edges])
    # NaN is left out: its payload and sign may differ between the forms
    return out[~np.isnan(out)]


def test_sigmoid_matches_where_form():
    x = _float_cases(np.random.default_rng(11))
    assert np.signbit(x).any() and (x == 0.0).sum() >= 2
    got, want = K.sigmoid_stable(x), _sigmoid_where(x)
    assert (got.view(np.int64) == want.view(np.int64)).all()


def _affine_dot(x, W, b, act):
    # reference: the np.dot form of a 2-D affine layer
    pre = np.dot(x, W) + b
    if act == K.ACT_TANH:
        return np.tanh(pre)
    return np.maximum(pre, 0.0) if act == K.ACT_RELU else pre


@pytest.mark.parametrize("M, B, n_in, n_out",
                         [(24, 5, 5300, 128), (7, 20, 256, 128),
                          (3, 4, 32, 16)],
                         ids=["pp-emb1", "pp-pairs", "sk3-narrow"])
def test_affine_fwd_stack_matches_2d_dot(M, B, n_in, n_out):
    # each item of an (M, B, n) stack rounds as its own 2-D call, and a
    # 2-D call as np.dot
    rng = np.random.default_rng(n_in + n_out)
    x = rng.normal(size=(M, B, n_in))
    W = rng.uniform(-0.1, 0.1, (n_in, n_out))
    b = rng.uniform(-0.1, 0.1, n_out)
    for act in (K.ACT_IDENTITY, K.ACT_TANH, K.ACT_RELU):
        y = K.affine_act_fwd(x, W, b, act)
        for k in range(M):
            assert y[k].tobytes() == _affine_dot(x[k], W, b, act).tobytes()


def test_relu_grad_matches_where_form():
    # NaN compares false in both forms, so it is kept here
    y = np.concatenate([_float_cases(np.random.default_rng(12)), [np.nan]])
    got = K.pre_act_grad(np.ones_like(y), y, K.ACT_RELU)
    want = np.where(y > 0.0, 1.0, 0.0)
    assert got.dtype == np.float64
    assert (got.view(np.int64) == want.view(np.int64)).all()


@pytest.mark.parametrize("B, n_in, n_out", [(95, 64, 53), (38, 128, 2),
                                            (1, 16, 16)],
                         ids=["pp-dec-out", "pp-head", "batch-one"])
def test_identity_bwd_reads_no_output(B, n_in, n_out):
    # at ACT_IDENTITY the stored output is not read: y=None gives the
    # bytes of the stored output and of the gy * ones(y) form
    rng = np.random.default_rng(B + n_in)
    x = rng.normal(size=(B, n_in))
    W = rng.uniform(-0.3, 0.3, (n_in, n_out))
    y = K.affine_act_fwd(x, W, rng.uniform(-0.1, 0.1, n_out), K.ACT_IDENTITY)
    gy = rng.normal(size=(B, n_out))
    gy[0, 0] = -0.0
    gpre = gy * np.ones_like(y)
    want = (np.dot(gpre, W.T), np.dot(x.T, gpre), np.sum(gpre, axis=0))
    for stored in (None, y):
        got = K.affine_act_bwd(x, W, stored, K.ACT_IDENTITY, gy)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead, B, n_in", [((1, 4), 1, 58), ((4,), 8, 58),
                                           ((), 95, 117)],
                         ids=["lj-act", "team-update", "decoder"])
def test_kernels_do_not_write_inputs(lead, B, n_in):
    # the in-place kernels write only into arrays they allocated
    H, A, T_len = 64, 5, 3
    rng = np.random.default_rng(B + n_in)
    agents = lead[-1:]
    bias = agents + (1, 3 * H) if agents else (3 * H,)
    Wx, Wh = (rng.uniform(-0.3, 0.3, agents + (m, 3 * H)) for m in (n_in, H))
    bx, bh = rng.uniform(-0.1, 0.1, bias), rng.uniform(-0.1, 0.1, bias)
    Wq = rng.uniform(-0.3, 0.3, agents + (H, A))
    bq = rng.uniform(-0.1, 0.1, bias[:-1] + (A,))
    x = rng.normal(size=lead + (B, n_in)) * 3.0
    h = rng.uniform(-1.0, 1.0, lead + (B, H))
    X = rng.normal(size=agents + (T_len, B, n_in)) * 3.0
    h0 = rng.uniform(-1.0, 1.0, agents + (B, H))
    dQ = rng.normal(size=agents + (T_len, B, A))
    x2, W2 = x.reshape(-1, n_in), rng.uniform(-0.3, 0.3, (n_in, A))
    b2, g2 = rng.uniform(-0.1, 0.1, A), rng.normal(size=(x2.shape[0], A))

    def call(fn, *args):
        before = [np.asarray(a).tobytes() for a in args]
        out = fn(*args)
        for k, (a, b) in enumerate(zip(args, before)):
            assert np.asarray(a).tobytes() == b, (fn.__name__, k)
        return out

    call(K.sigmoid_stable, x)
    for act in (K.ACT_IDENTITY, K.ACT_TANH, K.ACT_RELU):
        y = call(K.affine_act_fwd, x2, W2, b2, act)
        assert not any(np.shares_memory(y, a) for a in (x2, W2, b2))
        call(K.affine_act_bwd, x2, W2, y, act, g2)
    fwd = call(K.gru_fwd, x, h, Wx, Wh, bx, bh)
    for o in fwd:
        assert not any(np.shares_memory(o, a) for a in (x, h, Wx, Wh, bx, bh))
    call(K.gru_bwd, x, h, Wx, Wh, *fwd[1:], rng.normal(size=h.shape))
    call(K.qnet_step, x, h, Wx, Wh, bx, bh, Wq, bq)
    rows = np.maximum(B - np.arange(T_len), 1)   # a packed batch
    out = call(K.qnet_unroll_fwd, X, h0, rows, Wx, Wh, bx, bh, Wq, bq)
    call(K.qnet_unroll_bwd, X, h0, rows, *out[1:], Wx, Wh, Wq, dQ)


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
    ps = ParamSet([("w", [1.0])])
    ps.grads["w"][:] = [2.0]
    rmsprop_update(ps, lr=5e-4)
    v = 0.01 * 4.0
    expected = 1.0 - 5e-4 * 2.0 / (np.sqrt(v) + 1e-8)
    np.testing.assert_allclose(ps["w"], [expected], rtol=1e-12)
    np.testing.assert_allclose(ps.vs["w"], [v], rtol=1e-12)
    assert ps.grads["w"][0] == 0.0  # zeroed after the step


def test_rmsprop_shrinks_quadratic():
    ps = ParamSet([("w", np.array([3.0, -2.0]))])
    w = ps["w"]
    for _ in range(400):
        ps.grads["w"] += 2.0 * w  # d/dw sum(w^2)
        rmsprop_update(ps, lr=0.01)
    assert np.all(np.abs(w) < 0.1)


def test_clip_global_norm():
    ps = ParamSet([("a", [3.0]), ("b", [4.0])])
    a, b = ps.grads["a"], ps.grads["b"]
    a[:] = [3.0]
    b[:] = [4.0]
    norm = clip_global_norm(ps, 1.0)
    # per-row norms: one row for an unstacked set
    assert norm.shape == (1,) and abs(norm[0] - 5.0) < 1e-12
    np.testing.assert_allclose(a, [0.6])
    np.testing.assert_allclose(b, [0.8])
    # below the threshold nothing changes
    a[:] = [0.3]
    b[:] = [0.4]
    clip_global_norm(ps, 1.0)
    np.testing.assert_allclose(a, [0.3])


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


def _unblocked_rmsprop_step(p, g, v, lr, rho, eps):
    # rmsprop_step before blocking: temporaries as long as the buffer
    v *= rho
    v += (1.0 - rho) * g * g
    p -= lr * g / (np.sqrt(v) + eps)


@pytest.mark.parametrize("n", [K.RMSPROP_BLOCK - 1, 2 * K.RMSPROP_BLOCK,
                               3 * K.RMSPROP_BLOCK + 1,
                               7 * K.RMSPROP_BLOCK - 5])
def test_blocked_rmsprop_matches_unblocked(n):
    rng = np.random.default_rng(n)
    p, v = _wide_floats(rng, n), np.abs(_wide_floats(rng, n))
    p_ref, v_ref = p.copy(), v.copy()
    for _ in range(3):
        g = _wide_floats(rng, n)
        K.rmsprop_step(p, g, v, 5e-4, 0.99, 1e-8)
        _unblocked_rmsprop_step(p_ref, g, v_ref, 5e-4, 0.99, 1e-8)
    assert p.tobytes() == p_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()


def test_clipped_rmsprop_update_matches_scalar_path():
    rng = np.random.default_rng(5)
    shapes = {"W": (40, 25), "b": (25,), "q": (7,)}
    sets = [ParamSet((name, np.zeros(shape)) for name, shape in shapes.items())
            for _ in range(2)]
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        data, grad = _wide_floats(rng, n), _wide_floats(rng, n)
        v = np.abs(_wide_floats(rng, n))
        for ps in sets:
            ps[name][...] = data.reshape(shape)
            ps.grads[name][...] = grad.reshape(shape)
            ps.vs[name][...] = v

    norm = rmsprop_update(sets[0], lr=5e-4, max_norm=1e-3)

    # the reference steps each tensor on its own, as scalar loops
    ps = sets[1]
    total = 0.0
    for g in ps.grads.values():
        total += _ref_sumsq(g.reshape(-1))
    ref_norm = float(np.sqrt(total))
    assert ref_norm > 1e-3  # the update clips
    for g in ps.grads.values():
        _ref_scale_inplace(g.reshape(-1), 1e-3 / ref_norm)
    for name in shapes:
        _ref_rmsprop_step(ps[name].reshape(-1), ps.grads[name].reshape(-1),
                          ps.vs[name], 5e-4, RHO, EPS)

    assert norm.tolist() == [ref_norm]
    for name in shapes:
        assert sets[0][name].tobytes() == ps[name].tobytes(), name
        assert sets[0].vs[name].tobytes() == ps.vs[name].tobytes(), name
    assert not sets[0].grad.any()


def test_stacked_clip_norms_match_per_agent_reference():
    # a stack clips each row on its own: rows 0 and 2 are over the bound,
    # row 1 is not, and each must step exactly as its scalar reference
    rng = np.random.default_rng(6)
    shapes = {"W": (40, 25), "b": (25,), "q": (7,)}
    sets = [ParamSet((name, _wide_floats(rng, int(np.prod(shape)))
                      .reshape(shape)) for name, shape in shapes.items())
            for _ in range(3)]
    for k, ps in enumerate(sets):
        ps.grad[...] = _wide_floats(rng, ps.grad.size) * (1e-9 if k == 1
                                                          else 1.0)
        ps.v[...] = np.abs(_wide_floats(rng, ps.v.size))
    team = ParamSet.stack(sets)

    norms = rmsprop_update(team, lr=5e-4, max_norm=1e-3)

    assert norms.shape == (3,)
    for k, ps in enumerate(sets):
        total = 0.0
        for g in ps.grads.values():
            total += _ref_sumsq(g.reshape(-1))
        ref_norm = float(np.sqrt(total))
        assert (ref_norm > 1e-3) == (k != 1)
        if ref_norm > 1e-3:
            for g in ps.grads.values():
                _ref_scale_inplace(g.reshape(-1), 1e-3 / ref_norm)
        for name in shapes:
            _ref_rmsprop_step(ps[name].reshape(-1),
                              ps.grads[name].reshape(-1), ps.vs[name],
                              5e-4, RHO, EPS)
        assert norms[k] == ref_norm
        assert team.data[k].tobytes() == ps.data.tobytes(), k
        assert team.v[k].tobytes() == ps.v.tobytes(), k
    assert not team.grad.any()


# --------------------------------------------------------------- containers

def test_paramset_duplicate_name_raises():
    # the constructor, not a dict merge, sees every name
    with pytest.raises(UsageError):
        ParamSet([("x", [1.0]), ("y", [0.0]), ("x", [2.0])])


def test_paramset_views_share_the_flat_buffers():
    W, b = np.arange(6.0).reshape(2, 3), np.array([7.0, 8.0, 9.0])
    ps = ParamSet([("W", W), ("b", b)])
    # values are copied into the layout, in insertion order
    np.testing.assert_array_equal(ps.data, np.r_[W.ravel(), b])
    assert list(ps.state_arrays()) == ["W", "b"]
    for name, shape in (("W", (2, 3)), ("b", (3,))):
        for view, buf in ((ps[name], ps.data), (ps.grads[name], ps.grad)):
            assert view.shape == shape and view.flags.c_contiguous
            assert np.shares_memory(view, buf)
        assert ps.vs[name].shape == (int(np.prod(shape)),)
        assert np.shares_memory(ps.vs[name], ps.v)
    # loading copies into the views rather than rebinding them
    view = ps["W"]
    ps.load_arrays({"W": np.ones((2, 3)), "b": np.zeros(3)})
    assert view is ps["W"]
    np.testing.assert_array_equal(ps.data, np.r_[np.ones(6), np.zeros(3)])


def test_stacked_paramset_rows_share_the_buffers():
    sets = [ParamSet([("W", np.full((2, 3), k)), ("b", [k, -k])])
            for k in (1.0, 2.0)]
    team = ParamSet.stack(sets)
    assert team.data.shape == team.grad.shape == team.v.shape == (2, 8)
    assert team["W"].shape == team.grads["W"].shape == (2, 2, 3)
    assert team.vs["b"].shape == (2, 2)
    # the stack copies its sets; a row is a view of the stack
    sets[0].data[...] = 0.0
    np.testing.assert_array_equal(team["b"], [[1.0, -1.0], [2.0, -2.0]])
    row = team.row(1)
    for buf, stacked in ((row.data, team.data), (row.grad, team.grad),
                         (row.v, team.v)):
        assert buf.shape == (8,) and np.shares_memory(buf, stacked)
    row["W"][...] = 7.0
    np.testing.assert_array_equal(team["W"][1], np.full((2, 3), 7.0))
    assert list(row.state_arrays()) == ["W", "b"]


def test_paramset_load_shape_mismatch_raises():
    ps = ParamSet([("x", np.zeros((2, 2)))])
    with pytest.raises(ConfigurationError):
        ps.load_arrays({"x": np.zeros(3)})
    with pytest.raises(ConfigurationError):
        ps.load_arrays({})


def test_layers_init_scale():
    rng = np.random.default_rng(0)
    ps = ParamSet(dense_init(rng, "d", 100, 50))
    d = Dense(ps, "d", K.ACT_IDENTITY)
    bound = 1.0 / np.sqrt(100)
    assert np.abs(d.W).max() <= bound
    assert np.abs(d.b).max() <= bound
    # the edge model's decoder GRU reads D + dec_hidden = 100 inputs
    m = AcdModel(3, 4, 36, enc_hidden=8, dec_hidden=64)
    Wx, Wh, bx, bh = m.gru
    assert np.abs(Wx).max() <= bound and np.abs(bx).max() <= bound
    assert np.abs(Wh).max() <= 1.0 / np.sqrt(64)
    assert np.abs(bh).max() <= 1.0 / np.sqrt(64)
    assert len(m.params.grads) == 26


def _snapshot(arrays):
    return {k: a.tobytes() for k, a in arrays.items()}


def test_reloaded_models_train_on_byte_for_byte():
    # a load that rebound the views instead of copying into them would
    # leave the optimizer stepping the old buffers
    rng = np.random.default_rng(8)
    T_, B = 5, 3
    ln = AgentLearner(6, 4, 8, seed=[3])[0]
    X = rng.random((T_, B, ln.n_in))
    a = rng.integers(0, 4, size=(T_, B))
    r = rng.normal(size=(T_, B))
    lengths = np.full(B, T_)
    ln.train_step(X, a, r, lengths, 0.99)
    ln.sync_target()
    ln.train_step(X, a, r, lengths, 0.99)
    other = AgentLearner(6, 4, 8, seed=[4])[0]
    other.load_state({k: v.copy() for k, v in ln.state_arrays().items()})
    for learner in (ln, other):
        learner.train_step(X, a, r, lengths, 0.99)
        learner.sync_target()
    assert _snapshot(other.state_arrays()) == _snapshot(ln.state_arrays())

    x = rng.normal(size=(4, 3, 5, 2))
    noise_seed = int(rng.integers(2 ** 32))
    m = AcdModel(3, 5, 2, seed=0, enc_hidden=8, dec_hidden=6)
    twin = AcdModel(3, 5, 2, seed=1, enc_hidden=8, dec_hidden=6)
    twin.params.load_arrays(
        {k: v.copy() for k, v in m.params.state_arrays().items()})
    for model in (m, twin):
        for _ in range(2):
            logits, enc = model.encode(x)
            w, soft = model.sample_edges(
                logits, np.random.default_rng(noise_seed))
            pred, dec = model.decode(x, w, [5, 5, 5, 5])
            terms = elbo_loss(pred, x[:, :, 1:, :], logits, 5e-4,
                              [5, 5, 5, 5])
            backward(model, terms, enc, dec, soft)
            rmsprop_update(model.params, lr=5e-4)
    assert (_snapshot(twin.params.state_arrays())
            == _snapshot(m.params.state_arrays()))
    assert twin.params.v.tobytes() == m.params.v.tobytes()


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


def test_checkpoint_load_reads_into_the_arrays(tmp_path):
    # each tensor is read straight into its array, so a load holds no
    # second copy of the payload: an 8.5 MB dataset-shaped file
    import tracemalloc

    rng = np.random.default_rng(5)
    arrays = {f"x_{k}": rng.normal(size=(6, 100, 59)) for k in range(30)}
    path = tmp_path / "ds.ckpt"
    save_checkpoint(path, arrays, {"kind": "dataset"})
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded, meta = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * size, peak / size
    assert meta["kind"] == "dataset" and list(loaded) == list(arrays)
    for k, v in arrays.items():
        assert loaded[k].tobytes() == v.tobytes() and loaded[k].shape == v.shape
    # a tensor larger than the file is refused before it is allocated,
    # also one whose element count overflows an int64
    for shape in ([2 ** 40], [2 ** 32, 2 ** 32]):
        _checkpoint_with_header(path, {"tensors": [{"name": "w",
                                                    "shape": shape}]})
        with pytest.raises(ConfigurationError, match="truncated"):
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
