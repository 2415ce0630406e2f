"""Hot numeric kernels on plain float64 numpy arrays.

Every function here takes and returns plain float64 ndarrays, draws no
randomness, and holds no state, so results are exactly reproducible.
Activation functions are selected by integer code.

The acting kernels ``gru_fwd`` and ``qnet_step`` take a ``(B, n)``
batch or an ``(E, 1, n)`` stack of single rows.  They multiply with
``@`` (``np.matmul``), which rounds each row of a stack as its own
``(1, n)`` product, so a stacked step is bit-identical to E separate
single-row steps.  ``np.dot`` on a 3-D stack would fold the rows into
one GEMM and round differently.
"""

import numpy as np

ACT_IDENTITY = 0
ACT_TANH = 1
ACT_RELU = 2
# rmsprop_step's slice length: the update is elementwise, so slicing moves
# no bits; one slice holds a whole Q-learner (about 24k parameters)
RMSPROP_BLOCK = 32768


def sigmoid_stable(x):
    # two-sided form, never exponentiates a positive argument
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def apply_act(pre, act):
    if act == ACT_IDENTITY:
        return pre.copy()
    elif act == ACT_TANH:
        return np.tanh(pre)
    else:
        return np.maximum(pre, 0.0)


def act_grad_from_out(y, act):
    # derivative expressed through the activation output
    if act == ACT_IDENTITY:
        return np.ones_like(y)
    elif act == ACT_TANH:
        return 1.0 - y * y
    else:
        return np.where(y > 0.0, 1.0, 0.0)


def affine_act_fwd(x, W, b, act):
    """y = act(x @ W + b) for a 2D batch x."""
    pre = np.dot(x, W) + b
    return apply_act(pre, act)


def affine_act_bwd(x, W, y, act, gy):
    """Gradients of act(x @ W + b) given upstream gy and stored output y."""
    gpre = gy * act_grad_from_out(y, act)
    gx = np.dot(gpre, W.T)
    gW = np.dot(x.T, gpre)
    gb = np.sum(gpre, axis=0)
    return gx, gW, gb


def gru_fwd(x, h, Wx, Wh, bx, bh):
    """One GRU step, gate order [r|z|n] in the packed weight columns.

    Returns the new state plus the intermediates the backward pass needs:
    (h_new, r, z, n, ghn) where ghn is the hidden-side candidate
    pre-activation that gets gated by r.
    """
    H = h.shape[-1]
    pre_x = x @ Wx + bx
    pre_h = h @ Wh + bh
    r = sigmoid_stable(pre_x[..., :H] + pre_h[..., :H])
    z = sigmoid_stable(pre_x[..., H:2 * H] + pre_h[..., H:2 * H])
    ghn = pre_h[..., 2 * H:].copy()
    n = np.tanh(pre_x[..., 2 * H:] + r * ghn)
    h_new = z * h + (1.0 - z) * n
    return h_new, r, z, n, ghn


def gru_bwd(x, h, Wx, Wh, r, z, n, ghn, gh_new):
    """Backward of one GRU step.  Returns (gx, gh, gWx, gWh, gbx, gbh)."""
    dz = gh_new * (h - n)
    dn = gh_new * (1.0 - z)
    dh = gh_new * z
    dn_pre = dn * (1.0 - n * n)
    dr = dn_pre * ghn
    dghn = dn_pre * r
    dr_pre = dr * r * (1.0 - r)
    dz_pre = dz * z * (1.0 - z)

    gpre_x = np.concatenate((dr_pre, dz_pre, dn_pre), axis=1)
    gpre_h = np.concatenate((dr_pre, dz_pre, dghn), axis=1)

    gx = np.dot(gpre_x, Wx.T)
    gh = dh + np.dot(gpre_h, Wh.T)
    gWx = np.dot(x.T, gpre_x)
    gWh = np.dot(h.T, gpre_h)
    gbx = np.sum(gpre_x, axis=0)
    gbh = np.sum(gpre_h, axis=0)
    return gx, gh, gWx, gWh, gbx, gbh


def qnet_unroll_fwd(X, h0, Wx, Wh, bx, bh, Wq, bq):
    """Whole-episode recurrent Q-network forward.

    X is (T, B, input); the net is GRU -> linear head.
    Returns Q plus every intermediate needed by qnet_unroll_bwd.
    """
    T = X.shape[0]
    B = X.shape[1]
    H = h0.shape[1]
    A = Wq.shape[1]
    Q = np.empty((T, B, A))
    Hs = np.empty((T, B, H))
    R = np.empty((T, B, H))
    Z = np.empty((T, B, H))
    Nc = np.empty((T, B, H))
    GHN = np.empty((T, B, H))
    h = h0
    for t in range(T):
        Hs[t], R[t], Z[t], Nc[t], GHN[t] = gru_fwd(X[t], h, Wx, Wh, bx, bh)
        h = Hs[t]
        Q[t] = np.dot(h, Wq) + bq
    return Q, Hs, R, Z, Nc, GHN


def qnet_unroll_bwd(X, h0, Hs, R, Z, Nc, GHN, Wx, Wh, Wq, dQ):
    """Backward through the whole unroll given per-step head gradients dQ."""
    T = X.shape[0]
    gWx = np.zeros_like(Wx)
    gWh = np.zeros_like(Wh)
    gbx = np.zeros(Wx.shape[1])
    gbh = np.zeros(Wh.shape[1])
    gWq = np.zeros_like(Wq)
    gbq = np.zeros(Wq.shape[1])
    dh = np.zeros_like(h0)
    for t in range(T - 1, -1, -1):
        h_t = Hs[t]
        gWq += np.dot(h_t.T, dQ[t])
        gbq += np.sum(dQ[t], axis=0)
        dh = dh + np.dot(dQ[t], Wq.T)
        h_prev = h0 if t == 0 else Hs[t - 1]
        _, dh_prev, gWx_t, gWh_t, gbx_t, gbh_t = gru_bwd(
            X[t], h_prev, Wx, Wh, R[t], Z[t], Nc[t], GHN[t], dh)
        gWx += gWx_t
        gWh += gWh_t
        gbx += gbx_t
        gbh += gbh_t
        dh = dh_prev
    return gWx, gWh, gbx, gbh, gWq, gbq


def qnet_step(x, h, Wx, Wh, bx, bh, Wq, bq):
    """Single acting step: returns (q, h_new) without storing intermediates.

    x and h are a (B, .) batch or an (E, 1, .) stack of single rows; each
    row of a stack rounds as a single-row call.
    """
    h_new, r, z, n, ghn = gru_fwd(x, h, Wx, Wh, bx, bh)
    q = h_new @ Wq + bq
    return q, h_new


def rmsprop_step(p, g, v, lr, rho, eps):
    """In-place RMSprop on flat float64 views, rounding as a scalar loop."""
    for i in range(0, p.shape[0], RMSPROP_BLOCK):
        j = i + RMSPROP_BLOCK
        pb, gb, vb = p[i:j], g[i:j], v[i:j]
        vb *= rho
        vb += (1.0 - rho) * gb * gb
        pb -= lr * gb / (np.sqrt(vb) + eps)


def sumsq(a):
    # summed left to right: np.dot and np.sum add in blocked or pairwise
    # order, which moves the clip norm by about 1e-14
    if a.shape[0] == 0:
        return 0.0
    return np.cumsum(a * a)[-1]
