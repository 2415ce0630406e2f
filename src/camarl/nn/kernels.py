"""Hot numeric kernels on plain float64 numpy arrays.

Every function here takes and returns plain float64 ndarrays, draws no
randomness, and holds no state, so results are exactly reproducible.
Activation functions are selected by integer code.

The GRU and Q-network kernels take a ``(B, n)`` batch, an ``(E, 1, n)``
stack of single rows, or a team's ``(N, ..., B, n)`` stack with
``(N, n, m)`` weights and ``(N, 1, m)`` biases.  They multiply with
``@`` (``np.matmul``), one product per stack item, so each agent and
each row of a stack rounds exactly as its own 2-D call.  ``np.dot`` on
a 3-D stack would fold the items into one GEMM and round differently.
Hot kernels take no ``np.where`` over data-dependent masks, and write in
place only into arrays they allocated themselves.

The unroll kernels run packed batches: ``rows[t]`` is the number of rows
still alive at step t, non-increasing in t, and step t runs only that
prefix of the rows (PyTorch's packed-sequence layout).  A product over
fewer rows rounds differently from those rows of a full one; with every
``rows[t]`` equal to B the products are those of a full unroll.
"""

import numpy as np

ACT_IDENTITY = 0
ACT_TANH = 1
ACT_RELU = 2
# rmsprop_step's slice length: the update is elementwise, so slicing moves
# no bits; one slice holds a whole Q-learner (about 24k parameters)
RMSPROP_BLOCK = 32768


def sigmoid_stable(x):
    """Sigmoid that never exponentiates a positive argument.  Bit for bit
    the two-sided ``np.where`` form: exp(min(x, 0)) is exactly 1 for
    x >= 0.  Only NaN inputs may differ, in payload or sign."""
    num, den = np.minimum(x, 0.0), np.abs(x)
    np.exp(np.negative(den, out=den), out=den)
    den += 1.0
    return np.divide(np.exp(num, out=num), den, out=num)


def apply_act(pre, act):
    # pre is the caller's fresh product, so it is reused as the output
    if act == ACT_IDENTITY:
        return pre
    elif act == ACT_TANH:
        return np.tanh(pre, out=pre)
    else:
        return np.maximum(pre, 0.0, out=pre)


def pre_act_grad(gy, y, act):
    """Pre-activation gradient from upstream gy and the output y, which
    is not read at ACT_IDENTITY (gy * 1.0 == gy)."""
    if act == ACT_IDENTITY:
        return gy
    elif act == ACT_TANH:
        return gy * (1.0 - y * y)
    else:
        return gy * (y > 0.0).astype(np.float64)


def affine_act_fwd(x, W, b, act):
    """y = act(x @ W + b) for a 2-D batch x or a (..., B, n) stack of them."""
    pre = x @ W
    pre += b
    return apply_act(pre, act)


def affine_act_bwd(x, W, y, act, gy):
    """Gradients of act(x @ W + b) given upstream gy and stored output y
    (None at ACT_IDENTITY)."""
    gpre = pre_act_grad(gy, y, act)
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
    # biases added in place: a team's large temporaries cost fresh pages
    pre_x = x @ Wx
    pre_x += bx
    pre_h = h @ Wh
    pre_h += bh
    pre_x[..., :2 * H] += pre_h[..., :2 * H]
    rz = sigmoid_stable(pre_x[..., :2 * H])   # r and z are views of rz
    r, z = rz[..., :H], rz[..., H:]
    ghn = pre_h[..., 2 * H:].copy()   # a view would keep pre_h alive
    n = r * ghn
    n += pre_x[..., 2 * H:]
    np.tanh(n, out=n)
    h_new = 1.0 - z
    h_new *= n
    h_new += z * h
    return h_new, r, z, n, ghn


def gru_bwd(x, h, Wx, Wh, r, z, n, ghn, gh_new, out=(None, None)):
    """Backward of one GRU step.  Returns (gx, gh, gWx, gWh, gbx, gbh).

    gx is None when Wx is.  out, arrays shaped like Wx and Wh, receives
    gWx and gWh: fresh pages for a team's every step cost more than the
    products.
    """
    dz = gh_new * (h - n)
    dn = gh_new * (1.0 - z)
    dh = gh_new * z
    dn_pre = dn * (1.0 - n * n)
    dr = dn_pre * ghn
    dghn = dn_pre * r
    dr_pre = dr * r * (1.0 - r)
    dz_pre = dz * z * (1.0 - z)

    gpre_x = np.concatenate((dr_pre, dz_pre, dn_pre), axis=-1)
    gpre_h = np.concatenate((dr_pre, dz_pre, dghn), axis=-1)

    gx = None if Wx is None else gpre_x @ Wx.swapaxes(-1, -2)
    gh = dh + gpre_h @ Wh.swapaxes(-1, -2)
    gWx = np.matmul(x.swapaxes(-1, -2), gpre_x, out=out[0])
    gWh = np.matmul(h.swapaxes(-1, -2), gpre_h, out=out[1])
    return gx, gh, gWx, gWh, gpre_x.sum(axis=-2), gpre_h.sum(axis=-2)


def qnet_unroll_fwd(X, h0, rows, Wx, Wh, bx, bh, Wq, bq):
    """Whole-episode recurrent Q-network forward over a packed batch.

    X is (..., T, B, input) and h0 (..., B, H); the net is GRU -> linear
    head, and step t runs only the first rows[t] rows.  The input product
    stays in the time loop: as one 2-D (T B, input) GEMM it would round
    differently, and as a stacked ``@``, one product per step and bit for
    bit, its fresh store cost more at lj.  Returns Q, exactly zero past
    each step's rows, plus every intermediate qnet_unroll_bwd reads;
    their rows past rows[t] are never written.
    """
    shape = X.shape[:-1]
    H = h0.shape[-1]
    Q = np.zeros(shape + Wq.shape[-1:])
    Hs, R, Z, Nc, GHN = (np.empty(shape + (H,)) for _ in range(5))
    h = h0
    for t, b in enumerate(rows):
        at = (Ellipsis, t, slice(b), slice(None))
        Hs[at], R[at], Z[at], Nc[at], GHN[at] = gru_fwd(
            X[at], h[..., :b, :], Wx, Wh, bx, bh)
        h = Hs[at]
        Q[at] = h @ Wq + bq
    return Q, Hs, R, Z, Nc, GHN


def qnet_unroll_bwd(X, h0, rows, Hs, R, Z, Nc, GHN, Wx, Wh, Wq, dQ):
    """Backward through the whole unroll given per-step head gradients dQ,
    each step over the same rows as the forward; dQ past them is not
    read."""
    gWx, gWh, gWq = (np.zeros_like(W) for W in (Wx, Wh, Wq))
    gbx, gbh, gbq = (np.zeros(W.shape[:-2] + W.shape[-1:])
                     for W in (Wx, Wh, Wq))
    WqT = Wq.swapaxes(-1, -2)
    scratch = (np.empty_like(Wx), np.empty_like(Wh))
    # a row's state gradient stays zero until its last step is reached
    dh = np.zeros_like(h0)
    for t in range(len(rows) - 1, -1, -1):
        b = rows[t]
        at = (Ellipsis, t, slice(b), slice(None))
        h_t, dQ_t = Hs[at], dQ[at]
        gWq += h_t.swapaxes(-1, -2) @ dQ_t
        gbq += np.sum(dQ_t, axis=-2)
        gh = dh[..., :b, :] + dQ_t @ WqT
        h_prev = (h0 if t == 0 else Hs[..., t - 1, :, :])[..., :b, :]
        _, dh[..., :b, :], gWx_t, gWh_t, gbx_t, gbh_t = gru_bwd(
            X[at], h_prev, None, Wh, R[at], Z[at], Nc[at], GHN[at], gh,
            scratch)
        gWx += gWx_t
        gWh += gWh_t
        gbx += gbx_t
        gbh += gbh_t
    return gWx, gWh, gbx, gbh, gWq, gbq


def qnet_step(x, h, Wx, Wh, bx, bh, Wq, bq):
    """Single acting step: returns (q, h_new) without storing intermediates.

    x and h are a (B, .) batch or an (E, 1, .) stack of single rows, a
    team's (E, N, 1, .); each row of a stack rounds as a single-row call.
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
    # one sum of squares per row of the last axis, added left to right:
    # np.dot and np.sum add in blocked or pairwise order, which moves the
    # clip norm by about 1e-14
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.cumsum(a * a, axis=-1)[..., -1]
