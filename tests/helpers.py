"""Shared test utilities: finite-difference gradient checking."""

import numpy as np

import tape as T


def relative_error(a, n):
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def numeric_grad(make_loss, t, h=1e-5):
    """Central finite differences of make_loss() wrt tensor t's data."""
    num = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    nf = num.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = make_loss().item()
        flat[i] = orig - h
        fm = make_loss().item()
        flat[i] = orig
        nf[i] = (fp - fm) / (2.0 * h)
    return num


def gradcheck(make_loss, tensors, h=1e-5, tol=1e-4):
    """Assert analytic grads of make_loss() match central differences.

    make_loss must rebuild the graph from the tensors' current .data on
    every call.  Returns the worst relative error seen.
    """
    for t in tensors:
        t.grad.fill(0.0)
    loss = make_loss()
    T.backward(loss)
    worst = 0.0
    for t in tensors:
        analytic = t.grad.copy()
        num = numeric_grad(make_loss, t, h=h)
        err = relative_error(analytic, num)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} (tol {tol:.0e})"
    return worst
