"""Series preprocessing: Savitzky-Golay smoothing and reward normalization.

The smoother fits a polynomial of order 10 to a sliding window by least
squares and keeps the window's center value.  Near the boundaries the
window is truncated to the available samples and the fit order drops to
window length minus one when the full order would be underdetermined.
``preprocess_series`` smooths all observation nodes of a sample or a
stack with one product per position, t of x is ``w @ x[..., lo:hi, :]``.
That rounds like a loop over the samples and nodes, because ``@``
computes each item of a stack as its own (1, W) @ (W, D) product.
"""

import functools

import numpy as np

from camarl.errors import ConfigurationError

POLY_ORDER = 10


def sg_window(T: int) -> int:
    """Smoothing window: half the series length, forced odd."""
    if T < 24:
        raise ConfigurationError(
            f"series length {T} too short to smooth with polynomial order "
            f"{POLY_ORDER}; need T >= 24")
    t2 = T // 2
    return t2 - (1 - t2 % 2)


def _fit_weights(offsets, order):
    """Least-squares weights for the fitted value at offset zero.

    The smoothed value is a linear functional of the window samples, so
    one pseudoinverse per window shape is enough.  Offsets are rescaled
    to [-1, 1] to keep the Vandermonde matrix well conditioned; the
    fitted value at zero is unchanged by the rescaling.
    """
    x = np.asarray(offsets, dtype=np.float64)
    scale = np.abs(x).max()
    if scale > 0:
        x = x / scale
    v = np.vander(x, order + 1, increasing=True)
    return np.linalg.pinv(v)[0]


@functools.lru_cache(maxsize=32)
def sg_weight_table(T: int):
    """Per-position (lo, hi, weights) for a length-T series.

    Position t is smoothed as ``weights @ x[lo:hi]``.  The table is
    built once per T and shared, so it is a tuple and every weight
    array is read-only.
    """
    delta = sg_window(T)
    half = delta // 2
    table = []
    center = None
    for t in range(T):
        lo = max(0, t - half)
        hi = min(T, t + half + 1)
        order = min(POLY_ORDER, hi - lo - 1)
        if lo == t - half and hi == t + half + 1:
            if center is None:
                center = _fit_weights(np.arange(lo, hi) - t, order)
            w = center
        else:
            w = _fit_weights(np.arange(lo, hi) - t, order)
        w.flags.writeable = False
        table.append((lo, hi, w))
    return tuple(table)


def savgol_smooth(x: np.ndarray) -> np.ndarray:
    """Smooth float64 (..., T, C) data along axis -2 into a new array."""
    out = np.empty_like(x)
    for t, (lo, hi, w) in enumerate(sg_weight_table(x.shape[-2])):
        out[..., t, :] = w @ x[..., lo:hi, :]
    return out


def minmax_normalize(series: np.ndarray) -> np.ndarray:
    """Map each row of the last axis to [0, 1]; a constant row to zeros."""
    x = np.asarray(series, dtype=np.float64)
    lo = x.min(axis=-1, keepdims=True)
    hi = x.max(axis=-1, keepdims=True)
    return np.divide(x - lo, hi - lo, out=np.zeros_like(x), where=hi != lo)


def preprocess_series(x: np.ndarray) -> np.ndarray:
    """Smooth observation nodes, normalize the reward node.

    x is an (..., n_nodes, T, D) sample or stack, the reward series in
    the last node's channel 0 (the others zero).  Returns a new array.
    """
    out = x.astype(np.float64)
    out[..., :-1, :, :] = savgol_smooth(out[..., :-1, :, :])
    out[..., -1, :, 0] = minmax_normalize(x[..., -1, :, 0])
    return out
