"""Reference work that scales every timed interval to one machine speed.

The benchmark runs on a few cores of a shared host whose speed moves by
1.3-2x for tens of seconds at a time, often for longer than a whole run,
so neither the best nor the median of a run's repeats stays put from one
run to the next.  Each timed interval is therefore bracketed by runs of a
fixed reference: Python bytecode, a streaming update of 869,175 floats
and small numpy calls in a loop, roughly the mix of the library's hot
paths.  An interval's time is scaled by NOMINAL_S over the median of the
two reference times before it and the two after it: a reported time is
the time the interval takes on a machine on which the reference takes
NOMINAL_S.  The reference lives here, outside the library, so no change
to the library moves it.
"""

import functools
import statistics
import time

import numpy as np

# seconds the reference takes on the 2-vCPU VM the bounds were set on,
# numpy backend, one BLAS thread, in its faster state
NOMINAL_S = 0.06


@functools.lru_cache(maxsize=None)
def _inputs():
    rng = np.random.default_rng(20230620)
    P, G = rng.standard_normal((2, 869_175))
    return (P, G, np.ones_like(P), np.empty_like(P),
            0.1 * rng.standard_normal((64, 64)), rng.standard_normal((8, 64)))


def reference():
    """Run the reference once; returns its seconds.

    The streaming update works in place on buffers made at the first
    call, so the reference adds nothing to the run's peak memory after
    it.
    """
    P, G, S, T, W, h = _inputs()
    t0 = time.perf_counter()
    acc = 0
    for i in range(110_000):
        d = {"a": i, "b": (i, i + 1)}
        acc += d["b"][1] - d["a"]
    S *= 0.99
    np.multiply(G, G, out=T)
    T *= 0.01
    S += T
    np.add(S, 1e-5, out=T)
    np.sqrt(T, out=T)
    np.divide(G, T, out=T)
    T *= 5e-4
    P -= T
    for _ in range(2800):
        h = np.tanh(h @ W)
    return time.perf_counter() - t0


class Clock:
    """Timed intervals, each between two runs of the reference.

    mark() runs the reference and returns (time after it, its index).
    An interval timed from a mark is (seconds, index of that mark); the
    next mark, whenever it comes, closes its bracket.
    """

    def __init__(self, ref=reference):
        self.ref = ref
        self.refs = []      # reference seconds, in run order

    def mark(self):
        self.refs.append(self.ref())
        return time.perf_counter(), len(self.refs) - 1

    @staticmethod
    def lap(mark):
        t0, i = mark
        return time.perf_counter() - t0, i

    def scaled(self, interval):
        """Seconds of an interval at the nominal reference speed."""
        dt, i = interval
        if i + 1 >= len(self.refs):
            raise IndexError("no reference run after the interval")
        ref = statistics.median(self.refs[max(0, i - 1):i + 3])
        return dt * NOMINAL_S / ref
