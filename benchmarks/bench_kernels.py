"""Time the fused numpy kernels at the shapes the trainers use.

Prints ``{"backend": ..., "times": {case: best seconds}}`` as JSON, the
best of ``--repeats`` calls per case after two warm-up calls.  With
``--out-npz`` it also saves every case's outputs there.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
    PYTHONPATH=src python3 benchmarks/bench_kernels.py --repeats 50

``perfbench/kernel_layer.py`` runs this script as
``--backend numpy --repeats N --out-npz P`` for the benchmark's kernel
layer.
"""

import argparse
import json
import sys
import time

# camarl first: it pins the BLAS thread pools before numpy loads BLAS
from camarl import accel
from camarl.nn import kernels as K

import numpy as np

CROSS_BACKEND_ATOL = 1e-12  # perfbench/kernel_layer.py reads this


def build_cases():
    """(name, call) of every kernel workload; each call returns arrays."""
    rng = np.random.default_rng(7)
    B, T, D, H, A = 8, 100, 58, 64, 6
    X = rng.standard_normal((T, B, D))
    h0 = np.zeros((B, H))
    Wx = rng.standard_normal((D, 3 * H)) * 0.1
    Wh = rng.standard_normal((H, 3 * H)) * 0.1
    bx = rng.standard_normal(3 * H) * 0.1
    bh = rng.standard_normal(3 * H) * 0.1
    Wq = rng.standard_normal((H, A)) * 0.1
    bq = rng.standard_normal(A) * 0.1
    rows = [B] * T   # every row live at every step, as in lj training

    x2 = rng.standard_normal((128, 256))
    W2 = rng.standard_normal((256, 256)) * 0.05
    b2 = rng.standard_normal(256) * 0.05
    y2 = K.affine_act_fwd(x2, W2, b2, K.ACT_TANH)
    gy2 = rng.standard_normal(y2.shape)

    fwd = K.qnet_unroll_fwd(X, h0, rows, Wx, Wh, bx, bh, Wq, bq)
    Q, Hs, R, Z, Nc, GHN = fwd
    dQ = rng.standard_normal(Q.shape)

    p = rng.standard_normal(200_000)
    g = rng.standard_normal(200_000)
    v = np.abs(rng.standard_normal(200_000))

    xs = rng.standard_normal((B, D))
    hs = rng.standard_normal((B, H))

    def bench_rmsprop():
        pc, vc = p.copy(), v.copy()
        K.rmsprop_step(pc, g, vc, 5e-4, 0.99, 1e-8)
        return (pc, vc)

    # perfbench keys each case by the first word of its name
    return [
        ("affine_fwd 128x256x256",
         lambda: (K.affine_act_fwd(x2, W2, b2, K.ACT_TANH),)),
        ("affine_bwd 128x256x256",
         lambda: K.affine_act_bwd(x2, W2, y2, K.ACT_TANH, gy2)),
        ("gru_step  B8 H64",
         lambda: K.gru_fwd(xs, hs, Wx, Wh, bx, bh)),
        ("qnet_unroll_fwd T100 B8 H64",
         lambda: K.qnet_unroll_fwd(X, h0, rows, Wx, Wh, bx, bh, Wq, bq)),
        ("qnet_unroll_bwd T100 B8 H64",
         lambda: K.qnet_unroll_bwd(X, h0, rows, Hs, R, Z, Nc, GHN, Wx, Wh, Wq,
                                   dQ)),
        ("rmsprop_step n=200k", bench_rmsprop),
        ("sumsq n=200k", lambda: (np.asarray(K.sumsq(g)),)),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # perfbench/kernel_layer.py passes this; numpy is the only backend
    ap.add_argument("--backend", choices=[accel.BACKEND])
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--out-npz", help="save every case's outputs here "
                    "(perfbench/kernel_layer.py loads them)")
    args = ap.parse_args(argv)

    times = {}
    arrays = {}
    for idx, (name, fn) in enumerate(build_cases()):
        out = fn()
        fn()
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        times[name] = best
        for j, a in enumerate(out):
            arrays[f"{idx}_{j}::{name}"] = np.asarray(a)
    if args.out_npz:
        np.savez(args.out_npz, **arrays)
    json.dump({"backend": accel.BACKEND, "times": times}, sys.stdout,
              indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
