"""Time the numba kernel backend against the pure-numpy fallback.

Run with no arguments to benchmark every backend that imports (each in
its own subprocess, since the backend is fixed at import time) and print
a comparison table.  numba is an optional extra; without it only the
numpy timings are printed, the comparison is reported as skipped and
the exit status is 0.  The harness also saves every kernel's outputs and
reports the largest cross-backend difference, so a speedup can never
hide a numerical divergence: linear algebra must agree exactly, and
kernels that evaluate transcendentals are allowed a few ULP of
rounding slack between numpy's vectorized tanh/exp and libm's scalar
ones.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --repeats 50

Pass --backend to run a single backend in-process; the top-level
invocation uses that mode internally.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time

CROSS_BACKEND_ATOL = 1e-12
BACKENDS = ("numpy", "numba")


def build_cases(np, K):
    """Kernel workloads at the shapes the trainers actually use."""
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

    x2 = rng.standard_normal((128, 256))
    W2 = rng.standard_normal((256, 256)) * 0.05
    b2 = rng.standard_normal(256) * 0.05
    y2 = K.affine_act_fwd(x2, W2, b2, K.ACT_TANH)
    gy2 = rng.standard_normal(y2.shape)

    fwd = K.qnet_unroll_fwd(X, h0, Wx, Wh, bx, bh, Wq, bq)
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

    return [
        ("affine_fwd 128x256x256",
         lambda: (K.affine_act_fwd(x2, W2, b2, K.ACT_TANH),)),
        ("affine_bwd 128x256x256",
         lambda: K.affine_act_bwd(x2, W2, y2, K.ACT_TANH, gy2)),
        ("gru_step  B8 H64",
         lambda: K.gru_fwd(xs, hs, Wx, Wh, bx, bh)),
        ("qnet_unroll_fwd T100 B8 H64",
         lambda: K.qnet_unroll_fwd(X, h0, Wx, Wh, bx, bh, Wq, bq)),
        ("qnet_unroll_bwd T100 B8 H64",
         lambda: K.qnet_unroll_bwd(X, h0, Hs, R, Z, Nc, GHN, Wx, Wh, Wq, dQ)),
        ("rmsprop_step n=200k", bench_rmsprop),
        ("sumsq n=200k", lambda: (np.asarray(K.sumsq(g)),)),
    ]


def run_backend(repeats, out_npz):
    import numpy as np

    from camarl import accel
    from camarl.nn import kernels as K

    times = {}
    arrays = {}
    for idx, (name, fn) in enumerate(build_cases(np, K)):
        out = fn()  # warmup, and for numba the compile pass
        fn()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        times[name] = best
        for j, a in enumerate(out):
            arrays[f"{idx}_{j}::{name}"] = np.asarray(a)
    np.savez(out_npz, **arrays)
    return {"backend": accel.BACKEND, "times": times}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", choices=["numba", "numpy"])
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--out-npz", help="where worker mode dumps kernel outputs")
    args = ap.parse_args(argv)

    if args.backend:
        os.environ["CAMARL_KERNELS"] = args.backend
        out = args.out_npz or os.path.join(tempfile.gettempdir(),
                                           f"bench_{args.backend}.npz")
        json.dump(run_backend(args.repeats, out), sys.stdout)
        return 0

    import numpy as np

    backends = [b for b in BACKENDS
                if b == "numpy" or importlib.util.find_spec(b) is not None]
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for backend in backends:
            npz = os.path.join(tmp, f"{backend}.npz")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--backend", backend, "--repeats", str(args.repeats),
                 "--out-npz", npz],
                capture_output=True, text=True,
                env=dict(os.environ, CAMARL_KERNELS=backend))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            reports[backend] = json.loads(proc.stdout)
            reports[backend]["arrays"] = np.load(npz)
            reports[backend]["arrays"] = dict(reports[backend]["arrays"])

    times_np = reports["numpy"]["times"]
    width = max(len(n) for n in times_np)
    if "numba" not in reports:
        print(f"{'kernel':<{width}}  {'numpy':>10}")
        for name, t_np in times_np.items():
            print(f"{name:<{width}}  {t_np * 1e3:>8.3f}ms")
        print("\ncross-backend comparison skipped: numba is not installed")
        return 0

    diffs = {name: 0.0 for name in times_np}
    for key, a in reports["numpy"]["arrays"].items():
        name = key.split("::", 1)[1]
        b = reports["numba"]["arrays"][key]
        diffs[name] = max(diffs[name], float(np.abs(a - b).max()))

    print(f"{'kernel':<{width}}  {'numpy':>10}  {'numba':>10}"
          f"  {'speedup':>8}  {'max |diff|':>10}")
    worst = 0.0
    for name, t_np in times_np.items():
        t_nb = reports["numba"]["times"][name]
        print(f"{name:<{width}}  {t_np * 1e3:>8.3f}ms  {t_nb * 1e3:>8.3f}ms"
              f"  {t_np / t_nb:>7.1f}x  {diffs[name]:>10.2e}")
        worst = max(worst, diffs[name])
    if worst > CROSS_BACKEND_ATOL:
        print(f"\nbackends disagree beyond {CROSS_BACKEND_ATOL:g}")
        return 1
    print(f"\nbackends agree within {CROSS_BACKEND_ATOL:g}"
          " (linear algebra exact, transcendentals a few ULP)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
