"""Kernel layer: the existing micro-benchmark, run on the backends present.

``benchmarks/bench_kernels.py`` times the fused kernels in a worker mode
(``--backend``) that fixes the backend at import.  Its top-level mode
needs numba, so this module drives the worker mode itself: it runs every
backend that imports, and compares outputs across backends with the
micro-benchmark's own ``CROSS_BACKEND_ATOL`` gate only when both ran.
With numba absent the comparison is reported as skipped, not passed.
The traced run of ``run.py`` reports these numbers as its kernel layer.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks" / "bench_kernels.py"
BACKENDS = ("numpy", "numba")
REPEATS = 3     # the micro-benchmark reports the best of these


def kernel_key(case_name):
    """Metric key of a micro-benchmark case, e.g. 'rmsprop_step n=200k'."""
    return case_name.split()[0]


def _gate():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.CROSS_BACKEND_ATOL


def run(out_dir):
    """Time every importable backend; returns (times, comparison status).

    times maps backend -> {case name: best seconds}.  The status is
    'passed', 'failed (max |diff| ...)' or 'skipped (...)'.
    """
    import numpy as np

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, arrays = {}, {}
    for backend in BACKENDS:
        if backend == "numba" and importlib.util.find_spec("numba") is None:
            continue
        npz = out_dir / f"kernels_{backend}.npz"
        proc = subprocess.run(
            [sys.executable, str(BENCH), "--backend", backend,
             "--repeats", str(REPEATS), "--out-npz", str(npz)],
            capture_output=True, text=True,
            env=dict(env, CAMARL_KERNELS=backend), timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"kernel worker ({backend}) failed:\n"
                               + proc.stderr)
        times[backend] = json.loads(proc.stdout)["times"]
        with np.load(npz) as data:
            arrays[backend] = {k: data[k] for k in data.files}
    if len(times) < 2:
        return times, "skipped (numba is not importable)"
    atol = _gate()
    worst = max(float(np.abs(a - arrays["numba"][k]).max())
                for k, a in arrays["numpy"].items())
    if worst > atol:
        return times, f"failed (max |diff| {worst:.2e} > {atol:g})"
    return times, "passed"
