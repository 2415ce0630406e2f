"""End-to-end benchmark of the laboratory, with a traced per-layer split.

    python3 perfbench/run.py --workload sk3-acd-marl --seed 1 \
        --seconds 40 --trace 0

Run from the repository root.  Each invocation runs one workload in this
single process, with every BLAS pool pinned to one thread.  Every timed
interval is scaled to the speed of a fixed reference run beside it (see
calibrate.py); the unscaled figures go to the result file.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs the same plan twice, untraced and then traced, on half
the seconds each: it prints the per-layer split of the traced pass, the
tracing overhead of every timed end-to-end metric, and the kernel
micro-benchmark's numbers.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A failed correctness check exits 1.
Outputs, spans and a full result file go to .perfbench_out/.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def setup(workload, seed, out_dir, seconds, **kw):
    """Everything before the first timed operation: imports and inputs."""
    import workloads

    return workloads.Run(workloads.PLANS[workload], seed, out_dir, seconds,
                         **kw)


def setup_probe(args):
    """Wall time of one fresh process from spawn to set-up done."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.kill()
        proc.wait()
    if line.strip() != "ready":
        raise RuntimeError("set-up probe did not finish")
    return dt


def run_environment():
    import numpy as np
    import scipy

    from camarl import accel

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": accel.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_metrics(args, out_dir, runs):
    """Untraced pass, traced pass, then the kernel layer."""
    import kernel_layer
    import spans
    import workloads

    half = args.seconds / 2.0
    # one cold and one warm repeat of every phase at least
    two = dict.fromkeys(workloads.PHASES, 2)
    plain = setup(args.workload, args.seed, out_dir / "untraced", half,
                  min_reps=two)
    runs.append(plain)
    plain.run()
    tracer = spans.Tracer()
    traced = setup(args.workload, args.seed, out_dir / "traced", half,
                   min_reps=two, tracer=tracer)
    runs.append(traced)
    with spans.patched(tracer):
        traced.run()
    tracer.write(out_dir / "spans.jsonl")
    for phase in workloads.PHASES:
        a, b = plain.digests[phase], traced.digests[phase]
        n = min(len(a), len(b))
        workloads.check(a[:n] == b[:n],
                        f"{phase}: outputs differ between the untraced and "
                        "traced passes of one seed")

    layers, tails = spans.summarize(tracer)
    metrics = {}
    for name, stats in layers.items():
        workloads.check(stats["calls"] > 0,
                        f"span {name} recorded no calls on {args.workload}")
        for key in spans.SPAN_STATS:
            metrics[f"{name}.{key}"] = stats[key]
    metrics.update(traced.collect_counts())
    base, with_trace = plain.metrics(), traced.metrics()
    for name in workloads.TIMED:
        # as a time increase in percent, for rates and durations alike
        ratio = (with_trace[name] / base[name] if name.endswith("_s")
                 else base[name] / with_trace[name])
        metrics[f"trace.overhead.{name}"] = 100.0 * (ratio - 1.0)

    times, status = kernel_layer.run(out_dir / "kernels")
    print(f"kernel cross-backend comparison: {status}")
    workloads.check(not status.startswith("failed"), f"kernels {status}")
    from camarl import accel

    for case, t in times[accel.BACKEND].items():
        metrics[f"kernel.{kernel_layer.kernel_key(case)}.ms"] = 1e3 * t
    extra = {"layer_moves": {layer.name: layer.moves
                             for layer in spans.LAYERS},
             "tail_percentiles": tails, "kernel_comparison": status,
             "digests": traced.digests,
             "untraced": base, "traced": with_trace,
             "unscaled": {"untraced": plain.metrics(scaled=False),
                          "traced": traced.metrics(scaled=False)}}
    return metrics, extra


def untraced_metrics(args, out_dir, runs):
    run = setup(args.workload, args.seed, out_dir, args.seconds,
                probe=lambda: setup_probe(args))
    runs.append(run)
    run.run()
    metrics = run.metrics()
    metrics["peak_rss_mb"] = peak_rss_mb()
    extra = {"digests": run.digests, "work": run.work,
             "unscaled": run.metrics(scaled=False),
             "reference_s": run.clock.refs}
    return metrics, extra


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "camarl").is_dir():
        print(f"error: no camarl sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.PLANS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.PLANS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed, OUT / "probe", args.seconds)
        print("ready", flush=True)
        return 0

    out_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    env = run_environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    units = metric_units(args.trace)
    correct, error, extra, runs = True, None, {}, []
    measure = traced_metrics if args.trace else untraced_metrics
    try:
        metrics, extra = measure(args, out_dir, runs)
        differ = sorted(set(units) ^ set(metrics))
        workloads.check(not differ, "metrics emitted and listed in "
                        f"BENCHMARK.json differ: {differ}")
    except workloads.CheckFailed as err:
        correct, error, metrics = False, str(err), {}
        print(f"correctness check failed: {error}", file=sys.stderr)

    for name, value in metrics.items():
        print(f"{name:<44} {value:14.6g} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    result = {"correct": correct,
              "attempted": max(sum(r.attempted for r in runs), 1),
              "failed": sum(r.failed for r in runs),
              "metrics": metrics}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "result.json", "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, environment=env, error=error,
                       details=extra), f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
