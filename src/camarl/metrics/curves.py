"""Cross-seed learning-curve aggregation."""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from camarl.errors import IncompatibleInputsError, UsageError
from camarl.marl.evaluate import return_ci95
from camarl.nn.checkpoint import write_csv


@dataclass
class CurvePoint:
    step: int
    mean: float
    ci95: float              # 95% t-interval half-width


def read_log(path):
    """Parse a training log CSV back into typed row dicts."""
    with open(path, newline="") as f:
        raw = list(csv.DictReader(f))
    if not raw:
        raise UsageError(f"log {path} is empty")
    rows = []
    for r in raw:
        row = {}
        for k, v in r.items():
            row[k] = int(v) if k in ("step", "episode") else float(v)
        rows.append(row)
    return rows


def aggregate_curves(logs, metric: str = "eval_return_mean"):
    """Mean and 95% confidence half-width of a metric across seed logs.

    All logs must share the same evaluation steps.  With a single seed
    the half-width degenerates to zero and a warning is issued.
    """
    logs = list(logs)
    if not logs:
        raise UsageError("no logs to aggregate")
    steps = [tuple(row["step"] for row in log) for log in logs]
    if any(s != steps[0] for s in steps[1:]):
        raise IncompatibleInputsError(
            "evaluation steps differ across logs; re-run with a shared "
            "evaluation interval")
    if len(logs) == 1:
        warnings.warn("aggregating a single seed: confidence intervals are 0")
    points = []
    for j, step in enumerate(steps[0]):
        vals = np.array([log[j][metric] for log in logs], dtype=np.float64)
        points.append(CurvePoint(step=int(step), mean=float(vals.mean()),
                                 ci95=return_ci95(vals)))
    return points


def write_curve(path, points):
    """One CSV row per curve point; floats kept at full precision."""
    write_csv(path, ("step", "mean", "ci95"),
              ((p.step, p.mean, p.ci95) for p in points))


def read_curve(path):
    with open(path, newline="") as f:
        raw = list(csv.DictReader(f))
    return [CurvePoint(step=int(r["step"]), mean=float(r["mean"]),
                       ci95=float(r["ci95"])) for r in raw]
