"""Cross-seed learning-curve aggregation."""

import warnings
from dataclasses import dataclass

import numpy as np

from camarl.errors import (
    ConfigurationError, IncompatibleInputsError, UsageError)
from camarl.marl.evaluate import return_ci95
from camarl.marl.trainer import CSV_FIELDS, event_fields
from camarl.nn.checkpoint import check_fields, is_str, read_csv, write_csv


@dataclass
class CurvePoint:
    step: int
    mean: float
    ci95: float              # 95% t-interval half-width


def read_log(path, n_agents):
    """Parse a training log CSV back into typed row dicts; it must hold
    every column write_log writes for a team of n_agents."""
    raw = read_csv(path)
    if not raw:
        raise UsageError(f"log {path} is empty")
    check_fields(raw[0], dict.fromkeys(
        list(CSV_FIELDS) + event_fields(n_agents), is_str), f"log {path}")
    try:
        return [{k: int(v) if k in ("step", "episode") else float(v)
                 for k, v in r.items()} for r in raw]
    except (TypeError, ValueError) as err:
        raise ConfigurationError(
            f"log {path} has a non-numeric cell: {err}") from None


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
