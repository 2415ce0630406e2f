"""Cross-seed learning-curve aggregation and the per-agent balance index.

The balance index quantifies how evenly work is spread across a team
from its per-agent event participation counts (``event_count_agent_*``
in the training log).
"""

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


def balance_index(counts) -> float:
    """How evenly the team's event participations are spread, in [0, 1].

    One agent doing everything scores 0; perfectly equal shares score 1.
    The score is one minus the standard deviation of the share vector,
    normalized by the one-hot share vector's deviation (the most uneven
    split possible).  A team with no events at all counts as balanced.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 2:
        raise UsageError("balance index needs one count per agent, N >= 2")
    if counts.min() < 0:
        raise UsageError("event counts cannot be negative")
    total = counts.sum()
    if total == 0:
        return 1.0
    shares = counts / total
    n = counts.size
    std_max = np.sqrt(n - 1) / n
    return float(1.0 - shares.std() / std_max)
