"""Run analytics: cross-seed learning curves, the per-agent balance
index and standalone SVG charts.

The balance index quantifies how evenly work is spread across a team
from its per-agent event participation counts (``event_count_agent_*``
in the training log).  Charts are assembled as plain markup strings so
reports render anywhere without a plotting dependency, and the same
inputs always produce the same bytes.
"""

import warnings
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from camarl.errors import IncompatibleInputsError, UsageError
from camarl.marl.evaluate import return_ci95
from camarl.nn.checkpoint import atomic_open, write_csv


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


def write_curves(out_dir, env_id, groups, csv_name):
    """Return and win-rate curves of each group of seed logs.

    groups maps label -> logs.  Each group's curve goes to the CSV
    ``csv_name.format(label=..., metric=...)`` in out_dir, and one chart
    per metric, ``curve_{metric}.svg``, draws every group in its order.
    """
    for metric in ("eval_return_mean", "win_rate"):
        series = {}
        for label, logs in groups.items():
            series[label] = aggregate_curves(logs, metric)
            write_curve(out_dir / csv_name.format(label=label, metric=metric),
                        series[label])
        save_svg(out_dir / f"curve_{metric}.svg",
                 line_chart(series, title=f"{env_id} {metric}",
                            xlabel="environment steps", ylabel=metric))


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


# -- SVG charts ---------------------------------------------------------------

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 40, 48
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:g}"


def _nice_ticks(lo: float, hi: float):
    """About 5 round tick positions on the 1/2/5 ladder covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else float(t))
        t += step
    return ticks


class _Frame:
    """Maps data coordinates to pixel coordinates inside the axes box."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad = 0.05 * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo - pad, y_hi + pad

    def x(self, v):
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v):
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)


def _axes(frame, title, xlabel, ylabel):
    parts = []
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    for tv in _nice_ticks(frame.y_lo, frame.y_hi):
        py = frame.y(tv)
        parts.append(f'<line x1="{x0}" y1="{_fmt(py)}" x2="{x1}" '
                     f'y2="{_fmt(py)}" stroke="#ddd" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 6}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end" font-size="11">{_label(tv)}</text>')
    for tv in _nice_ticks(frame.x_lo, frame.x_hi):
        px = frame.x(tv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" '
                     f'y2="{y0 + 4}" stroke="#444" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 18}" '
                     f'text-anchor="middle" font-size="11">{_label(tv)}</text>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 f'stroke="#444" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 f'stroke="#444" stroke-width="1"/>')
    if title:
        parts.append(f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
                     f'font-size="14" font-weight="bold">{escape(title)}</text>')
    if xlabel:
        parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 8}" '
                     f'text-anchor="middle" font-size="12">{escape(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
                     f'font-size="12" transform="rotate(-90 16 {HEIGHT // 2})">'
                     f'{escape(ylabel)}</text>')
    return parts


def _legend(labels):
    parts = []
    x = MARGIN_L + 10
    y = MARGIN_T + 8
    for k, label in enumerate(labels):
        color = PALETTE[k % len(PALETTE)]
        parts.append(f'<rect x="{x}" y="{y + 18 * k}" width="14" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x + 20}" y="{y + 18 * k + 9}" '
                     f'font-size="11">{escape(str(label))}</text>')
    return parts


def _document(parts):
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f'{body}\n</svg>\n')


def line_chart(series: dict, title: str = "", xlabel: str = "",
               ylabel: str = "") -> str:
    """Curves with shaded confidence bands, one color per label.

    series maps label -> list of CurvePoint.
    """
    if not series or any(not pts for pts in series.values()):
        raise UsageError("line chart needs at least one non-empty series")
    lo = min(p.mean - p.ci95 for pts in series.values() for p in pts)
    hi = max(p.mean + p.ci95 for pts in series.values() for p in pts)
    x_lo = min(p.step for pts in series.values() for p in pts)
    x_hi = max(p.step for pts in series.values() for p in pts)
    frame = _Frame(x_lo, x_hi, lo, hi)
    parts = _axes(frame, title, xlabel, ylabel)
    for k, (label, pts) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        if any(p.ci95 > 0 for p in pts):
            upper = [(frame.x(p.step), frame.y(p.mean + p.ci95)) for p in pts]
            lower = [(frame.x(p.step), frame.y(p.mean - p.ci95))
                     for p in reversed(pts)]
            ring = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in upper + lower)
            parts.append(f'<polygon points="{ring}" fill="{color}" '
                         f'fill-opacity="0.2" stroke="none"/>')
        line = " ".join(f"{_fmt(frame.x(p.step))},{_fmt(frame.y(p.mean))}"
                        for p in pts)
        parts.append(f'<polyline points="{line}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    parts.extend(_legend(list(series.keys())))
    return _document(parts)


def bar_chart(groups: dict, title: str = "", ylabel: str = "") -> str:
    """Grouped bars: one cluster per category, one color per label.

    groups maps label -> per-category values; all labels must provide
    the same number of categories, which are labelled 0, 1, ...
    """
    if not groups:
        raise UsageError("bar chart needs at least one group")
    sizes = {len(v) for v in groups.values()}
    if len(sizes) != 1 or 0 in sizes:
        raise UsageError("bar groups must share a common nonzero length")
    n_cat = sizes.pop()
    vals = np.array([list(v) for v in groups.values()], dtype=np.float64)
    frame = _Frame(0.0, float(n_cat), min(0.0, vals.min()), vals.max())
    parts = _axes(frame, title, "", ylabel)
    n_series = len(groups)
    slot = (WIDTH - MARGIN_L - MARGIN_R) / n_cat
    bar_w = 0.8 * slot / n_series
    y_zero = frame.y(0.0)
    for k, (label, values) in enumerate(groups.items()):
        color = PALETTE[k % len(PALETTE)]
        for c, v in enumerate(values):
            x = MARGIN_L + c * slot + 0.1 * slot + k * bar_w
            y = frame.y(float(v))
            top, height = (y, y_zero - y) if v >= 0 else (y_zero, y - y_zero)
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(top)}" '
                         f'width="{_fmt(bar_w)}" height="{_fmt(height)}" '
                         f'fill="{color}"/>')
    for c in range(n_cat):
        px = MARGIN_L + (c + 0.5) * slot
        parts.append(f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11">{c}</text>')
    parts.extend(_legend(list(groups.keys())))
    return _document(parts)


def save_svg(path, markup: str):
    with atomic_open(path, "w") as f:
        f.write(markup)
