"""Behaviour and performance analytics over completed runs."""

from camarl.metrics.curves import (
    CurvePoint, aggregate_curves, balance_index, write_curve)
from camarl.metrics.svg import bar_chart, line_chart, save_svg

__all__ = [
    "CurvePoint", "aggregate_curves", "balance_index", "bar_chart",
    "line_chart", "save_svg", "write_curve",
]
