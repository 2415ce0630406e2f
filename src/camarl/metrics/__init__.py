"""Behaviour and performance analytics over completed runs."""

from camarl.metrics.behaviour import balance_index
from camarl.metrics.curves import (
    CurvePoint, aggregate_curves, read_log, write_curve)
from camarl.metrics.svg import bar_chart, line_chart, save_svg

__all__ = [
    "CurvePoint", "aggregate_curves", "balance_index", "bar_chart",
    "line_chart", "read_log", "save_svg", "write_curve",
]
