"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.memo` replays scenario specs with trace and result
memoization; every figure and every scenario-file sweep runs through
it, so no identical replay runs twice (Figs. 13 and 16 use the same
runs, for example).  :mod:`repro.bench.figures` builds the specs of
each paper artifact and renders paper-style reports.
"""

from repro.bench.memo import ReplayRunner
from repro.bench.figures import (
    FULL_SCALE,
    SMOKE_SCALE,
    BenchScale,
    FigureReport,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    table1,
)

__all__ = [
    "BenchScale",
    "FULL_SCALE",
    "SMOKE_SCALE",
    "ReplayRunner",
    "FigureReport",
    "table1",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "figure18",
]
