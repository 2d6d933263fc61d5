"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.figures` builds the specs of each paper artifact and
renders paper-style reports; :mod:`repro.bench.reporting` runs and
renders them in batches.  Every figure replays through one memoizing
:class:`~repro.scenario.memo.ReplayRunner`, so no identical replay runs
twice (Figs. 13 and 16 use the same runs, for example).
"""

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
