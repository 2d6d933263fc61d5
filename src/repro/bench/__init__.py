"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.experiment` runs one (workload, device, FTL) cell and
caches results so figures sharing cells (e.g. Figs. 13 and 16 use the
same runs) pay once.  :mod:`repro.bench.figures` parameterizes the
cells per paper artifact and renders paper-style reports.
:mod:`repro.bench.memo` generalizes the memoization to arbitrary
scenario replays; every scenario-file sweep runs through it, so no
identical replay runs twice.
"""

from repro.bench.experiment import (
    BenchScale,
    Cell,
    CellResult,
    ExperimentRunner,
    FULL_SCALE,
    SMOKE_SCALE,
)
from repro.bench.memo import ReplayRunner
from repro.bench.figures import (
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
    "Cell",
    "CellResult",
    "ExperimentRunner",
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
