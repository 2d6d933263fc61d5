"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.experiment` runs one (workload, device, FTL) cell and
caches results so figures sharing cells (e.g. Figs. 13 and 16 use the
same runs) pay once.  :mod:`repro.bench.figures` parameterizes the
cells per paper artifact and renders paper-style reports.
:mod:`repro.bench.memo` generalizes the memoization to arbitrary trace
replays; the sweep scenarios (:mod:`repro.bench.reliability`,
:mod:`repro.bench.placement`) build on it so their baselines never
replay twice.
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
from repro.bench.placement import PlacementSweepSpec, run_placement_sweep
from repro.bench.reliability import ReliabilitySweepSpec, run_reliability_sweep
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
    "PlacementSweepSpec",
    "run_placement_sweep",
    "ReliabilitySweepSpec",
    "run_reliability_sweep",
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
