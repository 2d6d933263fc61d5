"""Run a committed sweep file the way ``scenario run FILE --smoke --set ...`` does.

Shared by the reliability and placement sweep tests, which run
``reliability_sweep.toml`` and ``placement_frontier.toml`` at narrowed
grids and assert the claims each sweep exists to show.
"""

from __future__ import annotations

import copy
import os
from typing import NamedTuple

from repro.cli import _apply_sets, _apply_smoke
from repro.scenario.memo import ReplayMemoStats, ReplayRunner
from repro.scenario.report import sweep_table
from repro.scenario.serialize import load_scenario_file
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import SweepAxis, sweep
from repro.sim.ssd import RunResult

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "scenarios")


def smoke_grid(
    name: str, *sets: str
) -> tuple[list[ScenarioSpec], list[SweepAxis], str]:
    """``(specs, axes, title)`` of a committed file at smoke size, after
    applying ``sets`` (``"path=v1,v2"`` strings, as ``--set`` takes)."""
    bundle = load_scenario_file(os.path.join(SCENARIO_DIR, name))
    base, axes = _apply_sets(bundle.base, list(bundle.axes), list(sets))
    base, axes = _apply_smoke(base, axes)
    return sweep(base, axes), axes, bundle.name


class Grid(NamedTuple):
    """One executed sweep, with its runner's memo stats right after it ran."""

    specs: list[ScenarioSpec]
    axes: list[SweepAxis]
    title: str
    results: list[RunResult]
    runner: ReplayRunner
    memo: ReplayMemoStats

    def render(self) -> str:
        """The sweep as ``scenario run`` prints it."""
        return sweep_table(
            self.specs, self.results, self.axes, memo=self.memo, title=self.title
        )

    def rows(self) -> list[dict[str, str]]:
        return table_rows(self.render())


def run_grid(name: str, *sets: str, workers: int = 1) -> Grid:
    """Execute :func:`smoke_grid` through a fresh :class:`ReplayRunner`."""
    specs, axes, title = smoke_grid(name, *sets)
    with ReplayRunner(workers=workers) as runner:
        results = runner.run_many(specs)
    return Grid(specs, axes, title, results, runner, copy.copy(runner.stats))


def table_rows(text: str) -> list[dict[str, str]]:
    """The data rows of a rendered ``sweep_table``, keyed by header."""
    lines = [line for line in text.splitlines() if line.startswith("|")]
    header, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    return [dict(zip(header, row)) for row in rows]
