"""Batch rendering of every paper artifact (used by the CLI and to
produce EXPERIMENTS.md)."""

from __future__ import annotations

from typing import Iterable

from repro.bench.figures import FIGURES, FULL_SCALE, BenchScale, FigureReport
from repro.scenario.memo import ReplayRunner


def run_figures(
    ids: Iterable[str] | None = None,
    runner: ReplayRunner | None = None,
    scale: BenchScale = FULL_SCALE,
) -> list[FigureReport]:
    """Run the requested figures (default: all) and return their reports."""
    if runner is None:
        runner = ReplayRunner()
    selected = list(ids) if ids is not None else list(FIGURES)
    reports = []
    for figure_id in selected:
        if figure_id not in FIGURES:
            raise KeyError(
                f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}"
            )
        reports.append(FIGURES[figure_id](runner, scale))
    return reports


def render_reports(reports: Iterable[FigureReport]) -> str:
    """Concatenate rendered reports with separators."""
    blocks = [report.render() for report in reports]
    return ("\n\n" + "=" * 72 + "\n\n").join(blocks)
