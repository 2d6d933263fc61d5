"""Tests for the experiment harness plumbing (spec caching, reports)."""

import pytest

from repro.bench.figures import FigureReport, table1
from repro.bench.reporting import render_reports, run_figures
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.memo import ReplayRunner
from repro.scenario.spec import ScenarioSpec

TINY = ScenarioSpec(
    workload="uniform", num_requests=4000, device=sim_spec(blocks_per_chip=96)
)


class TestRunner:
    def test_unknown_workload_rejected(self):
        runner = ReplayRunner()
        with pytest.raises(ConfigError):
            runner.trace_for(TINY.with_(workload="nope"))

    def test_trace_cached_by_content_key(self):
        runner = ReplayRunner()
        assert runner.trace_for(TINY) is runner.trace_for(TINY.with_(ftl="ppb"))


class TestReports:
    def test_table1_report(self):
        report = table1()
        assert report.all_checks_pass
        text = report.render()
        assert "Table 1" in text and "PASS" in text

    def test_render_reports_concatenates(self):
        reports = [table1(), table1()]
        text = render_reports(reports)
        assert text.count("Table 1") == 2

    def test_run_figures_unknown_id(self):
        with pytest.raises(KeyError):
            run_figures(["nope"])

    def test_figure_report_failure_rendering(self):
        report = FigureReport(
            figure_id="X",
            title="t",
            paper_claim="c",
            headers=["a"],
            rows=[[1]],
            checks=[("must hold", False)],
        )
        assert not report.all_checks_pass
        assert "FAIL" in report.render()
