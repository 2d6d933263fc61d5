"""The reliability sweep: ``reliability_sweep.toml`` at smoke scale.

One speed ratio, retention ages 0 and 30 days, refresh off and on.  A
``refresh = false`` row's latency-only read cost is ``read - retry
us/pg`` (:class:`TestBaselineIdentity` pins that), so the retention
penalty and the share of it refresh recovers follow from the rows.
"""

import pytest

from repro.errors import ConfigError
from repro.scenario.run import build_trace, execute_scenario
from tests.sweep_files import run_grid, smoke_grid

FILE = "reliability_sweep.toml"
DAY_S = 86_400.0
#: the grid of the smoke tests: one speed ratio, fresh and 30-day-old data.
SETS = ("device.speed_ratio=2", "retention_age_s=0,2592000")


@pytest.fixture(scope="module")
def grid():
    return run_grid(FILE, *SETS)


@pytest.fixture(scope="module")
def points(grid):
    """``(age_s, refresh) -> (read us/pg, retry us/pg, erases, refreshed blocks)``."""
    out = {}
    for spec, result in zip(grid.specs, grid.results):
        ftl = result.ftl
        rel = ftl.reliability.stats
        out[(spec.retention_age_s, spec.refresh)] = (
            result.mean_read_page_us,
            rel.retry_us / ftl.stats.host_read_pages,
            ftl.stats.erase_count,
            rel.refresh_runs,
        )
    return out


def _ages(points):
    return sorted({age for age, _ in points})


def _penalty(points, age):
    """Retention read-latency inflation over the latency-only cost."""
    read, retry, _, _ = points[(age, False)]
    return retry / (read - retry)


def _recovered(points, age):
    """Share of the retention penalty the refresh policy removed."""
    read, retry, _, _ = points[(age, False)]
    if retry <= 0:
        return 0.0
    return min(1.0, (read - points[(age, True)][0]) / retry)


def _shape_checks(points):
    ages = _ages(points)
    oldest = ages[-1]
    reads = [points[(age, False)][0] for age in ages]
    return [
        (
            "read latency is monotone in retention age (no refresh)",
            all(b >= a - 1e-9 for a, b in zip(reads, reads[1:])),
        ),
        ("fresh data is (near) penalty-free (<= 2% at age 0)", _penalty(points, 0.0) <= 0.02),
        (
            "retention age measurably inflates read latency (>= 3% at max age)",
            _penalty(points, oldest) >= 0.03,
        ),
        (
            "refresh recovers most of the retention penalty (>= 50% at max age)",
            _recovered(points, oldest) >= 0.50,
        ),
        (
            "refresh pays with background work (blocks refreshed at max age)",
            points[(oldest, True)][3] > 0,
        ),
    ]


class TestSweepReport:
    def test_one_row_per_point(self, grid):
        # 2 ages x refresh off/on, every one a distinct replay
        assert len(grid.specs) == 4
        assert len(grid.rows()) == 4
        assert grid.memo.misses == 4

    def test_retention_inflates_read_latency(self, points):
        assert points[(30 * DAY_S, False)][0] > points[(0.0, False)][0]

    def test_refresh_recovers_latency(self, points):
        assert points[(30 * DAY_S, True)][0] < points[(30 * DAY_S, False)][0]

    def test_refresh_costs_erases(self, points):
        # the lifetime half of the trade-off
        assert points[(30 * DAY_S, True)][2] > points[(30 * DAY_S, False)][2]

    def test_shape_checks_pass(self, points):
        failed = [name for name, ok in _shape_checks(points) if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_render_includes_reliability_columns(self, grid):
        text = grid.render()
        assert text.startswith("== reliability-sweep ==")
        for header in ("retention_age_s", "refresh", "retries/rd", "retry us/pg", "refr blk"):
            assert f" {header} " in text
        assert text.endswith("4 replays run, 0 served from memo")


class TestSweepValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            smoke_grid(FILE, "workload=nope")

    def test_point_derived_metrics(self, grid, points):
        """``retry us/pg`` prints only without refresh and ``refr blk``
        only with it; both come from the replay's reliability stats."""
        for spec, row in zip(grid.specs, grid.rows()):
            _, retry, _, refreshed = points[(spec.retention_age_s, spec.refresh)]
            assert row["retry us/pg"] == f"{retry:.1f}"
            assert row["refr blk"] == (str(refreshed) if spec.refresh else "-")


class TestBaselineIdentity:
    """Without refresh the stack only adds retry latency, so no sweep
    needs a separate latency-only replay."""

    @pytest.mark.parametrize("ftl", ["conventional", "fast", "ppb", "dftl"])
    def test_read_minus_retry_is_the_detached_replay(self, ftl):
        specs, _, _ = smoke_grid(FILE, *SETS, "refresh=false", f"ftl={ftl}")
        trace = build_trace(specs[0])
        detached = execute_scenario(specs[0].with_(reliability=None), trace)
        for spec in specs:
            result = execute_scenario(spec, trace)
            stats = result.ftl.stats
            retry = result.ftl.reliability.stats.retry_us / stats.host_read_pages
            assert result.mean_read_page_us - retry == pytest.approx(
                detached.mean_read_page_us, abs=1e-9
            )
            assert stats.erase_count == detached.erase_count
