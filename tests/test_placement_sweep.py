"""The placement frontier: ``placement_frontier.toml`` at smoke scale.

One speed ratio, hotness skews 0.5 and 0.95, PPB weights 0 and 8, and
all three FTLs per point.  Every run is two-phase: the fresh replay is
the speed side of the frontier, the 30-day aged re-read the
reliability side.
"""

import pytest

from repro.analysis.tables import format_pct
from repro.bench.memo import ReplayRunner
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.spec import ScenarioSpec
from tests.sweep_files import run_grid, smoke_grid

FILE = "placement_frontier.toml"
SKEWS = (0.5, 0.95)
WEIGHTS = (0.0, 8.0)
SETS = (
    "device.speed_ratio=2",
    "workload_kwargs.zipf_theta=0.5,0.95",
    "ppb.reliability_weight=0,8",
)
FTLS = ("conventional", "fast", "ppb")
#: distinct replays: conventional and fast once per skew, PPB per weight.
REPLAYS = len(SKEWS) * (2 + len(WEIGHTS))


@pytest.fixture(scope="module")
def grid():
    return run_grid(FILE, *SETS)


def _theta(spec):
    return dict(spec.workload_kwargs)["zipf_theta"]


def _ppb(grid, weight):
    """``skew -> result`` of PPB at one reliability weight."""
    return {
        _theta(spec): result
        for spec, result in zip(grid.specs, grid.results)
        if spec.ftl == "ppb" and spec.ppb.reliability_weight == weight
    }


def _retry_saving(speed, rel):
    """Share of pure-speed PPB's aged retry cost the weight removed."""
    before = speed.extra["reread.retry_us"]
    if before <= 0:
        return 0.0
    return (before - rel.extra["reread.retry_us"]) / before


def _shape_checks(grid):
    speed_ppb, rel_ppb = _ppb(grid, 0.0), _ppb(grid, max(WEIGHTS))
    pairs = [(speed_ppb[skew], rel_ppb[skew]) for skew in SKEWS]
    return [
        (
            "reliability-aware placement cuts aged-read retry cost vs "
            "pure-speed ppb (every sweep point)",
            all(
                rel.extra["reread.retry_us"] <= speed.extra["reread.retry_us"] + 1e-9
                for speed, rel in pairs
            ),
        ),
        (
            "the cut is real somewhere (> 10% aged retry cost saved)",
            any(_retry_saving(speed, rel) > 0.10 for speed, rel in pairs),
        ),
        (
            "the top weight diverts read-hot data somewhere",
            any(rel.ftl.stats.extra.get("ppb.reliability_diverts", 0) > 0 for _, rel in pairs),
        ),
        (
            "fresh-read latency loss is bounded (<= 25% vs pure-speed ppb)",
            all(
                rel.extra["phase1.mean_read_page_us"]
                <= speed.extra["phase1.mean_read_page_us"] * 1.25 + 1e-9
                for speed, rel in pairs
            ),
        ),
    ]


class TestSweepReport:
    def test_one_row_per_variant(self, grid):
        assert len(grid.specs) == len(SKEWS) * len(WEIGHTS) * len(FTLS)
        assert len(grid.rows()) == len(grid.specs)

    def test_shape_checks_pass(self, grid):
        failed = [name for name, ok in _shape_checks(grid) if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_reliability_aware_cuts_aged_retry_cost(self, grid):
        speed_ppb, rel_ppb = _ppb(grid, 0.0), _ppb(grid, 8.0)
        hottest = max(SKEWS)
        assert _retry_saving(speed_ppb[hottest], rel_ppb[hottest]) > 0.10
        assert rel_ppb[hottest].ftl.stats.extra["ppb.reliability_diverts"] > 0

    def test_render_includes_placement_columns(self, grid):
        text = grid.render()
        assert text.startswith("== placement-frontier ==")
        for header in ("zipf_theta", "reliability_weight", "ftl", "fresh rd (us/pg)",
                       "aged rd (us/pg)", "refr blk", "fast rd", "diverts"):
            assert f" {header} " in text
        assert "retry us/pg" not in text  # every row is two-phase
        assert text.endswith(f"{REPLAYS} replays run, 4 served from memo")


class TestMemoization:
    def test_no_identical_replay_ran_twice(self, grid):
        # the weight axis re-requests conventional and fast: 2 FTLs x
        # (weights - 1) x skews repeats, all served from the memo
        assert grid.memo.misses == REPLAYS
        assert grid.memo.hits == 2 * (len(WEIGHTS) - 1) * len(SKEWS)

    def test_rerun_is_fully_memoized(self, grid):
        misses_before = grid.runner.stats.misses
        rerun = grid.runner.run_many(grid.specs)
        assert grid.runner.stats.misses == misses_before  # nothing re-ran
        assert all(a is b for a, b in zip(rerun, grid.results))

    def test_trace_shared_across_variants(self, grid):
        # one trace per (workload, size, skew, seed), not per variant
        assert grid.memo.trace_builds == len(SKEWS)


class TestReplayRunner:
    def test_spec_hashable_and_memoized(self):
        runner = ReplayRunner()
        spec = ScenarioSpec(
            num_requests=300, device=sim_spec(blocks_per_chip=64)
        )
        first = runner.run(spec)
        again = runner.run(spec)
        assert first is again
        assert runner.stats.hits == 1
        assert runner.stats.misses == 1

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(workload="nope")


class TestSweepValidation:
    def test_unskewable_workload_rejected(self):
        specs, _, _ = smoke_grid(FILE, *SETS, "workload=uniform")
        with pytest.raises(ConfigError, match="zipf_theta"):
            ReplayRunner().run(specs[0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError, match="reliability_weight"):
            smoke_grid(FILE, "ppb.reliability_weight=-1,2")

    def test_skew_must_be_valid_zipf_theta(self):
        specs, _, _ = smoke_grid(FILE, *SETS[:1], "workload_kwargs.zipf_theta=1.2")
        with pytest.raises(ConfigError, match="theta"):
            ReplayRunner().run(specs[0])

    def test_point_derived_metrics(self, grid):
        """``fast rd`` and ``diverts`` print for PPB rows only, from the
        replay's FTL."""
        for spec, result, row in zip(grid.specs, grid.results, grid.rows()):
            if spec.ftl == "ppb":
                ftl = result.ftl
                assert row["fast rd"] == format_pct(ftl.fast_page_read_fraction())
                diverts = int(ftl.stats.extra.get("ppb.reliability_diverts", 0))
                assert row["diverts"] == f"{diverts:,}"
            else:
                assert row["fast rd"] == row["diverts"] == "-"

    def test_two_phase_retries_are_the_aged_phase(self, grid):
        """``retries/rd`` sits next to ``aged rd``: on a two-phase row it
        is the aged phase's rate, not the rate over both phases."""
        for result, row in zip(grid.results, grid.rows()):
            aged = result.extra["reread.retries_per_read"]
            both = result.ftl.reliability.stats.mean_retries_per_read
            assert row["retries/rd"] == f"{aged:.2f}"
            assert aged > both  # the fresh phase dilutes the mixed rate


class TestParallelSweep:
    """A pool of workers must not change the rendered sweep."""

    def test_parallel_sweep_matches_sequential(self, grid):
        # equal tables mean byte-identical replays and the same hit/miss
        # accounting (the memo line renders it)
        assert run_grid(FILE, *SETS, workers=2).render() == grid.render()

    def test_sweep_specs_enumerates_the_grid(self):
        specs, _, _ = smoke_grid(FILE, *SETS)
        assert len(set(specs)) == len(specs)
        assert len({spec.memo_key() for spec in specs}) == REPLAYS
        # the file's own grid: 2 ratios x 3 skews x 3 weights x 3 FTLs,
        # of which 2 x 3 x (2 + 3) are distinct replays
        full, _, _ = smoke_grid(FILE)
        assert len(full) == 54
        assert len({spec.memo_key() for spec in full}) == 30
