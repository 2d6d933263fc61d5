"""Cross-module integration tests: whole-stack behaviour checks.

These are the paper's qualitative results at miniature scale:

* PPB beats the conventional FTL on reads for skewed workloads;
* PPB gains nothing on a symmetric (uniform-latency) device;
* PPB gains nothing on an unskewed workload;
* write (program) latency is unchanged;
* all of it deterministic for fixed seeds.
"""

from __future__ import annotations

import pytest

from repro.nand.spec import sim_spec
from repro.scenario.memo import ReplayRunner
from repro.scenario.spec import ScenarioSpec

#: miniature scale so the whole module runs in seconds.
MICRO_REQUESTS = 12_000
MICRO_BLOCKS = 128


def micro_spec(workload: str, speed_ratio: float, **device: object) -> ScenarioSpec:
    """A conventional-FTL replay at the miniature scale."""
    return ScenarioSpec(
        workload=workload,
        num_requests=MICRO_REQUESTS,
        device=sim_spec(speed_ratio=speed_ratio, blocks_per_chip=MICRO_BLOCKS, **device),
    )


def compare(runner: ReplayRunner, spec: ScenarioSpec):
    """(conventional, PPB) FTL stats after replaying ``spec`` under each."""
    base = runner.run(spec).ftl.stats
    ppb = runner.run(spec.with_(ftl="ppb")).ftl.stats
    return base, ppb


def read_gain(base, ppb) -> float:
    return (base.host_read_us - ppb.host_read_us) / base.host_read_us


@pytest.fixture(scope="module")
def runner() -> ReplayRunner:
    return ReplayRunner()


class TestPaperHeadline:
    def test_ppb_improves_reads_on_web_workload(self, runner):
        base, ppb = compare(runner, micro_spec("web-sql", 4.0))
        assert ppb.host_read_us < base.host_read_us

    def test_ppb_improves_reads_on_media_workload(self, runner):
        base, ppb = compare(runner, micro_spec("media-server", 4.0))
        assert ppb.host_read_us < base.host_read_us

    def test_write_latency_essentially_unchanged(self, runner):
        base, ppb = compare(runner, micro_spec("web-sql", 4.0))
        delta = abs(ppb.host_write_us - base.host_write_us) / base.host_write_us
        assert delta < 0.005

    def test_erases_not_excessive(self, runner):
        base, ppb = compare(runner, micro_spec("web-sql", 4.0))
        assert ppb.erase_count <= base.erase_count * 1.5

    def test_gain_grows_with_speed_ratio(self, runner):
        gains = []
        for ratio in (2.0, 5.0):
            gains.append(read_gain(*compare(runner, micro_spec("web-sql", ratio))))
        assert gains[1] > gains[0]


class TestNullControls:
    def test_no_gain_on_symmetric_device(self, runner):
        """On a uniform-latency device PPB has nothing to exploit."""
        spec = micro_spec("web-sql", 4.0, latency_profile="uniform")
        assert abs(read_gain(*compare(runner, spec))) < 0.01

    def test_little_gain_on_unskewed_workload(self, runner):
        gain = read_gain(*compare(runner, micro_spec("uniform", 4.0)))
        # uniform traffic has no hot data to place; allow small noise
        assert gain < 0.05


class TestDeterminism:
    def test_cells_are_reproducible(self):
        spec = micro_spec("web-sql", 3.0)
        a = ReplayRunner().run(spec).ftl.stats
        b = ReplayRunner().run(spec).ftl.stats
        assert a.host_read_us == b.host_read_us
        assert a.host_write_us == b.host_write_us
        assert a.erase_count == b.erase_count

    def test_runner_caches(self, runner):
        spec = micro_spec("web-sql", 4.0)
        first = runner.run(spec)
        second = runner.run(spec)
        assert first is second

    def test_trace_shared_across_ftls(self, runner):
        spec = micro_spec("web-sql", 4.0)
        trace_a = runner.trace_for(spec.with_(ftl="conventional"))
        trace_b = runner.trace_for(spec.with_(ftl="ppb"))
        assert trace_a is trace_b


class TestProfileSensitivity:
    @pytest.mark.parametrize("profile", ["linear", "geometric", "physical"])
    def test_ppb_wins_under_every_asymmetric_profile(self, runner, profile):
        base, ppb = compare(runner, micro_spec("web-sql", 4.0, latency_profile=profile))
        assert ppb.host_read_us < base.host_read_us
