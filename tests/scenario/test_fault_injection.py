"""Scenario-level properties of fault injection and the QoS loop.

The acceptance contract of the robustness PR:

* a ``FaultSpec`` with ``rate = 0`` (or none at all) is **byte-identical**
  to the baseline on every FTL, in sequential and timed mode alike;
* a uniform state-skew config (``state_skew = 1`` or ``randomizer = 1``)
  is exactly the pre-state-aware model;
* injection is deterministic: the same spec replays the same faults
  under any ``ReplayRunner`` worker count;
* holds-aware refresh triage performs strictly fewer refresh copies
  than worst-page triage on the same scenario;
* ``gc_risk_weight`` switches the victim policy into the reliability
  loop.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.reliability.faults import FaultSpec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.memo import ReplayRunner, run_scenario
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import SweepAxis, sweep
from repro.sim.arrival import ArrivalSpec

HOUR_S = 3600.0

#: reliability stack that actually exercises retention + disturb.
RELIABILITY = ReliabilityConfig(disturb_coeff=8.0, refresh_disturb_reads=2000)


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        workload="web-sql",
        num_requests=400,
        # NOTE: PPB + refresh livelocks below ~16 blocks/chip (a seed
        # behavior, independent of fault injection) — stay at 16.
        device=sim_spec(blocks_per_chip=16),
        reliability=RELIABILITY,
        refresh=True,
        retention_age_s=24 * HOUR_S,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def as_dict(result) -> dict:
    return dataclasses.asdict(result)


class TestRateZeroIdentity:
    @pytest.mark.parametrize("ftl", ["conventional", "fast", "ppb", "dftl"])
    @pytest.mark.parametrize("mode", ["sequential", "timed"])
    def test_rate_zero_is_byte_identical(self, ftl, mode):
        kwargs = {"ftl": ftl, "mode": mode}
        if mode == "timed":
            kwargs.update(arrival=ArrivalSpec(queue_depth=16, scale=4.0))
        baseline = run_scenario(small_spec(**kwargs))
        with_zero = run_scenario(small_spec(faults=FaultSpec(rate=0.0), **kwargs))
        assert as_dict(baseline) == as_dict(with_zero)

    def test_uniform_state_skew_is_the_existing_model(self):
        baseline = run_scenario(small_spec())
        unit_skew = run_scenario(
            small_spec(reliability=RELIABILITY.replace(state_skew=1.0, randomizer=0.3))
        )
        whitened = run_scenario(
            small_spec(reliability=RELIABILITY.replace(state_skew=4.0, randomizer=1.0))
        )
        assert as_dict(baseline) == as_dict(unit_skew)
        assert as_dict(baseline) == as_dict(whitened)

    def test_skew_changes_results(self):
        baseline = run_scenario(small_spec())
        skewed = run_scenario(
            small_spec(reliability=RELIABILITY.replace(state_skew=4.0, randomizer=0.0))
        )
        assert as_dict(baseline) != as_dict(skewed)


class TestDeterminism:
    FAULTED = dict(
        num_requests=600,
        mode="timed",
        arrival=ArrivalSpec(queue_depth=16, scale=4.0),
        faults=FaultSpec(rate=0.01, burst=4, target="mixed"),
    )

    def test_same_spec_same_faults(self):
        a = run_scenario(small_spec(**self.FAULTED))
        b = run_scenario(small_spec(**self.FAULTED))
        assert as_dict(a) == as_dict(b)
        assert a.extra["faults.injected_reads"] > 0

    def test_worker_pool_matches_inline(self):
        spec = small_spec(**self.FAULTED)
        inline = ReplayRunner(workers=1)
        pooled = ReplayRunner(workers=2)
        try:
            (a,) = inline.run_many([spec])
            (b,) = pooled.run_many([spec])
        finally:
            inline.close()
            pooled.close()
        assert as_dict(a) == as_dict(b)

    def test_fault_seed_changes_schedule_not_trace(self):
        a = run_scenario(
            small_spec(**{**self.FAULTED, "faults": FaultSpec(rate=0.01, seed=1)})
        )
        b = run_scenario(
            small_spec(**{**self.FAULTED, "faults": FaultSpec(rate=0.01, seed=2)})
        )
        assert a.num_requests == b.num_requests
        assert as_dict(a) != as_dict(b)


class TestInjectionEffects:
    def test_injection_raises_read_cost_and_surfaces_extras(self):
        # Multi-chip: the chip-utilization extras come from the
        # channel-parallel timed engine.
        base = small_spec(
            mode="timed",
            arrival=ArrivalSpec(queue_depth=16, scale=4.0),
            device=sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2),
        )
        faulted = base.with_(faults=FaultSpec(rate=0.02, burst=4, target="mixed"))
        clean = run_scenario(base)
        stormy = run_scenario(faulted)
        assert stormy.mean_read_page_us > clean.mean_read_page_us
        assert stormy.extra["faults.injected_reads"] > 0
        assert stormy.extra["reliability.uncorrectable_reads"] >= stormy.extra[
            "faults.injected_uncorrectable"
        ]
        # Recovery + ladder segments queue on the device: busier chips.
        assert (
            stormy.extra["timed.chip_util_mean"] > clean.extra["timed.chip_util_mean"]
        )
        for key in ("faults.injected_reads", "reliability.uncorrectable_reads"):
            assert key not in clean.extra

    def test_spec_requires_reliability(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(faults=FaultSpec(rate=0.01))

    def test_faults_sweepable_by_dotted_path(self):
        base = small_spec()
        points = sweep(base, [SweepAxis("faults.rate", (0.0, 0.01))])
        assert [p.faults.rate for p in points] == [0.0, 0.01]
        assert "+faults(0.01)" in points[1].describe()
        assert "+faults" not in points[0].describe()


class TestReliabilityQosLoop:
    TRIAGE = dict(
        num_requests=1500,
        device=sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2),
    )
    #: state skew widens the gap between the worst *physical* page and
    #: the worst *live* page, which is exactly what holds triage exploits.
    SKEWED = RELIABILITY.replace(state_skew=2.0, randomizer=0.5)

    def test_holds_triage_strictly_fewer_refresh_copies(self):
        worst = run_scenario(
            small_spec(
                reliability=self.SKEWED.replace(refresh_triage="worst"), **self.TRIAGE
            )
        )
        holds = run_scenario(
            small_spec(
                reliability=self.SKEWED.replace(refresh_triage="holds"), **self.TRIAGE
            )
        )
        worst_stats = worst.ftl.reliability.stats
        holds_stats = holds.ftl.reliability.stats
        assert worst_stats.refresh_copied_pages > 0
        assert holds_stats.refresh_copied_pages < worst_stats.refresh_copied_pages
        assert holds.extra["refresh.triage_skipped_blocks"] > 0
        assert holds.extra["refresh.triage_saved_pages"] > 0
        for key in ("refresh.triage_skipped_blocks", "refresh.triage_saved_pages"):
            assert key not in worst.extra

    def test_gc_risk_weight_selects_reliability_policy(self):
        plain = run_scenario(small_spec())
        risky = run_scenario(
            small_spec(reliability=RELIABILITY.replace(gc_risk_weight=4.0))
        )
        assert plain.ftl.victim_policy.name == "greedy"
        assert risky.ftl.victim_policy.name == "reliability-greedy"

    def test_zero_weight_policy_matches_greedy_choice(self):
        # weight 0 must reduce to plain greedy, same first-hit tie-break.
        from repro.ftl.gc import GreedyVictimPolicy, ReliabilityAwareGreedyPolicy

        result = run_scenario(small_spec())
        ftl = result.ftl
        zero = ReliabilityAwareGreedyPolicy(ftl.reliability, 0.0)
        greedy = GreedyVictimPolicy()
        assert zero.select(ftl.blocks) == greedy.select(ftl.blocks)
