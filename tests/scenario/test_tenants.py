"""Multi-tenant scenarios, preconditioning phases, and TRIM end-to-end."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.run import build_trace, run_scenario
from repro.scenario.spec import PreconditionPhase, ScenarioSpec, TenantSpec
from repro.scenario.sweep import SweepAxis, sweep
from repro.sim.arrival import ArrivalSpec
from repro.traces.record import OpType

#: two-tenant base: a skewed database and a write-heavy logger.
TENANTED = ScenarioSpec(
    device=sim_spec(blocks_per_chip=64),
    seed=42,
    tenants=(
        TenantSpec(name="db", workload="web-sql", num_requests=400),
        TenantSpec(
            name="logger",
            workload="uniform",
            num_requests=300,
            workload_kwargs=(("read_fraction", 0.05),),
            share=0.5,
        ),
    ),
)


class TestPartitions:
    def test_share_weighted_and_aligned(self):
        parts = TENANTED.tenant_partitions()
        assert [name for name, _, _ in parts] == ["db", "logger"]
        (db_name, db_start, db_size), (lg_name, lg_start, lg_size) = parts
        assert db_start == 0 and db_size % 4096 == 0
        assert lg_start == db_size
        # shares 1.0 : 0.5 -> db gets ~2/3 of the footprint
        assert db_size == pytest.approx(2 * lg_size, rel=0.01)

    def test_partitions_cover_the_footprint_exactly(self):
        parts = TENANTED.tenant_partitions()
        assert sum(size for _, _, size in parts) == TENANTED.footprint_bytes

    def test_no_tenants_means_no_partitions(self):
        assert ScenarioSpec().tenant_partitions() == ()

    def test_tenant_seed_derivation(self):
        assert TENANTED.tenant_seed(0) == 42
        assert TENANTED.tenant_seed(1) == 43
        explicit = TENANTED.with_(
            tenants=(
                dataclasses.replace(TENANTED.tenants[0], seed=7),
                TENANTED.tenants[1],
            )
        )
        assert explicit.tenant_seed(0) == 7


class TestTenantValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            ScenarioSpec(
                tenants=(TenantSpec(name="a"), TenantSpec(name="a"))
            )

    def test_trace_path_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            TENANTED.with_(trace_path="/tmp/x.csv")

    def test_bad_share_rejected(self):
        with pytest.raises(ConfigError, match="share"):
            TenantSpec(name="a", share=0.0)

    def test_partition_below_the_workload_floor_rejected_when_built(self):
        # b's 1% slice of a 16-block device is ~0.7 MiB: no workload can
        # run there, so the spec (not a later trace build) refuses it.
        with pytest.raises(ConfigError, match=r"tenants\[1\]\.share"):
            ScenarioSpec(
                device=sim_spec(blocks_per_chip=16),
                tenants=(
                    TenantSpec(name="a", share=0.99),
                    TenantSpec(name="b", share=0.01),
                ),
            )

    def test_share_sweep_below_the_floor_fails_before_any_replay(self):
        with pytest.raises(ConfigError, match=r"tenants\[1\]\.share"):
            sweep(TENANTED, [SweepAxis("tenants.logger.share", (0.5, 0.001))])

    def test_unknown_workload_names_the_tenant(self):
        with pytest.raises(ConfigError, match="tenant 'a'"):
            TenantSpec(name="a", workload="nope")

    def test_bad_kwargs_name_the_tenant(self):
        spec = TENANTED.with_(
            tenants=(
                TenantSpec(
                    name="db",
                    workload="uniform",
                    num_requests=100,
                    workload_kwargs=(("no_such_knob", 1),),
                ),
            )
        )
        with pytest.raises(ConfigError, match="db"):
            build_trace(spec)


class TestTenantTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return build_trace(TENANTED)

    def test_budgets_sum(self, trace):
        assert len(trace) == 700

    def test_merged_by_timestamp(self, trace):
        stamps = [r.timestamp_us for r in trace]
        assert stamps == sorted(stamps)

    def test_offsets_stay_in_partitions(self, trace):
        (_, db_start, db_size), (_, lg_start, lg_size) = TENANTED.tenant_partitions()
        for req in trace:
            end = req.offset + req.size
            in_db = db_start <= req.offset and end <= db_start + db_size
            in_logger = lg_start <= req.offset and end <= lg_start + lg_size
            assert in_db or in_logger, f"request crosses partitions: {req}"

    def test_trace_cache_key_tracks_tenants(self):
        other = TENANTED.with_(
            tenants=(
                TENANTED.tenants[0],
                dataclasses.replace(TENANTED.tenants[1], share=2.0),
            )
        )
        assert other.trace_key() != TENANTED.trace_key()


class TestTenantRuns:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(TENANTED)

    def test_every_request_attributed(self, result):
        assert result.tenant_requests == {"db": 400, "logger": 300}

    def test_service_time_accumulates_per_tenant(self, result):
        assert result.tenant_service_us["db"] > 0
        assert result.tenant_service_us["logger"] > 0
        total = sum(result.tenant_service_us.values())
        assert total == pytest.approx(
            result.read_us + result.write_us + result.trim_us
        )

    def test_sequential_mode_has_no_tenant_percentiles(self, result):
        assert result.tenant_response_percentiles() == {}

    def test_timed_percentiles_diverge_for_write_heavy_tenant(self):
        # Identical tenants except for write-heaviness, at moderate
        # load (service time dominates queueing): the writer's tail
        # must sit clearly above the reader's.
        spec = ScenarioSpec(
            device=sim_spec(blocks_per_chip=64),
            seed=42,
            tenants=(
                TenantSpec(
                    name="reader",
                    workload="uniform",
                    num_requests=400,
                    workload_kwargs=(("read_fraction", 0.95),),
                ),
                TenantSpec(
                    name="writer",
                    workload="uniform",
                    num_requests=400,
                    workload_kwargs=(("read_fraction", 0.05),),
                ),
            ),
            mode="timed",
            arrival=ArrivalSpec(queue_depth=32),
        )
        result = run_scenario(spec)
        pct = result.tenant_response_percentiles()
        assert set(pct) == {"reader", "writer"}
        for stats in pct.values():
            assert stats["p50_us"] <= stats["p95_us"] <= stats["p99_us"]
        assert pct["writer"]["p95_us"] > pct["reader"]["p95_us"]

    def test_summary_reports_tenants(self, result):
        from repro.scenario.report import summarize_result

        text = summarize_result(TENANTED, result)
        assert "tenant db" in text
        assert "tenant logger" in text


class TestPrecondition:
    BASE = ScenarioSpec(
        workload="uniform",
        num_requests=600,
        device=sim_spec(blocks_per_chip=64),
    )

    def test_phase_ages_the_device_but_not_the_accounting(self):
        fresh = run_scenario(self.BASE)
        aged = run_scenario(
            self.BASE.with_(
                precondition=(
                    PreconditionPhase(workload="uniform", num_requests=4_000),
                )
            )
        )
        # same measured stream, same request accounting ...
        assert aged.num_requests == fresh.num_requests == 600
        # ... but the preconditioned device starts fragmented, so GC
        # does at least as much work during the measured replay.
        assert aged.erase_count >= fresh.erase_count

    def test_phase_seed_defaults_derive_from_position(self):
        phases = (
            PreconditionPhase(workload="uniform", num_requests=500),
            PreconditionPhase(workload="uniform", num_requests=500),
        )
        spec = self.BASE.with_(precondition=phases)
        # distinct derived seeds: the two phases must not replay the
        # identical request stream (results stay deterministic though).
        assert run_scenario(spec).read_us == run_scenario(spec).read_us

    def test_bad_phase_rejected(self):
        with pytest.raises(ConfigError, match="precondition"):
            PreconditionPhase(workload="uniform", num_requests=0)


class TestTrimThroughEngine:
    TRIM_SPEC = ScenarioSpec(
        workload="pattern-suite",
        num_requests=2_000,
        workload_kwargs=(("phases", "write:seq | trim:rand*0.5 | mixed:zipf"),),
        device=sim_spec(blocks_per_chip=64),
    )

    @pytest.mark.parametrize("ftl", ["conventional", "fast", "ppb", "dftl"])
    def test_trims_flow_through_every_ftl(self, ftl):
        result = run_scenario(self.TRIM_SPEC.with_(ftl=ftl))
        assert result.trim_requests > 0
        assert result.ftl.stats.trimmed_pages > 0
        # trims + reads + writes account for every request
        assert (
            result.read_requests + result.write_requests + result.trim_requests
            == result.num_requests
        )

    def test_trace_contains_trims(self):
        trace = build_trace(self.TRIM_SPEC)
        assert any(r.op is OpType.TRIM for r in trace)

    def test_summary_reports_trims(self):
        from repro.scenario.report import summarize_result

        result = run_scenario(self.TRIM_SPEC)
        text = summarize_result(self.TRIM_SPEC, result)
        assert "trims" in text
