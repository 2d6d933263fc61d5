"""Scenario execution: engine equivalence, memoization, worker pool reuse."""

import pytest

from repro.core.config import PPBConfig
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.memo import ReplayRunner, run_scenario, run_scenarios
from repro.scenario.run import build_trace, execute_scenario
from repro.scenario.spec import ScenarioSpec

#: one tiny scenario shared by the module (the expensive part).
SMOKE = ScenarioSpec(
    workload="uniform",
    num_requests=800,
    device=sim_spec(blocks_per_chip=64),
)


class TestEngineEquivalence:
    def test_run_scenario_matches_replay_trace(self):
        """The memoized declarative path and a direct replay of the
        prebuilt trace are one engine."""
        direct = execute_scenario(SMOKE, build_trace(SMOKE))
        declarative = run_scenario(SMOKE)
        assert declarative.read_us == direct.read_us
        assert declarative.write_us == direct.write_us
        assert declarative.erase_count == direct.erase_count
        assert declarative.mean_read_page_us == direct.mean_read_page_us

    def test_runner_rejects_other_types(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="ScenarioSpec"):
            ReplayRunner().run("not a spec")


class TestMemoization:
    def test_identical_scenarios_never_replay_twice(self):
        runner = ReplayRunner()
        results = run_scenarios([SMOKE, SMOKE.with_(seed=43), SMOKE], runner)
        assert results[0] is results[2]
        assert runner.stats.misses == 2
        assert runner.stats.hits == 1

    def test_trace_shared_across_variants(self):
        runner = ReplayRunner()
        trace_a = runner.trace_for(SMOKE)
        trace_b = runner.trace_for(SMOKE.with_(ftl="fast"))
        assert trace_a is trace_b
        assert runner.stats.trace_builds == 1

    def test_memo_ignores_a_ppb_section_off_ppb(self):
        """Only the PPB FTL reads ``[ppb]``: conventional with and
        without it is one replay, and the result does not depend on it."""
        runner = ReplayRunner()
        with_ppb = SMOKE.with_(ppb=PPBConfig(reliability_weight=4.0))
        plain = runner.run(SMOKE)
        assert runner.run(with_ppb) is plain
        assert (runner.stats.misses, runner.stats.hits) == (1, 1)
        direct = execute_scenario(with_ppb, build_trace(with_ppb))
        assert direct.mean_read_page_us == plain.mean_read_page_us
        assert direct.erase_count == plain.erase_count
        assert direct.extra == plain.extra
        assert direct.ftl.stats.extra == plain.ftl.stats.extra

    def test_ppb_weights_are_distinct_replays(self):
        runner = ReplayRunner()
        base = SMOKE.with_(ftl="ppb", reliability=ReliabilityConfig())
        runner.run_many(
            [base.with_(ppb=PPBConfig(reliability_weight=w)) for w in (0.0, 4.0)]
        )
        assert (runner.stats.misses, runner.stats.hits) == (2, 0)

    def test_pool_dedupes_on_the_memo_key(self):
        specs = [SMOKE, SMOKE.with_(ppb=PPBConfig()), SMOKE.with_(seed=43)]
        with ReplayRunner(workers=2) as runner:
            results = runner.run_many(specs)
        assert results[0] is results[1]
        assert (runner.stats.misses, runner.stats.hits) == (2, 1)


class TestWorkerPoolReuse:
    def test_pool_survives_across_run_many_calls(self):
        """One CLI invocation, many sweeps, one worker spawn."""
        with ReplayRunner(workers=2) as runner:
            batch_one = [SMOKE.with_(seed=s) for s in (1, 2)]
            batch_two = [SMOKE.with_(seed=s) for s in (3, 4)]
            runner.run_many(batch_one)
            pool = runner._pool
            assert pool is not None
            runner.run_many(batch_two)
            assert runner._pool is pool  # reused, not respawned
            assert runner.stats.misses == 4
        assert runner._pool is None  # context exit released the workers

    def test_close_is_idempotent_and_memo_survives(self):
        runner = ReplayRunner(workers=2)
        runner.run_many([SMOKE.with_(seed=1), SMOKE.with_(seed=2)])
        runner.close()
        runner.close()
        assert runner.run(SMOKE.with_(seed=1)) is not None
        assert runner.stats.hits == 1

    def test_parallel_results_match_sequential(self):
        specs = [SMOKE.with_(seed=s) for s in (1, 2, 3)]
        sequential = ReplayRunner().run_many(specs)
        with ReplayRunner(workers=2) as runner:
            parallel = runner.run_many(specs)
        for seq, par in zip(sequential, parallel):
            assert seq.read_us == par.read_us
            assert seq.write_us == par.write_us
            assert seq.erase_count == par.erase_count

    def test_single_worker_never_spawns_a_pool(self):
        runner = ReplayRunner()
        runner.run_many([SMOKE.with_(seed=1), SMOKE.with_(seed=2)])
        assert runner._pool is None
