"""The memoizing replay runner: worker validation and the process pool."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.memo import ReplayRunner
from repro.scenario.spec import ScenarioSpec

#: A tiny spec so the runner tests replay in milliseconds.
TINY = ScenarioSpec(
    workload="web-sql", num_requests=400, device=sim_spec(blocks_per_chip=48)
)


class TestParallelRunner:
    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            ReplayRunner(workers=0)

    def test_run_many_single_process_matches_run(self):
        sequential = ReplayRunner()
        expected = [sequential.run(TINY), sequential.run(TINY.with_(ftl="fast"))]
        runner = ReplayRunner()
        results = runner.run_many([TINY, TINY.with_(ftl="fast")])
        assert [r.read_us for r in results] == [r.read_us for r in expected]
        assert runner.stats.misses == 2
        # Identical replays are absorbed by the memo.
        again = runner.run_many([TINY])
        assert again[0] is results[0]
        assert runner.stats.hits >= 1

    def test_run_many_parallel_is_byte_identical(self):
        specs = [TINY, TINY.with_(ftl="fast")]
        sequential = ReplayRunner().run_many(specs)
        parallel_runner = ReplayRunner(workers=2)
        parallel = parallel_runner.run_many(specs)
        assert parallel_runner.stats.misses == 2
        for seq, par in zip(sequential, parallel):
            assert par.read_us == seq.read_us
            assert par.write_us == seq.write_us
            assert par.erase_count == seq.erase_count
            assert par.ftl.stats.snapshot() == seq.ftl.stats.snapshot()
        # The pool results live in the memo: re-requesting hits.
        assert parallel_runner.run(specs[0]) is parallel[0]
