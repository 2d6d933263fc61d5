"""The benchmark's workloads, scales and simulated-result digest.

Each workload is a :class:`~repro.scenario.spec.ScenarioSpec` built from
a scale and a seed; the child process replays it through the public
scenario path.  Why each one exists is in BENCHMARK.json and in
perfbench/README.md.

Everything here except the imports inside :func:`build_spec` and
:func:`digest` is plain Python, so the parent process can list
workloads and compare digests without importing ``repro``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

#: the seed the committed reference digests (reference.json) were made at.
REFERENCE_SEED = 42

#: measured requests of every workload at scale "full".
REQUESTS = 100_000

#: fewest blocks per chip a scaled-down device keeps.
MIN_BLOCKS_PER_CHIP = 32


@dataclass(frozen=True)
class Scale:
    """How big one run is, as fractions of the full workloads."""

    name: str
    #: share of the full request counts.
    requests_factor: float
    #: share of the full devices' blocks per chip.
    blocks_factor: float
    #: longest a single child run may take before it counts as failed.
    timeout_s: float

    def requests(self, full: int = REQUESTS) -> int:
        """``full`` requests scaled down."""
        return max(1, round(full * self.requests_factor))

    def blocks(self, full: int) -> int:
        """``full`` blocks per chip scaled down."""
        return max(MIN_BLOCKS_PER_CHIP, round(full * self.blocks_factor))


SCALES = {
    scale.name: scale
    for scale in (
        # The measured size: 3.5 to 10 s per run on a 2-vCPU x86_64 VM,
        # so four runs of each workload fit BENCHMARK.json's time limits.
        # Requests and blocks are both half of a 200k-request study,
        # which keeps the write amplification of that size (README,
        # "Workloads").
        Scale("full", 1.0, 1.0, timeout_s=60.0),
        # well under a second per run, for the self-tests.  The device
        # shrinks less than the request count: PPB's four open blocks
        # thrash GC on a 32-block chip.
        Scale("smoke", 0.04, 0.25, timeout_s=60.0),
    )
}

#: the workloads, in the order a round runs them.
WORKLOADS = ("ppb-websql-seq", "dftl-writes-timed", "planes-closed-timed", "faults-timed")


def build_spec(workload: str, scale: Scale, seed: int) -> Any:
    """The :class:`ScenarioSpec` of ``workload`` at ``scale`` and ``seed``."""
    from repro.ftl.transmap import MappingConfig
    from repro.nand.spec import sim_spec
    from repro.reliability.faults import FaultSpec
    from repro.reliability.manager import ReliabilityConfig
    from repro.reliability.retention import SECONDS_PER_HOUR
    from repro.scenario.spec import PreconditionPhase, ScenarioSpec
    from repro.sim.arrival import ArrivalSpec

    requests = scale.requests()
    if workload == "ppb-websql-seq":
        return ScenarioSpec(
            workload="web-sql",
            num_requests=requests,
            seed=seed,
            ftl="ppb",
            device=sim_spec(blocks_per_chip=scale.blocks(256)),
        )
    if workload == "dftl-writes-timed":
        return ScenarioSpec(
            workload="pattern-suite",
            num_requests=requests,
            workload_kwargs={
                "phases": "mixed:zipf | mixed:rand",
                "read_fraction": 0.3,
                "trim_fraction": 0.1,
            },
            seed=seed,
            device=sim_spec(blocks_per_chip=scale.blocks(128)),
            ftl="dftl",
            mapping=MappingConfig(cache_ratio=0.05),
            precondition=(
                PreconditionPhase(
                    workload="uniform",
                    num_requests=scale.requests(REQUESTS // 2),
                    workload_kwargs={"read_fraction": 0.0},
                ),
            ),
            mode="timed",
            arrival=ArrivalSpec(mode="closed", queue_depth=4),
        )
    if workload == "planes-closed-timed":
        return ScenarioSpec(
            workload="web-sql",
            num_requests=requests,
            seed=seed,
            device=sim_spec(
                blocks_per_chip=scale.blocks(64),
                num_chips=4,
                num_channels=2,
                planes_per_chip=2,
            ),
            mode="timed",
            arrival=ArrivalSpec(mode="closed", queue_depth=64),
        )
    if workload == "faults-timed":
        # The `repro perf` reliability/fault-injection case, at this
        # benchmark's size and spelled out so the benchmark does not move
        # when that case does.
        return ScenarioSpec(
            workload="web-sql",
            num_requests=requests,
            seed=seed,
            device=sim_spec(blocks_per_chip=scale.blocks(64), num_chips=4, num_channels=2),
            reliability=ReliabilityConfig(
                disturb_coeff=8.0,
                refresh_disturb_reads=2_000,
                state_skew=2.0,
                randomizer=0.5,
                refresh_triage="holds",
            ),
            refresh=True,
            retention_age_s=24.0 * SECONDS_PER_HOUR,
            faults=FaultSpec(rate=0.005, burst=4, target="mixed"),
            mode="timed",
            arrival=ArrivalSpec(queue_depth=64, scale=8.0),
        )
    raise KeyError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")


def pages_of(spec: Any, result: Any) -> int:
    """Page operations a run performs: warm-fill programs, host read and
    write pages and GC copies (the ``repro perf`` definition)."""
    stats = result.ftl.stats
    warm = int(spec.device.logical_pages * spec.effective_warm_fill)
    return warm + stats.host_read_pages + stats.host_write_pages + stats.gc_copied_pages


def digest(spec: Any, result: Any) -> dict[str, int | float]:
    """Every simulated quantity of a run that a speed change must keep.

    Named metrics first (their meaning is in perfbench/README.md), then
    the result's raw extras (``ppb.*``, ``cmt.*``, ``faults.*``, ...).
    """
    from repro.reliability.manager import ReliabilityStats

    ftl = result.ftl
    stats = ftl.stats
    extra = result.extra
    manager = getattr(ftl, "reliability", None)
    reliability = manager.stats if manager is not None else ReliabilityStats()
    host_ops = stats.host_read_pages + stats.host_write_pages
    lookups = extra.get("cmt.hits", 0.0) + extra.get("cmt.misses", 0.0)
    trans_ops = extra.get("trans.reads", 0.0) + extra.get("trans.writes", 0.0)
    fast_fraction = getattr(ftl, "fast_page_read_fraction", None)
    percentiles = result.class_response_percentiles()
    out: dict[str, int | float] = {
        "requests": result.num_requests,
        "pages": pages_of(spec, result),
        "ftl.host_read_pages": stats.host_read_pages,
        "ftl.host_write_pages": stats.host_write_pages,
        "ftl.trimmed_pages": stats.trimmed_pages,
        "ftl.gc_copied_pages": stats.gc_copied_pages,
        "ftl.erase_count": stats.erase_count,
        "ftl.waf": stats.write_amplification,
        "ftl.cmt_hit_ratio": extra.get("cmt.hits", 0.0) / lookups if lookups else 0.0,
        "ftl.trans_ops_per_host_op": trans_ops / host_ops if host_ops else 0.0,
        "core.fast_read_fraction": fast_fraction() if fast_fraction else 0.0,
        "core.migrations": extra.get("ppb.migrations", 0.0),
        "reliability.retry_steps_per_read": reliability.mean_retries_per_read,
        "reliability.refresh_copies": reliability.refresh_copied_pages,
        "reliability.faults_injected": extra.get("faults.injected_reads", 0.0),
        "reliability.uncorrectable_reads": reliability.uncorrectable_reads,
        "sim.simulated_s": result.simulated_us / 1e6,
        "sim.kiops": result.throughput_kiops,
        "sim.read_p50_us": percentiles.get("read", {}).get("p50_us", 0.0),
        "sim.read_p99_us": percentiles.get("read", {}).get("p99_us", 0.0),
        "sim.write_p99_us": percentiles.get("write", {}).get("p99_us", 0.0),
        "sim.util_max": max(
            extra.get("timed.chip_util_max", 0.0), extra.get("timed.plane_util_max", 0.0)
        ),
        "sim.bus_util_max": extra.get("timed.bus_util_max", 0.0),
        "sim.wait_us": sum(
            extra.get(key, 0.0)
            for key in ("timed.chip_wait_us", "timed.bus_wait_us", "timed.plane_wait_us")
        ),
        "sim.admission_wait_us": extra.get("timed.admission_wait_us", 0.0),
        "sim.read_s": result.read_seconds,
        "sim.write_s": result.write_seconds,
    }
    for key, value in sorted(extra.items()):
        out[f"extra.{key}"] = value
    return out


def digest_mismatches(
    expected: dict[str, Any], actual: dict[str, Any], rel_tol: float = 1e-9
) -> list[str]:
    """How ``actual`` differs from ``expected`` (empty when they agree).

    Integers must match exactly; floats to ``rel_tol``, so a change that
    only reorders float sums passes and any other model change fails.
    Keys ``actual`` has beyond ``expected`` are not compared.
    """
    problems = []
    for key, want in expected.items():
        if key not in actual:
            problems.append(f"{key}: missing")
            continue
        got = actual[key]
        if isinstance(want, int) and isinstance(got, int):
            same = want == got
        else:
            same = math.isclose(want, got, rel_tol=rel_tol, abs_tol=0.0)
        if not same:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems
