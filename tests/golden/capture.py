"""Golden-run capture: pin the simulator's exact numbers to a file.

Run as a script to (re)generate ``golden_runs.json``::

    PYTHONPATH=src python tests/golden/capture.py

The file pins every externally-visible aggregate of a matrix of small
replays — all three FTLs, with and without the reliability stack, the
two-phase re-read harness, and one timed-mode run.  The golden tests
(:mod:`tests.golden.test_golden_equivalence`) replay the same matrix
and assert byte-for-byte float equality, which is what lets the
hot-path optimizations claim *result equivalence* rather than just
"close enough".

The committed file was generated by the pre-optimization simulator
(PR 2 state, commit d12faf1); regenerate it only when a change is
*meant* to alter simulation results, and say so in the PR.
"""

from __future__ import annotations

import json
import os

from repro.ftl.transmap import MappingConfig
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.scenario.memo import ReplayRunner
from repro.scenario.spec import PreconditionPhase, ScenarioSpec, TenantSpec
from repro.sim.arrival import ArrivalSpec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_runs.json")

#: hours -> seconds (kept literal so the capture file stands alone).
HOUR_S = 3600.0


def golden_specs() -> "dict[str, ScenarioSpec]":
    """The replay matrix the goldens pin (small but GC/refresh-active)."""
    base = ScenarioSpec(
        workload="web-sql",
        num_requests=3_000,
        device=sim_spec(blocks_per_chip=64),
        seed=42,
    )
    # read disturb on, and gating refresh (the placement-study stack)
    rel = ReliabilityConfig(disturb_coeff=8.0, refresh_disturb_reads=2_000)
    specs: dict[str, ScenarioSpec] = {}
    for ftl in ("conventional", "fast", "ppb"):
        specs[f"{ftl}/latency-only"] = base.with_(ftl=ftl)
        specs[f"{ftl}/reliability"] = base.with_(
            ftl=ftl,
            reliability=rel,
            refresh=True,
            retention_age_s=24.0 * HOUR_S,
        )
        specs[f"{ftl}/reread"] = base.with_(
            ftl=ftl,
            reliability=rel,
            refresh=True,
            reread_age_s=720.0 * HOUR_S,
        )
    # A plain-default reliability config (no disturb) for coverage of the
    # disturb-disabled fast path, and the uniform null model which must
    # match the latency-only numbers exactly.
    specs["conventional/reliability-nodisturb"] = base.with_(
        reliability=ReliabilityConfig(),
        refresh=True,
        retention_age_s=720.0 * HOUR_S,
    )
    specs["conventional/reliability-null"] = base.with_(
        reliability=ReliabilityConfig.null()
    )
    # The demand-paged mapper.  A constrained cache so translation
    # reads, batch evictions and translation-block GC are all live in
    # the run.
    dftl_base = base.with_(
        ftl="dftl",
        mapping=MappingConfig(cache_ratio=0.05, entries_per_page=256),
    )
    specs["dftl/mapping-cache"] = dftl_base
    specs["dftl/reliability"] = dftl_base.with_(
        reliability=rel,
        refresh=True,
        retention_age_s=24.0 * HOUR_S,
    )
    # TRIM through every FTL: a pattern-suite program that fills, then
    # discards, then runs a mixed read/write/trim steady state — so
    # trims hit live mappings (invalidate-without-program), GC reclaims
    # trimmed space, and DFTL pays translation traffic for them.
    trim_base = base.with_(
        workload="pattern-suite",
        workload_kwargs=(("phases", "write:seq | trim:rand*0.5 | mixed:zipf"),),
    )
    for ftl in ("conventional", "fast", "ppb"):
        specs[f"{ftl}/trim"] = trim_base.with_(ftl=ftl)
    specs["dftl/trim"] = trim_base.with_(
        ftl="dftl",
        mapping=MappingConfig(cache_ratio=0.05, entries_per_page=256),
    )
    # Fault injection under load: state-aware skew, holds-aware refresh
    # triage and a deterministic mixed fault storm through the
    # channel-parallel timed engine — pins the injected schedule, the
    # recovery op-log routing and the triage savings exactly.
    from repro.reliability.faults import FaultSpec

    faulted = ScenarioSpec(
        workload="web-sql",
        num_requests=1_500,
        device=sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2),
        seed=42,
        reliability=rel.replace(
            state_skew=2.0, randomizer=0.5, refresh_triage="holds"
        ),
        refresh=True,
        retention_age_s=24.0 * HOUR_S,
        faults=FaultSpec(rate=0.01, burst=4, target="mixed"),
        mode="timed",
        arrival=ArrivalSpec(queue_depth=32, scale=8.0),
    )
    for ftl in ("conventional", "ppb"):
        specs[f"{ftl}/faults-timed"] = faulted.with_(ftl=ftl)
    # Multi-tenant isolation through the channel-parallel timed engine,
    # with a steady-state preconditioning phase: pins partition layout,
    # the timestamp merge, per-tenant accounting and percentiles.
    specs["tenants/timed-multichip"] = ScenarioSpec(
        num_requests=1,  # ignored: tenants carry their own budgets
        device=sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2),
        seed=42,
        tenants=(
            TenantSpec(name="db", workload="web-sql", num_requests=900),
            TenantSpec(
                name="logger",
                workload="uniform",
                num_requests=600,
                workload_kwargs=(("read_fraction", 0.05),),
                share=0.5,
            ),
        ),
        precondition=(PreconditionPhase(workload="uniform", num_requests=1_000),),
        mode="timed",
        arrival=ArrivalSpec(queue_depth=32, scale=8.0),
    )
    return specs


def summarize(result) -> dict:
    """Every externally-visible aggregate of one replay, JSON-ready."""
    ftl = result.ftl
    summary = {
        "num_requests": result.num_requests,
        "read_requests": result.read_requests,
        "write_requests": result.write_requests,
        "read_us": result.read_us,
        "write_us": result.write_us,
        "gc_us": result.gc_us,
        "erase_count": result.erase_count,
        "gc_copied_pages": result.gc_copied_pages,
        "write_amplification": result.write_amplification,
        "mean_read_page_us": result.mean_read_page_us,
        "mean_write_page_us": result.mean_write_page_us,
        "extra": {k: result.extra[k] for k in sorted(result.extra)},
        "ftl_stats": ftl.stats.snapshot(),
    }
    if getattr(ftl, "reliability", None) is not None:
        summary["reliability_stats"] = ftl.reliability.stats.snapshot()
    # Conditional keys only: runs without trims or tenants keep the
    # exact key set (and bytes) the pre-TRIM goldens pinned.
    if result.trim_requests:
        summary["trim_requests"] = result.trim_requests
        summary["trim_us"] = result.trim_us
    if result.tenant_requests:
        summary["tenant_requests"] = {
            k: result.tenant_requests[k] for k in sorted(result.tenant_requests)
        }
        summary["tenant_service_us"] = {
            k: result.tenant_service_us[k] for k in sorted(result.tenant_service_us)
        }
        percentiles = result.tenant_response_percentiles()
        if percentiles:
            summary["tenant_response_percentiles"] = {
                k: percentiles[k] for k in sorted(percentiles)
            }
    return summary


def capture() -> dict:
    """Run the matrix and return the golden payload."""
    runner = ReplayRunner()
    payload: dict = {"_comment": "generated by tests/golden/capture.py", "runs": {}}
    for name, spec in sorted(golden_specs().items()):
        payload["runs"][name] = summarize(runner.run(spec))
    # One timed-mode replay: exercises the DES queueing path and the
    # response-time percentiles.  Single chip, single channel — this is
    # the PRE-REFACTOR capacity-1 device model, which the PR 5
    # channel-parallel engine must keep byte-identical.
    from repro.scenario.run import execute_scenario

    spec = ScenarioSpec(
        workload="web-sql",
        num_requests=1_500,
        device=sim_spec(blocks_per_chip=64),
        mode="timed",
    )
    result = execute_scenario(spec, runner.trace_for(spec))
    timed = summarize(result)
    timed["response_times_us"] = list(result.response_times_us)
    payload["runs"]["conventional/timed"] = timed
    # And one channel-parallel timed replay (PR 5 engine): pins the
    # multi-chip overlay — chip/bus queueing, the bounded host queue and
    # the arrival-intensity scale — so future engine work is held to the
    # same exact-equality bar.
    multi = ScenarioSpec(
        workload="web-sql",
        num_requests=1_500,
        device=sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2),
        mode="timed",
        arrival=ArrivalSpec(queue_depth=32, scale=8.0),
    )
    result = execute_scenario(multi, runner.trace_for(multi))
    timed = summarize(result)
    timed["response_times_us"] = list(result.response_times_us)
    timed["simulated_us"] = result.simulated_us
    payload["runs"]["conventional/timed-multichip"] = timed
    # The plane overlay: the same channel-parallel device with two
    # planes per chip — pins the per-plane resource model, the striped
    # per-plane append points and multi-plane command fusion.
    planes = multi.with_(
        device=sim_spec(
            blocks_per_chip=16, num_chips=4, num_channels=2, planes_per_chip=2
        ),
    )
    result = execute_scenario(planes, runner.trace_for(planes))
    timed = summarize(result)
    timed["response_times_us"] = list(result.response_times_us)
    timed["simulated_us"] = result.simulated_us
    payload["runs"]["conventional/timed-planes"] = timed
    # The closed arrival discipline on that device: a fixed QD=32
    # population — pins the admission loop and the saturation numbers.
    closed = planes.with_(arrival=ArrivalSpec(mode="closed", queue_depth=32))
    result = execute_scenario(closed, runner.trace_for(closed))
    timed = summarize(result)
    timed["response_times_us"] = list(result.response_times_us)
    timed["simulated_us"] = result.simulated_us
    payload["runs"]["conventional/timed-closed"] = timed
    return payload


def main() -> None:
    payload = capture()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(payload['runs'])} golden runs)")


if __name__ == "__main__":
    main()
