"""Scenario execution: build device + FTL + SSD, fill, age, replay.

This is the one code path every experiment funnels through:
:func:`build_trace` generates the request stream and
:func:`execute_scenario` replays it on a fresh device.  The memoized
:class:`~repro.scenario.memo.ReplayRunner` — what
:func:`~repro.scenario.memo.run_scenario`, the sweeps and the CLI use —
calls both, caching traces and results keyed on the
:class:`~repro.scenario.spec.ScenarioSpec` itself.
"""

from __future__ import annotations

import heapq

from repro.errors import ConfigError
from repro.ftl.base import BaseFTL
from repro.nand.device import NandDevice
from repro.reliability.manager import ReliabilityManager
from repro.reliability.refresh import RefreshPolicy
from repro.scenario.spec import PreconditionPhase, ScenarioSpec
from repro.sim.replay import make_ftl
from repro.sim.ssd import SSD, RunResult
from repro.traces.msr import read_msr_csv
from repro.traces.record import IORequest, Trace
from repro.traces.workloads import WORKLOADS, SyntheticWorkload


def _make_generator(
    workload: str,
    num_requests: int,
    footprint_bytes: int,
    seed: int,
    kwargs: tuple[tuple[str, object], ...],
    owner: str,
) -> SyntheticWorkload:
    """Instantiate a registered workload, naming bad kwargs like a path."""
    try:
        return WORKLOADS[workload](
            num_requests=num_requests,
            footprint_bytes=footprint_bytes,
            seed=seed,
            **dict(kwargs),
        )
    except TypeError as exc:
        # A misspelled workload_kwargs key is a config mistake, not a
        # programming error: name it like every other bad dotted path.
        raise ConfigError(
            f"{owner} not accepted by workload {workload!r}: {exc}"
        ) from None


def build_trace(spec: ScenarioSpec) -> Trace:
    """Generate (or load) the trace a scenario replays.

    Deterministic in :meth:`ScenarioSpec.trace_key`: the trace depends
    only on the workload, its size/seed/kwargs and the footprint — not
    on the FTL, device timing or reliability knobs — so every variant at
    one sweep point replays the byte-identical request stream.

    With ``spec.tenants`` set, each tenant's generator runs over its own
    LBA partition (sized by share, see
    :meth:`ScenarioSpec.tenant_partitions`) and the per-tenant streams
    merge by timestamp into one interleaved trace.
    """
    if spec.trace_path is not None:
        return read_msr_csv(spec.trace_path)
    if spec.tenants:
        return _build_tenant_trace(spec)
    generator = _make_generator(
        spec.workload, spec.num_requests, spec.footprint_bytes,
        spec.seed, spec.workload_kwargs, "workload_kwargs",
    )
    return generator.generate()


def _build_tenant_trace(spec: ScenarioSpec) -> Trace:
    """Timestamp-merge per-tenant streams, each offset into its partition.

    Every tenant generates over a footprint equal to its partition size
    (so its pattern spans exactly its slice of the volume) with its own
    seed, then its offsets shift to the partition start.  A heap merge
    on timestamps interleaves the streams, modeling independent clients
    sharing one device.
    """
    partitions = spec.tenant_partitions()
    streams: list[list[IORequest]] = []
    for index, tenant in enumerate(spec.tenants):
        name, start, size = partitions[index]
        generator = _make_generator(
            tenant.workload, tenant.num_requests, size,
            spec.tenant_seed(index),
            tenant.workload_kwargs, f"tenants[{name!r}].workload_kwargs",
        )
        streams.append(
            [r.shifted(start) for r in generator.generate().requests]
        )
    merged = list(heapq.merge(*streams, key=lambda r: r.timestamp_us))
    return Trace(merged, name=f"tenants-s{spec.seed}")


def execute_scenario(spec: ScenarioSpec, trace: Trace) -> RunResult:
    """Run one scenario on a fresh device; returns the aggregate result.

    The trace is first fitted to the device's logical capacity (offsets
    wrap), then the device is aged by a sequential warm fill so garbage
    collection is active from the start — matching how trace-driven
    flash studies precondition devices.  ``spec.precondition`` phases
    run after the warm fill (stats discarded), steering the device into
    a workload-specific steady state before measurement begins.  With
    ``spec.tenants`` set, the replay attributes every request to the
    tenant whose LBA partition it falls in, so the result carries
    per-tenant counts, service time and (timed modes) response-time
    percentiles.

    With ``spec.reliability`` set, a :class:`ReliabilityManager` (and,
    when ``spec.refresh`` is true, a :class:`RefreshPolicy`) attaches to
    the FTL; ``spec.retention_age_s`` then pre-ages the warm-filled
    data, modeling a device that sat powered off for that long before
    the replay.  The manager is exposed on the result's FTL as
    ``ftl.reliability``.

    ``spec.reread_age_s`` adds a second phase: after the replay, the
    device shelf-ages by that much and the trace's *reads* run again.
    The returned result then describes the re-read phase (its
    ``mean_read_page_us`` is the aged-read service time; the fresh
    phase's mean survives in ``extra["phase1.mean_read_page_us"]``, and
    the phase's retry accounting in ``extra["reread.*"]``).  This is the
    retention A/B harness: a replay alone cannot measure what placement
    costs once its data has rotted, because simulated time advances only
    by operation latencies.
    """
    device = NandDevice(spec.device)
    manager = (
        ReliabilityManager(device, spec.reliability, faults=spec.faults)
        if spec.reliability
        else None
    )
    policy = RefreshPolicy(manager) if (manager is not None and spec.refresh) else None
    ftl = make_ftl(spec.ftl, device, spec.ppb, manager, policy, spec.mapping)
    ssd = SSD(ftl, spec.device.page_size)
    fitted = trace.fit_to(ssd.capacity_bytes)
    if spec.effective_warm_fill > 0:
        ssd.warm_fill(spec.effective_warm_fill)
    for index, phase in enumerate(spec.precondition):
        _precondition(ssd, spec, phase, index)
    if manager is not None:
        manager.reset_stats()
        if spec.retention_age_s > 0:
            manager.age_all(spec.retention_age_s)
    result = ssd.replay(
        fitted,
        mode=spec.mode,
        arrival=spec.effective_arrival,
        tenants=spec.tenant_partitions(),
    )
    if spec.reread_age_s > 0:
        result = _reread_aged(ssd, ftl, manager, fitted, result, spec)
    result.ftl = ftl  # type: ignore[attr-defined]  # exposed for reports
    return result


def _precondition(
    ssd: SSD, spec: ScenarioSpec, phase: PreconditionPhase, index: int
) -> None:
    """Replay one steady-state preconditioning phase, discarding stats.

    The phase's workload runs over the *full* footprint (tenant
    partitions do not bound preconditioning — the goal is device-wide
    steady state), then the FTL's stats reset so the measured replay
    starts clean but on an aged device.
    """
    generator = _make_generator(
        phase.workload, phase.num_requests, spec.footprint_bytes,
        phase.seed if phase.seed >= 0 else spec.seed + 1000 + index,
        phase.workload_kwargs, f"precondition[{index}].workload_kwargs",
    )
    ssd.precondition(generator.generate().fit_to(ssd.capacity_bytes))


def _reread_aged(
    ssd: SSD,
    ftl: BaseFTL,
    manager: ReliabilityManager,
    fitted: Trace,
    fresh: RunResult,
    spec: ScenarioSpec,
) -> RunResult:
    """Shelf-age the device and replay the trace's reads (phase 2)."""
    manager.age_all(spec.reread_age_s)
    stats = ftl.stats
    read_us_before = stats.host_read_us
    read_pages_before = stats.host_read_pages
    rel = manager.stats
    checked_before = rel.checked_reads
    steps_before = rel.retry_steps
    retry_us_before = rel.retry_us
    reread = ssd.replay(
        fitted.reads_only(),
        mode=spec.mode,
        arrival=spec.effective_arrival,
    )
    pages = stats.host_read_pages - read_pages_before
    # ssd.replay finalizes means from the cumulative FTL stats; carve
    # out the phase-2 view so the aged-read cost is not diluted.
    reread.mean_read_page_us = (
        (stats.host_read_us - read_us_before) / pages if pages else 0.0
    )
    reread.extra["phase1.mean_read_page_us"] = fresh.mean_read_page_us
    checked = rel.checked_reads - checked_before
    reread.extra["reread.retries_per_read"] = (
        (rel.retry_steps - steps_before) / checked if checked else 0.0
    )
    reread.extra["reread.retry_us"] = rel.retry_us - retry_us_before
    return reread

