"""Generic reports for declarative scenario runs and sweeps.

A config-file sweep can vary *anything*, so this report derives its
columns from the data: one column per sweep axis (the dotted path's
last segment), then the metrics every replay produces, plus a column
group only when some scenario calls for it — the two-phase re-read
metrics, the reliability stack's retry and refresh costs, PPB's
fast-page share and reliability diverts, queueing percentiles, and so
on.  ``reliability_sweep.toml`` and ``placement_frontier.toml`` are
rendered by this one table; deltas *across* rows (retention penalty,
share of it refresh recovered) are left to the reader.
"""

from __future__ import annotations

from repro.analysis.tables import ascii_table, format_pct
from repro.scenario.memo import ReplayMemoStats
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import SweepAxis, axis_values
from repro.sim.ssd import RunResult


def _fmt_axis(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _mapping_hit_ratio(extra: dict) -> float:
    """CMT hit ratio over the replay (1.0 when the cache never missed)."""
    hits = extra.get("cmt.hits", 0.0)
    misses = extra.get("cmt.misses", 0.0)
    return hits / (hits + misses) if hits + misses else 1.0


def summarize_result(spec: ScenarioSpec, result: RunResult) -> str:
    """Multi-line digest of one scenario run (the ``scenario run`` view)."""
    ftl = result.ftl  # type: ignore[attr-defined]
    lines = [
        f"scenario          {spec.describe()}",
        f"trace             {result.trace_name} ({result.num_requests} requests)",
        f"mean read         {result.mean_read_page_us:.2f} us/page",
        f"mean write        {result.mean_write_page_us:.2f} us/page",
        f"host read total   {ftl.stats.host_read_us / 1e6:.3f} s",
        f"host write total  {ftl.stats.host_write_us / 1e6:.3f} s",
        f"gc total          {ftl.stats.gc_us / 1e6:.3f} s",
        f"erased blocks     {ftl.stats.erase_count}",
        f"write amp.        {ftl.stats.write_amplification:.3f}",
    ]
    if hasattr(ftl, "fast_page_read_fraction"):
        lines.append(f"fast-half reads   {ftl.fast_page_read_fraction():.3f}")
    if spec.ftl == "dftl":
        extra = ftl.stats.extra
        lines.append(f"map cache hits    {_mapping_hit_ratio(extra):.3f}")
        lines.append(
            "trans reads/writes"
            f" {int(extra.get('trans.reads', 0))}/{int(extra.get('trans.writes', 0))}"
        )
    if spec.reliability is not None:
        rel = ftl.reliability.stats
        lines.append(f"retries/read      {rel.mean_retries_per_read:.3f}")
        lines.append(f"uncorrectable     {rel.uncorrectable_reads}")
        if spec.refresh:
            lines.append(f"refreshed blocks  {rel.refresh_runs}")
        if spec.faults is not None and spec.faults.rate > 0:
            extra = rel.extra
            lines.append(
                f"injected faults   {int(extra.get('injected.reads', 0))} "
                f"({int(extra.get('injected.uncorrectable', 0))} uncorrectable, "
                f"{int(extra.get('injected.storms', 0))} storms)"
            )
        if spec.reliability.refresh_triage == "holds":
            extra = rel.extra
            lines.append(
                f"triage savings    "
                f"{int(extra.get('triage.skipped_blocks', 0))} blocks, "
                f"{int(extra.get('triage.saved_pages', 0))} live pages spared"
            )
    if spec.reread_age_s > 0:
        lines.append(
            f"fresh read        {result.extra['phase1.mean_read_page_us']:.2f} us/page"
        )
        lines.append(
            f"aged re-read      {result.mean_read_page_us:.2f} us/page "
            f"(+{result.extra['reread.retries_per_read']:.2f} retries/read)"
        )
    if result.trim_requests:
        lines.append(
            f"trims             {result.trim_requests} requests, "
            f"{ftl.stats.trimmed_pages} pages invalidated"
        )
    for name, count in result.tenant_requests.items():
        service_s = result.tenant_service_us.get(name, 0.0) / 1e6
        lines.append(
            f"tenant {name:<11}{count} requests, {service_s:.3f} s service"
        )
    lines += timed_summary_lines(result)
    return "\n".join(lines)


def timed_summary_lines(result: RunResult) -> list[str]:
    """The timed-mode digest lines: overall and per-class response
    percentiles, throughput and device utilization; empty for
    sequential results.
    """
    percentiles = result.response_percentiles()
    if not percentiles:
        return []
    lines = [
        "response time     "
        f"p50 {percentiles['p50_us']:.0f} us, "
        f"p95 {percentiles['p95_us']:.0f} us, "
        f"p99 {percentiles['p99_us']:.0f} us"
    ]
    for cls, values in result.class_response_percentiles().items():
        lines.append(
            f"{cls + ' responses':<18}"
            f"p50 {values['p50_us']:.0f} us, "
            f"p95 {values['p95_us']:.0f} us, "
            f"p99 {values['p99_us']:.0f} us"
        )
    if result.simulated_us > 0:
        lines.append(
            f"throughput        {result.throughput_kiops:.2f} kIOPS "
            f"({result.simulated_us / 1e6:.3f} s simulated)"
        )
    for name, values in result.tenant_response_percentiles().items():
        lines.append(
            f"{'tenant ' + name:<18}"
            f"p50 {values['p50_us']:.0f} us, "
            f"p95 {values['p95_us']:.0f} us, "
            f"p99 {values['p99_us']:.0f} us"
        )
    util = result.extra.get("timed.chip_util_mean")
    if util is not None:
        lines.append(
            f"chip utilization  mean {util:.2f}, "
            f"max {result.extra['timed.chip_util_max']:.2f} "
            f"(bus max {result.extra['timed.bus_util_max']:.2f})"
        )
    plane_util = result.extra.get("timed.plane_util_mean")
    if plane_util is not None:
        lines.append(
            f"plane utilization mean {plane_util:.2f}, "
            f"max {result.extra['timed.plane_util_max']:.2f}"
        )
    return lines


def sweep_table(
    specs: list[ScenarioSpec],
    results: list[RunResult],
    axes: list[SweepAxis] | tuple[SweepAxis, ...],
    memo: ReplayMemoStats | None = None,
    title: str = "",
) -> str:
    """Render an expanded sweep as a derived-column table."""
    axes = list(axes)
    any_reliability = any(s.reliability is not None for s in specs)
    any_faults = any(s.faults is not None and s.faults.rate > 0 for s in specs)
    any_triage = any(
        s.reliability is not None and s.reliability.refresh_triage == "holds"
        for s in specs
    )
    any_reread = any(s.reread_age_s > 0 for s in specs)
    # Retry latency per read page: read minus it is the latency-only
    # read cost (a two-phase row's read mixes both phases, so it gets
    # none).
    any_retry_cost = any(
        s.reliability is not None and s.reread_age_s == 0 for s in specs
    )
    any_refresh = any(s.refresh for s in specs)
    any_ppb = any(s.ftl == "ppb" for s in specs)
    any_diverts = any(
        s.ftl == "ppb" and s.ppb is not None and s.ppb.reliability_weight > 0
        for s in specs
    )
    any_timed = any(s.mode == "timed" for s in specs)
    any_closed = any(
        s.mode == "timed" and s.effective_arrival.is_closed for s in specs
    )
    any_mapping = any(s.ftl == "dftl" for s in specs)
    any_trim = any(r.trim_requests for r in results)
    tenant_names: list[str] = []
    if any_timed:
        for spec in specs:  # union of tenant names, first-appearance order
            for tenant in spec.tenants:
                if tenant.name not in tenant_names:
                    tenant_names.append(tenant.name)
    headers = [axis.label for axis in axes]
    if not axes:
        headers = ["scenario"]
    if any_reread:
        headers += ["fresh rd (us/pg)", "aged rd (us/pg)"]
    else:
        headers += ["read (us/pg)"]
    headers += ["write (us/pg)", "erases", "WAF"]
    if any_trim:
        headers += ["trims"]
    if any_timed:
        # The queueing view: response-time percentiles per request
        # class, plus the replay's throughput.
        headers += ["rd p50", "rd p95", "rd p99", "wr p50", "wr p95", "wr p99", "kIOPS"]
    if any_closed:
        # The saturation view: closed-loop throughput, tagged with the
        # population that produced it.
        headers += ["KIOPS@QD"]
    for name in tenant_names:
        # The isolation view: each tenant's own response-time tail.
        headers += [f"{name} p50", f"{name} p99"]
    if any_mapping:
        # The demand-paged mapping view: CMT hit ratio, and translation
        # flash traffic normalized per host page operation.
        headers += ["map hit", "trd/rd", "twr/wr"]
    if any_reliability:
        headers += ["retries/rd", "uncorr"]
    if any_retry_cost:
        headers += ["retry us/pg"]
    if any_refresh:
        headers += ["refr blk"]
    if any_faults:
        headers += ["inj"]
    if any_triage:
        # Refresh-triage savings: live pages the holds-aware due test
        # spared from relocation copies.
        headers += ["spared pg"]
    if any_ppb:
        headers += ["fast rd"]
    if any_diverts:
        headers += ["diverts"]
    rows: list[list[object]] = []
    for spec, result in zip(specs, results):
        ftl = result.ftl  # type: ignore[attr-defined]
        if axes:
            row: list[object] = [_fmt_axis(v) for v in axis_values(spec, axes)]
        else:
            row = [spec.describe()]
        if any_reread:
            if spec.reread_age_s > 0:
                row += [
                    f"{result.extra['phase1.mean_read_page_us']:.1f}",
                    f"{result.mean_read_page_us:.1f}",
                ]
            else:
                row += [f"{result.mean_read_page_us:.1f}", "-"]
        else:
            row += [f"{result.mean_read_page_us:.1f}"]
        row += [
            f"{result.mean_write_page_us:.1f}",
            ftl.stats.erase_count,
            f"{ftl.stats.write_amplification:.2f}",
        ]
        if any_trim:
            row.append(result.trim_requests if result.trim_requests else "-")
        if any_timed:
            if spec.mode == "timed":
                per_class = result.class_response_percentiles()
                for cls in ("read", "write"):
                    values = per_class.get(cls)
                    for key in ("p50_us", "p95_us", "p99_us"):
                        row.append(f"{values[key]:.0f}" if values else "-")
                row.append(f"{result.throughput_kiops:.2f}")
            else:
                row += ["-"] * 7
        if any_closed:
            arrival = spec.effective_arrival
            if spec.mode == "timed" and arrival.is_closed:
                row.append(
                    f"{result.throughput_kiops:.2f}@{arrival.queue_depth}"
                )
            else:
                row.append("-")
        if tenant_names:
            per_tenant = result.tenant_response_percentiles()
            for name in tenant_names:
                values = per_tenant.get(name)
                row.append(f"{values['p50_us']:.0f}" if values else "-")
                row.append(f"{values['p99_us']:.0f}" if values else "-")
        if any_mapping:
            if spec.ftl == "dftl":
                extra = ftl.stats.extra
                reads = ftl.stats.host_read_pages
                writes = ftl.stats.host_write_pages
                row += [
                    f"{_mapping_hit_ratio(extra):.3f}",
                    f"{extra.get('trans.reads', 0.0) / reads:.2f}" if reads else "-",
                    f"{extra.get('trans.writes', 0.0) / writes:.2f}" if writes else "-",
                ]
            else:
                row += ["-", "-", "-"]
        rel = ftl.reliability.stats if spec.reliability is not None else None
        if any_reliability:
            if rel is not None:
                retries = (
                    result.extra["reread.retries_per_read"]
                    if spec.reread_age_s > 0
                    else rel.mean_retries_per_read
                )
                row += [f"{retries:.2f}", rel.uncorrectable_reads]
            else:
                row += ["-", "-"]
        if any_retry_cost:
            reads = ftl.stats.host_read_pages
            if rel is not None and spec.reread_age_s == 0 and reads:
                row.append(f"{rel.retry_us / reads:.1f}")
            else:
                row.append("-")
        if any_refresh:
            row.append(rel.refresh_runs if rel is not None and spec.refresh else "-")
        if any_faults:
            if spec.faults is not None and spec.faults.rate > 0:
                row.append(int(result.extra.get("faults.injected_reads", 0)))
            else:
                row.append("-")
        if any_triage:
            if (
                spec.reliability is not None
                and spec.reliability.refresh_triage == "holds"
            ):
                row.append(int(result.extra.get("refresh.triage_saved_pages", 0)))
            else:
                row.append("-")
        if any_ppb:
            row.append(
                format_pct(ftl.fast_page_read_fraction()) if spec.ftl == "ppb" else "-"
            )
        if any_diverts:
            row.append(
                int(ftl.stats.extra.get("ppb.reliability_diverts", 0))
                if spec.ftl == "ppb"
                else "-"
            )
        rows.append(row)
    parts = []
    if title:
        parts.append(f"== {title} ==")
    parts.append(ascii_table(headers, rows))
    if memo is not None:
        # Trace builds are not printed: pool workers build their own,
        # so the count would differ between --workers settings.
        parts.append(f"{memo.misses} replays run, {memo.hits} served from memo")
    return "\n".join(parts)
