"""Perf harness: measure — and guard — the *simulator's own* speed.

Everything else under :mod:`repro.bench` reports simulated time; this
module reports wall-clock.  ``repro perf`` times the paper-figure
replays (one per FTL, on the CI bench-smoke geometry) plus a
reliability-stack replay, converts each into a pages-per-second
throughput, writes the ``BENCH_perf.json`` digest, and can gate against
a committed baseline: any case whose throughput regresses by more than
the tolerance fails the run.  That gate is the CI ``perf-smoke`` job,
so the hot-path work of this PR — and every future PR — stays measured
instead of anecdotal.

Throughput metric
-----------------
``pages_per_sec`` counts the *page operations the replay performs* —
warm-fill programs, host reads/writes, and GC/merge/refresh copy-backs
— divided by the wall-clock of the whole ``execute_scenario`` call
(device construction included).  It is a simulator-throughput number,
not a device-performance number.  The ``timed/queueing`` case runs the
channel-parallel DES engine at saturation, so the event kernel's own
speed is under the same regression gate as the FTL hot paths.

Baselines are hardware-dependent: regenerate with ``repro perf
--output BENCH_perf.json`` on the reference machine when a PR
intentionally changes simulator speed, and say so in the PR.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

from repro.bench.figures import BenchScale
from repro.bench.memo import ReplayRunner
from repro.errors import ConfigError
from repro.ftl.transmap import MappingConfig
from repro.reliability.faults import FaultSpec
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.reliability.retention import SECONDS_PER_HOUR
from repro.scenario.run import execute_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.arrival import ArrivalSpec

#: Environment switch shared with the bench suite: shrink everything
#: to CI-smoke size.
SMOKE_ENV = "REPRO_BENCH_SMOKE"

#: The committed baseline's filename (repo root); regenerate it only
#: deliberately, by passing it to --output explicitly.
BASELINE_REPORT = "BENCH_perf.json"

#: Default --output: a scratch name, so a casual `repro perf` run never
#: silently overwrites the committed baseline.
DEFAULT_REPORT = "bench-perf-current.json"

#: Throughput may regress by at most this fraction before the gate fails.
DEFAULT_TOLERANCE = 0.30

#: JSON schema version of the report.
SCHEMA = 1


#: The CI bench-smoke geometry (same trace the figure benches replay).
FULL_PERF = BenchScale("perf", num_requests=28_000, blocks_per_chip=160)
#: REPRO_BENCH_SMOKE geometry: fast enough for every-PR CI gating.
SMOKE_PERF = BenchScale("perf-smoke", num_requests=6_000, blocks_per_chip=96)


@dataclass(frozen=True)
class PerfCase:
    """One wall-clock-timed replay."""

    name: str
    spec: ScenarioSpec


@dataclass
class PerfMeasurement:
    """Wall-clock outcome of one case (best of ``repeats`` runs)."""

    name: str
    wall_s: float
    pages: int
    pages_per_sec: float


@dataclass
class PerfReport:
    """Everything one ``repro perf`` invocation measured."""

    scale: BenchScale
    repeats: int
    measurements: list[PerfMeasurement] = field(default_factory=list)

    def to_payload(self) -> dict:
        """JSON-ready digest (the ``BENCH_perf.json`` schema)."""
        return {
            "schema": SCHEMA,
            "scale": self.scale.name,
            "num_requests": self.scale.num_requests,
            "blocks_per_chip": self.scale.blocks_per_chip,
            "repeats": self.repeats,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "cases": {
                m.name: {
                    "wall_s": round(m.wall_s, 4),
                    "pages": m.pages,
                    "pages_per_sec": round(m.pages_per_sec, 1),
                }
                for m in self.measurements
            },
        }

    def render(self) -> str:
        """Human-readable table."""
        lines = [
            f"repro perf — {self.scale.name}: {self.scale.num_requests} reqs, "
            f"{self.scale.blocks_per_chip} blocks/chip, best of {self.repeats}",
            f"{'case':<28} {'wall (s)':>9} {'pages':>9} {'pages/s':>10}",
        ]
        for m in self.measurements:
            lines.append(
                f"{m.name:<28} {m.wall_s:>9.3f} {m.pages:>9} {m.pages_per_sec:>10.0f}"
            )
        return "\n".join(lines)


def perf_scale(smoke: bool | None = None) -> BenchScale:
    """The scale to run at; ``None`` consults :data:`SMOKE_ENV`."""
    if smoke is None:
        smoke = bool(os.environ.get(SMOKE_ENV))
    return SMOKE_PERF if smoke else FULL_PERF


def perf_cases(scale: BenchScale) -> list[PerfCase]:
    """The timed replay matrix: every FTL, plus the reliability stack."""
    # read disturb on, and gating refresh (the placement-study stack)
    rel = ReliabilityConfig(disturb_coeff=8.0, refresh_disturb_reads=2_000)
    base = ScenarioSpec(
        workload="web-sql",
        num_requests=scale.num_requests,
        device=sim_spec(blocks_per_chip=scale.blocks_per_chip),
    )
    cases = [
        PerfCase(f"figure/{ftl}", base.with_(ftl=ftl))
        for ftl in ("conventional", "fast", "ppb")
    ]
    cases.append(
        PerfCase(
            "reliability/refresh",
            base.with_(
                reliability=rel,
                refresh=True,
                retention_age_s=720.0 * SECONDS_PER_HOUR,
            ),
        )
    )
    # The demand-paged mapper under the gate: a constrained cache so the
    # CMT miss/evict/write-back machinery — not the full-cache fast path
    # — is what gets timed.
    cases.append(
        PerfCase(
            "dftl/mapping-cache",
            ScenarioSpec(
                workload="web-sql",
                num_requests=scale.num_requests,
                device=sim_spec(blocks_per_chip=scale.blocks_per_chip),
                ftl="dftl",
                mapping=MappingConfig(cache_ratio=0.05, entries_per_page=512),
            ),
        )
    )
    # The DES kernel itself under the gate: a saturated channel-parallel
    # timed replay (4 chips / 2 channels, same total block budget as the
    # figure cases so trace and GC pressure stay comparable).
    cases.append(
        PerfCase(
            "timed/queueing",
            ScenarioSpec(
                workload="web-sql",
                num_requests=scale.num_requests,
                device=sim_spec(
                    blocks_per_chip=max(24, scale.blocks_per_chip // 4),
                    num_chips=4,
                    num_channels=2,
                ),
                mode="timed",
                arrival=ArrivalSpec(queue_depth=64, scale=8.0),
            ),
        )
    )
    # The closed-loop driver under the gate: a fixed-population replay
    # on a multi-plane device, so admission bookkeeping, the per-plane
    # resource overlay and multi-plane command fusion are all timed.
    cases.append(
        PerfCase(
            "timed/closed-loop",
            ScenarioSpec(
                workload="web-sql",
                num_requests=scale.num_requests,
                device=sim_spec(
                    blocks_per_chip=max(24, scale.blocks_per_chip // 4),
                    num_chips=4,
                    num_channels=2,
                    planes_per_chip=2,
                ),
                mode="timed",
                arrival=ArrivalSpec(mode="closed", queue_depth=64),
            ),
        )
    )
    # The reliability-QoS loop under the gate: state-aware errors, a
    # deterministic mixed fault storm, holds-aware refresh triage and
    # queued driver recovery, all through the channel-parallel engine.
    cases.append(
        PerfCase(
            "reliability/fault-injection",
            ScenarioSpec(
                workload="web-sql",
                num_requests=scale.num_requests,
                device=sim_spec(
                    blocks_per_chip=max(24, scale.blocks_per_chip // 4),
                    num_chips=4,
                    num_channels=2,
                ),
                reliability=rel.replace(
                    state_skew=2.0, randomizer=0.5, refresh_triage="holds"
                ),
                refresh=True,
                retention_age_s=24.0 * SECONDS_PER_HOUR,
                faults=FaultSpec(rate=0.005, burst=4, target="mixed"),
                mode="timed",
                arrival=ArrivalSpec(queue_depth=64, scale=8.0),
            ),
        )
    )
    return cases


def _pages_of(result, scenario: ScenarioSpec) -> int:
    """Page operations the replay performed (see module docstring)."""
    ftl = result.ftl
    stats = ftl.stats
    warm_pages = int(scenario.device.logical_pages * scenario.effective_warm_fill)
    return int(
        warm_pages
        + stats.host_read_pages
        + stats.host_write_pages
        + stats.gc_copied_pages
    )


def measure_case(case: PerfCase, repeats: int = 2) -> PerfMeasurement:
    """Time one case; keeps the best (least-interfered) repeat."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    scenario = case.spec
    runner = ReplayRunner()
    trace = runner.trace_for(scenario)  # build outside the timed region
    best_wall = float("inf")
    pages = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute_scenario(scenario, trace)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            pages = _pages_of(result, scenario)
    return PerfMeasurement(
        name=case.name,
        wall_s=best_wall,
        pages=pages,
        pages_per_sec=pages / best_wall if best_wall > 0 else 0.0,
    )


def run_perf(
    scale: BenchScale | None = None,
    repeats: int = 2,
    cases: list[PerfCase] | None = None,
) -> PerfReport:
    """Measure the full case matrix."""
    scale = scale or perf_scale()
    if cases is None:
        cases = perf_cases(scale)
    report = PerfReport(scale=scale, repeats=repeats)
    for case in cases:
        report.measurements.append(measure_case(case, repeats=repeats))
    return report


# ----------------------------------------------------------------------
# Baseline gate
# ----------------------------------------------------------------------

def write_report(report: PerfReport, path: str) -> None:
    """Write the JSON digest."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_payload(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> dict:
    """Load a previously-written report."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload.get("cases"), dict):
        raise ConfigError(f"{path} is not a repro perf report (no 'cases')")
    return payload


def compare_to_baseline(
    report: PerfReport, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Regression check; returns human-readable failures (empty = pass).

    Only cases present in both reports are compared, and only when the
    scales match — a smoke run never gates against a full baseline.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigError(f"tolerance must be in [0, 1), got {tolerance}")
    failures: list[str] = []
    if baseline.get("scale") != report.scale.name:
        failures.append(
            f"baseline scale {baseline.get('scale')!r} != current "
            f"{report.scale.name!r}: regenerate the baseline"
        )
        return failures
    floor = 1.0 - tolerance
    cases = baseline["cases"]
    for m in report.measurements:
        base = cases.get(m.name)
        if base is None:
            continue
        base_pps = float(base.get("pages_per_sec", 0.0))
        if base_pps <= 0.0:
            continue
        ratio = m.pages_per_sec / base_pps
        if ratio < floor:
            failures.append(
                f"{m.name}: {m.pages_per_sec:.0f} pages/s is "
                f"{(1.0 - ratio) * 100.0:.0f}% below baseline "
                f"{base_pps:.0f} (tolerance {tolerance * 100.0:.0f}%)"
            )
    return failures


