"""Placement scenario: the speed-vs-lifetime frontier across FTLs.

Pure-speed PPB chases the paper's latency gains by parking the most
frequently *read* data on the fast bottom-layer pages — which the
reliability stack shows are also the most error-prone ones, and which
read disturb then hammers hardest.  The ``repro placement`` sweep
quantifies that trade-off over the plane

    page access speed difference (the paper's 2x-5x knob)
        x hotness skew of the workload (Zipf theta)

For every point it replays the same trace under all three FTLs
(conventional, FAST, PPB) with the reliability stack + refresh engine
attached, plus PPB at each requested ``reliability_weight`` — the
utility knob of :class:`~repro.core.placement.ReliabilityAwarePlacement`.
Weight 0 is pure-speed PPB; higher weights divert read-hot data off
fast pages when their predicted RBER-at-horizon outweighs the speed
gain.

Each replay is two-phase (the spec's ``reread_age_s``): the
*fresh* phase replays the trace on a fresh device — this is where the
placement policy acts, and its mean read latency is the *speed* side of
the frontier; then the device shelf-ages by ``retention_age_hours`` and
the trace's reads run again — the *aged* phase, whose mean read latency
and ECC retry cost are the *reliability* side, because by now the data
sits wherever phase 1 parked it and the fast pages' higher RBER has
compounded with retention.  The report exposes the frontier: what each
weight pays in fresh-read latency and what it buys back in aged-read
latency, retries, and refresh/relocation work.

The speed-oblivious FTLs and pure-speed PPB do not depend on the weight
axis, so the sweep requests them at every point and lets the
:class:`~repro.bench.memo.ReplayRunner` memo absorb the repeats — the
same trick :class:`~repro.bench.experiment.ExperimentRunner` plays for
figure cells, and the report's last check proves no identical baseline
was ever replayed twice.

Exposed as the ``placement`` CLI subcommand and driven at smoke scale
by the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import ascii_matrix
from repro.analysis.tables import format_pct
from repro.bench.figures import FigureReport
from repro.bench.memo import ReplayRunner
from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig
from repro.reliability.retention import SECONDS_PER_HOUR
from repro.scenario.spec import ScenarioSpec

#: workloads with a hotness-skew (Zipf theta) knob.
SKEWABLE_WORKLOADS = ("media-server", "web-sql")

DEFAULT_SPEED_RATIOS = (2.0, 4.0)
DEFAULT_SKEWS = (0.5, 0.8, 0.95)
DEFAULT_WEIGHTS = (0.0, 2.0, 8.0)


def default_placement_reliability() -> ReliabilityConfig:
    """The reliability stack the placement sweep runs under.

    Read disturb is ON (it is half the reason reliability-aware
    placement exists) and also gates refresh, so heavily-read young
    blocks qualify for relocation; retention knobs keep PR 1 defaults.
    """
    return ReliabilityConfig(
        disturb_coeff=8.0,
        refresh_disturb_reads=2_000,
    )


@dataclass(frozen=True)
class PlacementSweepSpec:
    """Every knob of one placement sweep."""

    workload: str = "web-sql"
    speed_ratios: tuple[float, ...] = DEFAULT_SPEED_RATIOS
    #: Zipf theta of the workload's popularity distributions — the
    #: hotness-skew axis (in (0, 1); higher = hotter head, colder tail).
    skews: tuple[float, ...] = DEFAULT_SKEWS
    #: reliability_weight values for the PPB variants (0 = pure speed).
    weights: tuple[float, ...] = DEFAULT_WEIGHTS
    num_requests: int = 8_000
    blocks_per_chip: int = 96
    page_size: int = 16 * 1024
    footprint_fraction: float = 0.80
    seed: int = 42
    #: shelf age between the fresh replay and the aged re-read phase
    #: (one value — the reliability sweep owns the age *axis*).
    retention_age_hours: float = 720.0
    #: horizon the placement policy predicts RBER at; by default the
    #: sweep's own retention age (predict what the data will live).
    horizon_hours: float | None = None
    #: per-block reads the policy assumes iron-hot blocks absorb (the
    #: hot-data disturb horizon).
    horizon_reads: int = 1_000
    config: ReliabilityConfig = field(default_factory=default_placement_reliability)

    def __post_init__(self) -> None:
        if self.workload not in SKEWABLE_WORKLOADS:
            raise ConfigError(
                f"placement sweep needs a skewable workload; choose from "
                f"{SKEWABLE_WORKLOADS}, got {self.workload!r}"
            )
        if 0.0 not in self.weights:
            raise ConfigError(
                "weights must include 0.0 (the pure-speed PPB baseline), "
                f"got {self.weights}"
            )
        for skew in self.skews:
            if not 0.0 < skew < 1.0:
                raise ConfigError(
                    f"skews must be Zipf thetas in (0, 1), got {skew}"
                )

    @property
    def horizon_s(self) -> float:
        """Placement prediction horizon in seconds."""
        hours = (
            self.retention_age_hours if self.horizon_hours is None else self.horizon_hours
        )
        return hours * SECONDS_PER_HOUR


@dataclass
class PlacementPoint:
    """Measured outcome of one (speed ratio, skew, variant) replay."""

    speed_ratio: float
    skew: float
    #: "conventional", "fast", "ppb" (weight 0) or "ppb w=X".
    variant: str
    weight: float | None
    #: mean read service time (us/page) while the data is fresh — the
    #: speed side of the frontier.
    fresh_read_us: float
    #: mean read service time (us/page) after the shelf age — the
    #: reliability side (includes ECC retry latency).
    aged_read_us: float
    #: retry steps per aged read, and the total retry latency they cost.
    aged_retries_per_read: float
    aged_retry_us: float
    uncorrectable: int
    refreshed_blocks: int
    refresh_copied_pages: int
    refresh_us: float
    erases: int
    fast_read_fraction: float
    reliability_diverts: int

    @property
    def aged_penalty(self) -> float:
        """Relative read-latency inflation the shelf age caused."""
        if not self.fresh_read_us:
            return 0.0
        return (self.aged_read_us - self.fresh_read_us) / self.fresh_read_us


def point_scenario(sweep: PlacementSweepSpec, ratio: float, skew: float) -> ScenarioSpec:
    """Factory: the shared two-phase scenario of one (ratio, skew) point.

    Each FTL variant is this spec plus dotted-path edits (``ftl``,
    ``ppb.reliability_weight``) — the same grid a scenario file with
    sweep axes expands to.
    """
    return ScenarioSpec(
        workload=sweep.workload,
        num_requests=sweep.num_requests,
        footprint_fraction=sweep.footprint_fraction,
        seed=sweep.seed,
        workload_kwargs=(("zipf_theta", float(skew)),),
        device=sim_spec(
            page_size=sweep.page_size,
            speed_ratio=ratio,
            blocks_per_chip=sweep.blocks_per_chip,
        ),
        reliability=sweep.config,
        refresh=True,
        reread_age_s=sweep.retention_age_hours * SECONDS_PER_HOUR,
    )


def sweep_specs(sweep: PlacementSweepSpec) -> list[ScenarioSpec]:
    """Every unique replay the sweep needs (the parallel prefetch set)."""
    specs: list[ScenarioSpec] = []
    for ratio in sweep.speed_ratios:
        for skew in sweep.skews:
            base = point_scenario(sweep, ratio, skew)
            specs.append(base.with_(ftl="conventional"))
            specs.append(base.with_(ftl="fast"))
            for weight in sorted(sweep.weights):
                specs.append(base.with_(ftl="ppb", ppb=_ppb_config(sweep, weight)))
    return specs


def run_placement_sweep(
    sweep: PlacementSweepSpec | None = None,
    runner: ReplayRunner | None = None,
) -> FigureReport:
    """Execute the sweep and package it as a figure-style report.

    With ``runner.workers > 1`` the whole grid is prefetched through
    the runner's process pool first; the measurement loop below then
    reads every point from the memo.  Single-process runners execute
    the loop exactly as before.
    """
    sweep = sweep or PlacementSweepSpec()
    runner = runner or ReplayRunner()
    replays_before = runner.stats.misses
    hits_before = runner.stats.hits
    runner.prefetch(sweep_specs(sweep))
    points: list[PlacementPoint] = []
    for ratio in sweep.speed_ratios:
        for skew in sweep.skews:
            base = point_scenario(sweep, ratio, skew)
            for weight in sorted(sweep.weights):
                # The speed-oblivious FTLs do not depend on the weight;
                # requesting them every iteration exercises the memo.
                for ftl in ("conventional", "fast"):
                    if weight == min(sweep.weights):
                        points.append(
                            _measure(runner, base.with_(ftl=ftl), ratio, skew, ftl, None)
                        )
                    else:
                        runner.run(base.with_(ftl=ftl))  # memo hit by design
                ppb = base.with_(ftl="ppb", ppb=_ppb_config(sweep, weight))
                label = "ppb" if weight == 0 else f"ppb w={weight:g}"
                points.append(_measure(runner, ppb, ratio, skew, label, weight))
    saved = runner.stats.hits - hits_before
    ran = runner.stats.misses - replays_before
    return _build_report(sweep, points, ran=ran, saved=saved)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------

def _ppb_config(sweep: PlacementSweepSpec, weight: float) -> PPBConfig:
    return PPBConfig(
        reliability_weight=weight,
        placement_horizon_s=sweep.horizon_s,
        placement_horizon_reads=sweep.horizon_reads,
    )


def _measure(
    runner: ReplayRunner,
    spec: ScenarioSpec,
    ratio: float,
    skew: float,
    variant: str,
    weight: float | None,
) -> PlacementPoint:
    result = runner.run(spec)
    ftl = result.ftl  # type: ignore[attr-defined]
    rel = ftl.reliability.stats
    fast_fraction = (
        ftl.fast_page_read_fraction()
        if hasattr(ftl, "fast_page_read_fraction")
        else 0.0
    )
    return PlacementPoint(
        speed_ratio=ratio,
        skew=skew,
        variant=variant,
        weight=weight,
        fresh_read_us=result.extra["phase1.mean_read_page_us"],
        aged_read_us=result.mean_read_page_us,
        aged_retries_per_read=result.extra["reread.retries_per_read"],
        aged_retry_us=result.extra["reread.retry_us"],
        uncorrectable=rel.uncorrectable_reads,
        refreshed_blocks=rel.refresh_runs,
        refresh_copied_pages=rel.refresh_copied_pages,
        refresh_us=rel.refresh_us,
        erases=result.erase_count,
        fast_read_fraction=fast_fraction,
        reliability_diverts=int(ftl.stats.extra.get("ppb.reliability_diverts", 0)),
    )


def _build_report(
    sweep: PlacementSweepSpec,
    points: list[PlacementPoint],
    ran: int,
    saved: int,
) -> FigureReport:
    report = FigureReport(
        figure_id="Placement",
        title=(
            f"Reliability-aware placement frontier: {sweep.workload} "
            f"({sweep.num_requests} reqs, {sweep.blocks_per_chip} blocks, "
            f"age {sweep.retention_age_hours:.0f}h; "
            f"{ran} replays run, {saved} served from memo)"
        ),
        paper_claim=(
            "beyond the paper: the fast bottom-layer pages PPB chases are "
            "also the most error-prone, so speed-chasing placement "
            "concentrates read-hot data where retention and read disturb "
            "bite hardest; variation-aware placement recovers most of the "
            "lost lifetime for a bounded latency cost (Luo et al., "
            "arXiv:1807.05140; STAR, arXiv:2511.06249)"
        ),
        headers=[
            "speed",
            "skew",
            "variant",
            "fresh rd (us/pg)",
            "aged rd (us/pg)",
            "penalty",
            "retries/rd",
            "uncorr",
            "refr blocks",
            "erases",
            "fast reads",
            "diverts",
        ],
    )
    for p in points:
        report.rows.append(
            [
                f"{p.speed_ratio:.0f}x",
                f"{p.skew:.2f}",
                p.variant,
                f"{p.fresh_read_us:.1f}",
                f"{p.aged_read_us:.1f}",
                format_pct(p.aged_penalty, signed=True),
                f"{p.aged_retries_per_read:.2f}",
                p.uncorrectable,
                p.refreshed_blocks,
                p.erases,
                format_pct(p.fast_read_fraction),
                p.reliability_diverts,
            ]
        )
    max_weight = max(sweep.weights)
    speed_ppb = _variant_points(points, 0.0)
    rel_ppb = _variant_points(points, max_weight)
    report.chart = ascii_matrix(
        [f"{r:.0f}x" for r in sweep.speed_ratios],
        [f"{s:.2f}" for s in sweep.skews],
        [
            [
                _cost_saving(speed_ppb[(ratio, skew)], rel_ppb[(ratio, skew)]) * 100.0
                for skew in sweep.skews
            ]
            for ratio in sweep.speed_ratios
        ],
        title=(
            f"aged-read ECC retry latency saved by w={max_weight:g} vs "
            "pure-speed ppb (%), speed ratio x hotness skew"
        ),
        unit="%",
    )
    report.checks = _shape_checks(sweep, points, saved)
    return report


def _variant_points(
    points: list[PlacementPoint], weight: float
) -> dict[tuple[float, float], PlacementPoint]:
    return {
        (p.speed_ratio, p.skew): p for p in points if p.weight == weight
    }


def _cost_saving(speed: PlacementPoint, rel: PlacementPoint) -> float:
    """Fraction of pure-speed PPB's aged retry cost the weight removed."""
    if speed.aged_retry_us <= 0:
        return 0.0
    return (speed.aged_retry_us - rel.aged_retry_us) / speed.aged_retry_us


def _shape_checks(
    sweep: PlacementSweepSpec, points: list[PlacementPoint], saved: int
) -> list[tuple[str, bool]]:
    max_weight = max(sweep.weights)
    speed_ppb = _variant_points(points, 0.0)
    rel_ppb = _variant_points(points, max_weight)
    pairs = [(speed_ppb[k], rel_ppb[k]) for k in speed_ppb]
    checks: list[tuple[str, bool]] = []
    if max_weight > 0:
        checks.append(
            (
                "reliability-aware placement cuts aged-read retry cost vs "
                "pure-speed ppb (every sweep point)",
                all(
                    rel.aged_retry_us <= speed.aged_retry_us + 1e-9
                    for speed, rel in pairs
                ),
            )
        )
        checks.append(
            (
                "the cut is real somewhere (> 10% aged retry cost saved "
                "at some sweep point)",
                any(_cost_saving(speed, rel) > 0.10 for speed, rel in pairs),
            )
        )
        checks.append(
            (
                "the frontier is non-trivial: the top weight actually "
                "diverts read-hot data somewhere",
                any(rel.reliability_diverts > 0 for _, rel in pairs),
            )
        )
        checks.append(
            (
                "fresh-read latency loss is bounded (<= 25% inflation vs "
                "pure-speed ppb at every point)",
                all(
                    rel.fresh_read_us <= speed.fresh_read_us * 1.25 + 1e-9
                    for speed, rel in pairs
                ),
            )
        )
    checks.append(
        (
            "baseline memoization absorbed every repeated replay "
            "(weight axis re-requests speed-oblivious FTLs)",
            saved
            >= (len(sweep.weights) - 1)
            * 2
            * len(sweep.speed_ratios)
            * len(sweep.skews),
        )
    )
    return checks
