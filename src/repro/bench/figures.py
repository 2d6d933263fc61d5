"""One driver per table/figure of the paper's evaluation (Section 4).

Every function returns a :class:`FigureReport` carrying the measured
rows, the paper's qualitative claim, and a list of *shape checks* — the
relative statements that must transfer from the paper even though our
substrate is a scaled simulator (who wins, roughly by how much, where
the crossovers are).  The pytest benches assert those checks; the CLI
and EXPERIMENTS.md render the same reports.

Each figure point is a :class:`~repro.scenario.spec.ScenarioSpec`
replayed under the conventional FTL and under PPB through a memoizing
:class:`~repro.bench.memo.ReplayRunner`, because the figures share
underlying runs (Figs. 13 and 16 are the read and write views of the
same eight simulations; Fig. 18 reuses them again for erase counts).

Scales
------
The paper simulates a 64 GB device over multi-day MSR traces; that is
out of reach for pure Python, so figures run on proportionally scaled
devices (same pages/block, latencies and over-provisioning — only the
block count and request count shrink).  Two presets:

* ``FULL_SCALE`` — the EXPERIMENTS.md numbers (minutes per figure).
* ``SMOKE_SCALE`` — small enough for CI benches (seconds per figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import ascii_series
from repro.analysis.tables import ascii_table, format_pct
from repro.bench.memo import ReplayRunner
from repro.ftl.stats import FtlStats
from repro.nand.latency import LatencyModel
from repro.nand.spec import sim_spec, table1_spec
from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class BenchScale:
    """How big the simulated device and trace are."""

    name: str
    num_requests: int
    blocks_per_chip: int


FULL_SCALE = BenchScale("full", num_requests=120_000, blocks_per_chip=256)
#: small enough for CI benches, but not so small that PPB's handful of
#: held-open blocks distorts the effective over-provisioning (the erase
#: comparison of Fig. 18 needs a reasonable block count to be fair).
SMOKE_SCALE = BenchScale("smoke", num_requests=40_000, blocks_per_chip=160)

#: The paper sweeps the page access speed difference from 2x to 5x.
SPEED_SWEEP = (2.0, 3.0, 4.0, 5.0)

#: Fig. 12/15 compare page sizes at a fixed speed difference.  The
#: paper does not state which; we use the top of its sweep (5x), where
#: its 64-layer footnote says future devices are heading.  The full
#: sweep is in Figs. 13/14 regardless.
PAGE_SIZE_STUDY_SPEED = 5.0
PAGE_SIZES = (8 * 1024, 16 * 1024)

#: The two paper traces and our stand-in workloads.
TRACES = ("media-server", "web-sql")


@dataclass
class FigureReport:
    """Measured reproduction of one paper artifact."""

    figure_id: str
    title: str
    paper_claim: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    chart: str = ""

    @property
    def all_checks_pass(self) -> bool:
        """Whether every shape check holds."""
        return all(ok for _, ok in self.checks)

    def render(self) -> str:
        """Full plain-text report."""
        parts = [
            f"== {self.figure_id}: {self.title} ==",
            f"paper: {self.paper_claim}",
            ascii_table(self.headers, self.rows),
        ]
        if self.chart:
            parts.append(self.chart)
        for name, ok in self.checks:
            parts.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
        return "\n".join(parts)


def _spec(
    trace: str, scale: BenchScale, speed_ratio: float, page_size: int = 16 * 1024
) -> ScenarioSpec:
    """The (conventional-FTL) scenario of one figure point.

    Smaller pages get proportionally more blocks, so device capacity
    stays constant across page sizes (Fig. 12/15).
    """
    return ScenarioSpec(
        workload=trace,
        num_requests=scale.num_requests,
        device=sim_spec(
            page_size=page_size,
            speed_ratio=speed_ratio,
            blocks_per_chip=scale.blocks_per_chip * ((16 * 1024) // page_size),
        ),
    )


def _compare(runner: ReplayRunner, spec: ScenarioSpec) -> tuple[FtlStats, FtlStats]:
    """Replay ``spec`` under the conventional FTL and under PPB; returns
    their (baseline, ppb) stats."""
    base = runner.run(spec).ftl.stats  # type: ignore[attr-defined]
    ppb = runner.run(spec.with_(ftl="ppb")).ftl.stats  # type: ignore[attr-defined]
    return base, ppb


def _gain(base: FtlStats, ppb: FtlStats, attr: str) -> float:
    """Relative enhancement of PPB over the baseline on an attribute."""
    base_value = getattr(base, attr)
    ppb_value = getattr(ppb, attr)
    if base_value == 0:
        return 0.0
    return (base_value - ppb_value) / base_value


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------

def table1() -> FigureReport:
    """Table 1: experimental parameters (model-level validation)."""
    spec = table1_spec()
    model = LatencyModel(spec)
    report = FigureReport(
        figure_id="Table 1",
        title="Experimental parameters",
        paper_claim=(
            "64 GB flash, 16 KB pages, 384 pages/block, 600 us write, "
            "49 us read, 533 Mbps transfer, 4 ms erase"
        ),
        headers=["item", "paper", "model"],
    )
    rows = [
        ["Flash size", "64 GB", f"{spec.physical_bytes / 2**30:.1f} GiB"],
        ["Page size", "16 KB", f"{spec.page_size // 1024} KiB"],
        ["Pages per block", "384", str(spec.pages_per_block)],
        ["Page write latency", "600 us", f"{model.program_us_by_page.min():.0f} us"],
        ["Page read latency", "49 us", f"{model.fastest_page_read_us():.0f} us"],
        ["Data transfer rate", "533 Mbps", f"{spec.transfer_mb_per_s:.0f} MB/s"],
        ["Block erase time", "4 ms", f"{model.erase_us() / 1000:.0f} ms"],
    ]
    report.rows = rows
    report.checks = [
        ("capacity within 1% of 64 GiB", abs(spec.physical_bytes / 2**36 - 1.0) < 0.01),
        ("fastest read is 49 us", abs(model.fastest_page_read_us() - 49.0) < 1e-9),
        (
            "slowest read is speed_ratio x 49 us",
            abs(model.slowest_page_read_us() - 49.0 * spec.speed_ratio) < 1e-9,
        ),
        ("erase is 4 ms", abs(model.erase_us() - 4000.0) < 1e-9),
    ]
    return report


# ----------------------------------------------------------------------
# Fig. 12 / Fig. 15 — page-size study
# ----------------------------------------------------------------------

def _page_size_study(
    runner: ReplayRunner, scale: BenchScale, attr: str
) -> list[tuple[str, int, float]]:
    out = []
    for trace in TRACES:
        for page_size in PAGE_SIZES:
            spec = _spec(trace, scale, PAGE_SIZE_STUDY_SPEED, page_size)
            base, ppb = _compare(runner, spec)
            out.append((trace, page_size, _gain(base, ppb, attr)))
    return out


def figure12(runner: ReplayRunner, scale: BenchScale = FULL_SCALE) -> FigureReport:
    """Fig. 12: read performance enhancement vs page size."""
    study = _page_size_study(runner, scale, "host_read_us")
    report = FigureReport(
        figure_id="Figure 12",
        title="Read performance enhancement (PPB vs conventional)",
        paper_claim=(
            "positive enhancement on both traces; grows with page size; "
            "up to 18.56% (web/SQL, 16 KB)"
        ),
        headers=["trace", "page size", "read enhancement"],
    )
    gains: dict[tuple[str, int], float] = {}
    for trace, page_size, gain in study:
        report.rows.append([trace, f"{page_size // 1024} KB", format_pct(gain)])
        gains[(trace, page_size)] = gain
    report.chart = ascii_series(
        [t for t in TRACES],
        {
            f"{p // 1024}KB": [gains[(t, p)] * 100 for t in TRACES]
            for p in PAGE_SIZES
        },
        title="read enhancement (%)",
        unit="%",
    )
    report.checks = [
        ("PPB improves reads on every trace/page size", all(g > 0 for g in gains.values())),
        (
            "16 KB enhancement >= 8 KB enhancement (web/SQL)",
            gains[("web-sql", 16 * 1024)] >= gains[("web-sql", 8 * 1024)] - 0.01,
        ),
        (
            "peak enhancement is respectable (>= 5%)",
            max(gains.values()) >= 0.05,
        ),
        (
            "peak enhancement does not exceed the paper's 18.56% by much",
            max(gains.values()) <= 0.25,
        ),
    ]
    return report


def figure15(runner: ReplayRunner, scale: BenchScale = FULL_SCALE) -> FigureReport:
    """Fig. 15: write performance enhancement vs page size (~zero)."""
    study = _page_size_study(runner, scale, "host_write_us")
    report = FigureReport(
        figure_id="Figure 15",
        title="Write performance enhancement (PPB vs conventional)",
        paper_claim="between -0.02% and +0.10% — write latency effectively unchanged",
        headers=["trace", "page size", "write enhancement"],
    )
    gains = []
    for trace, page_size, gain in study:
        report.rows.append([trace, f"{page_size // 1024} KB", format_pct(gain)])
        gains.append(gain)
    report.checks = [
        (
            "write latency unchanged to within 0.5%",
            all(abs(g) < 0.005 for g in gains),
        ),
    ]
    return report


# ----------------------------------------------------------------------
# Figs. 13/14/16/17 — speed-difference sweeps
# ----------------------------------------------------------------------

def _speed_sweep(
    runner: ReplayRunner,
    scale: BenchScale,
    trace: str,
    attr: str,
    figure_id: str,
    title: str,
    paper_claim: str,
    checks: str,
) -> FigureReport:
    report = FigureReport(
        figure_id=figure_id,
        title=title,
        paper_claim=paper_claim,
        headers=["speed diff", "conventional (s)", "PPB (s)", "enhancement"],
    )
    conv_series, ppb_series, gains = [], [], []
    for ratio in SPEED_SWEEP:
        base, ppb = _compare(runner, _spec(trace, scale, ratio))
        gain = _gain(base, ppb, attr)
        gains.append(gain)
        conv = getattr(base, attr) / 1e6
        improved = getattr(ppb, attr) / 1e6
        conv_series.append(conv)
        ppb_series.append(improved)
        report.rows.append(
            [f"{ratio:.0f}x", f"{conv:.2f}", f"{improved:.2f}", format_pct(gain)]
        )
    report.chart = ascii_series(
        [f"{r:.0f}x" for r in SPEED_SWEEP],
        {"conventional": conv_series, "ppb": ppb_series},
        title=f"{title} (seconds)",
        unit="s",
    )
    if checks == "read":
        report.checks = [
            ("PPB reads faster at every speed difference", all(g > 0 for g in gains)),
            (
                "enhancement grows with the speed difference",
                gains[-1] > gains[0],
            ),
            (
                "average enhancement is near the paper's ~10% (5%..20%)",
                0.03 <= sum(gains) / len(gains) <= 0.20,
            ),
        ]
    else:
        report.checks = [
            (
                "write latency identical to within 0.5% at every point",
                all(abs(g) < 0.005 for g in gains),
            ),
        ]
    return report


def figure13(runner: ReplayRunner, scale: BenchScale = FULL_SCALE) -> FigureReport:
    """Fig. 13: media server read latency vs speed difference."""
    return _speed_sweep(
        runner,
        scale,
        "media-server",
        "host_read_us",
        "Figure 13",
        "Media server trace: read latency comparison",
        "PPB below conventional at 2x..5x; ~10% average over the sweep",
        "read",
    )


def figure14(runner: ReplayRunner, scale: BenchScale = FULL_SCALE) -> FigureReport:
    """Fig. 14: web server read latency vs speed difference."""
    return _speed_sweep(
        runner,
        scale,
        "web-sql",
        "host_read_us",
        "Figure 14",
        "Web server trace: read latency comparison",
        "PPB below conventional at 2x..5x; ~10% average over the sweep",
        "read",
    )


def figure16(runner: ReplayRunner, scale: BenchScale = FULL_SCALE) -> FigureReport:
    """Fig. 16: media server write latency vs speed difference."""
    return _speed_sweep(
        runner,
        scale,
        "media-server",
        "host_write_us",
        "Figure 16",
        "Media server trace: write latency comparison",
        "conventional and PPB write latencies indistinguishable (0.0001%)",
        "write",
    )


def figure17(runner: ReplayRunner, scale: BenchScale = FULL_SCALE) -> FigureReport:
    """Fig. 17: web server write latency vs speed difference."""
    return _speed_sweep(
        runner,
        scale,
        "web-sql",
        "host_write_us",
        "Figure 17",
        "Web server trace: write latency comparison",
        "conventional and PPB write latencies indistinguishable (0.0001%)",
        "write",
    )


# ----------------------------------------------------------------------
# Fig. 18 — erased block count
# ----------------------------------------------------------------------

def figure18(runner: ReplayRunner, scale: BenchScale = FULL_SCALE) -> FigureReport:
    """Fig. 18: erased block count, conventional vs PPB, both traces."""
    report = FigureReport(
        figure_id="Figure 18",
        title="Erased block count comparison",
        paper_claim=(
            "erase count not increased excessively by PPB; GC efficiency retained"
        ),
        headers=["trace", "conventional", "PPB", "increase"],
    )
    labels, conv_vals, ppb_vals = [], [], []
    ratios = []
    for trace in TRACES:
        base, ppb = _compare(runner, _spec(trace, scale, 2.0))
        increase = (
            (ppb.erase_count - base.erase_count) / base.erase_count
            if base.erase_count
            else 0.0
        )
        ratios.append(increase)
        labels.append(trace)
        conv_vals.append(float(base.erase_count))
        ppb_vals.append(float(ppb.erase_count))
        report.rows.append(
            [trace, base.erase_count, ppb.erase_count, format_pct(increase, signed=True)]
        )
    report.chart = ascii_series(
        labels,
        {"conventional": conv_vals, "ppb": ppb_vals},
        title="erased blocks",
    )
    report.checks = [
        (
            "PPB's erase count within +35% of conventional on every trace",
            all(r <= 0.35 for r in ratios),
        ),
        (
            "average erase increase below 20%",
            sum(ratios) / len(ratios) <= 0.20,
        ),
    ]
    return report


#: registry used by the CLI and the benches.
FIGURES = {
    "table1": lambda runner, scale: table1(),
    "12": figure12,
    "13": figure13,
    "14": figure14,
    "15": figure15,
    "16": figure16,
    "17": figure17,
    "18": figure18,
}
