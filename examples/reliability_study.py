#!/usr/bin/env python3
"""Exploring the reliability subsystem: errors, retries, and refresh.

The same channel taper that makes bottom-layer pages *fast* (paper
Section 2.1) also concentrates field stress on them, and every cell
leaks charge over retention time — fastest right after programming
("early retention loss", Luo et al., arXiv:1807.05140).  This study
walks the causal chain with numbers:

    channel taper -> per-layer RBER multiplier
    retention age + P/E cycles -> instantaneous RBER
    RBER -> ECC read-retry steps -> extra read latency
    refresh policy -> retention clock reset -> latency recovered

Run:  python examples/reliability_study.py
"""

import os

from repro.analysis.charts import ascii_bars
from repro.analysis.tables import ascii_table
from repro.nand.spec import sim_spec
from repro.reliability.ecc import EccModel
from repro.reliability.retention import SECONDS_PER_HOUR, RetentionModel
from repro.reliability.variation import VariationModel
from repro.scenario import SweepAxis, load_scenario_file, sweep
from repro.scenario.memo import ReplayRunner
from repro.scenario.report import sweep_table

SWEEP_FILE = os.path.join(
    os.path.dirname(__file__), "scenarios", "reliability_sweep.toml"
)


def show_layer_variation() -> None:
    spec = sim_spec(num_layers=8, pages_per_block=384)
    model = VariationModel(spec, block_sigma=0.0)
    print(model.describe())
    labels = {0: " (top, slow)", 7: " (bottom, fast)"}
    print(ascii_bars(
        [f"layer {layer}" + labels.get(layer, "") for layer in range(8)],
        [float(m) for m in model.layer_multipliers],
        width=40,
        title="relative RBER by gate-stack layer (field-stress power law)",
        unit="x",
    ))


def show_retention_curve() -> None:
    model = RetentionModel()
    print()
    print(model.describe())
    ages_h = [0, 1, 6, 24, 24 * 7, 24 * 30, 24 * 90]
    print(ascii_bars(
        [f"{h}h" if h < 24 else f"{h // 24}d" for h in ages_h],
        [model.retention_factor(h * SECONDS_PER_HOUR) for h in ages_h],
        width=40,
        title="retention RBER multiplier vs age (early loss then slow creep)",
        unit="x",
    ))


def show_retry_staircase() -> None:
    ecc = EccModel()
    print()
    print(ecc.describe())
    rows = []
    for rber in (5e-4, 1e-3, 2e-3, 8e-3, 6.4e-2, 5.0e-1):
        steps, uncorrectable = ecc.retries_needed(rber)
        rows.append([f"{rber:.1e}", steps, "yes" if uncorrectable else "no"])
    print(ascii_table(
        ["RBER", "retry steps", "uncorrectable"],
        rows,
        title="ECC read-retry staircase",
    ))


def show_sweep() -> None:
    """A narrowed ``reliability_sweep.toml``: one speed ratio, three ages."""
    print()
    bundle = load_scenario_file(SWEEP_FILE)
    base = bundle.base.with_(
        num_requests=5_000, device=bundle.base.device.replace(speed_ratio=4.0)
    )
    axes = [
        SweepAxis("retention_age_s", (0.0, 24.0 * SECONDS_PER_HOUR, 720.0 * SECONDS_PER_HOUR)),
        SweepAxis("refresh", (False, True)),
    ]
    specs = sweep(base, axes)
    with ReplayRunner() as runner:
        results = runner.run_many(specs)
        print(sweep_table(specs, results, axes, memo=runner.stats, title=bundle.name))
    print("(read - retry us/pg on a refresh = false row is the latency-only read cost)")


if __name__ == "__main__":
    show_layer_variation()
    show_retention_curve()
    show_retry_staircase()
    show_sweep()
