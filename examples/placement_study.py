#!/usr/bin/env python3
"""Exploring reliability-aware placement: pricing the fast pages' risk.

Pure-speed PPB parks the most frequently *read* data on the fast
bottom-layer pages — which the reliability subsystem shows are also the
most error-prone ones (field stress), and which read disturb then
hammers hardest.  This study walks the trade-off with numbers:

    speed class -> mean read latency gain (what PPB chases)
    speed class -> predicted RBER-at-horizon -> retry cost (what it risks)
    reliability_weight -> where read-hot data actually goes
    the frontier: fresh-read speed vs aged-read reliability

Run:  python examples/placement_study.py
"""

import os

from repro.bench.memo import ReplayRunner
from repro.core.placement import ReliabilityAwarePlacement
from repro.nand.device import NandDevice
from repro.nand.spec import sim_spec
from repro.reliability.manager import ReliabilityConfig, ReliabilityManager
from repro.reliability.retention import SECONDS_PER_HOUR
from repro.scenario import SweepAxis, load_scenario_file, sweep
from repro.scenario.report import sweep_table

FRONTIER_FILE = os.path.join(
    os.path.dirname(__file__), "scenarios", "placement_frontier.toml"
)


def show_utility_decision() -> None:
    """One placement decision, dissected."""
    device = NandDevice(sim_spec(speed_ratio=2.0, blocks_per_chip=64))
    manager = ReliabilityManager(device, ReliabilityConfig(disturb_coeff=8.0))
    policy = ReliabilityAwarePlacement(
        manager,
        device.latency,
        weight=4.0,
        horizon_s=720 * SECONDS_PER_HOUR,
        horizon_reads=1_000,
    )
    print(policy.describe())
    gain = policy._mean_read_us[False] - policy._mean_read_us[True]
    print(f"speed gain of the fast class: {gain:.1f} us per read")
    # The decision is per-block: the lognormal process variation means
    # some blocks' fast halves are predicted to rot and some are not.
    blocks = sorted(
        range(device.spec.total_blocks),
        key=lambda pbn: float(manager.variation.block_multipliers[pbn]),
    )
    for label, pbn in (("best block", blocks[0]), ("worst block", blocks[-1])):
        mult = float(manager.variation.block_multipliers[pbn])
        cold = policy.prefer_fast(pbn, None, hot=False)
        hot = policy.prefer_fast(pbn, None, hot=True)
        print(
            f"{label} (rber x{mult:.2f}): cold data -> "
            f"{'fast' if cold else 'slow'} pages, iron-hot data -> "
            f"{'fast' if hot else 'slow'} pages"
        )


def show_frontier() -> None:
    """A narrowed ``placement_frontier.toml``: one speed ratio and skew
    (``repro scenario run`` on the file runs the full grid)."""
    bundle = load_scenario_file(FRONTIER_FILE)
    base = bundle.base.with_(
        num_requests=4_000,
        workload_kwargs={"zipf_theta": 0.95},
        device=bundle.base.device.replace(speed_ratio=2.0, blocks_per_chip=64),
    )
    axes = [
        SweepAxis("ppb.reliability_weight", (0.0, 2.0, 8.0)),
        SweepAxis("ftl", ("conventional", "fast", "ppb")),
    ]
    specs = sweep(base, axes)
    print()
    with ReplayRunner() as runner:
        results = runner.run_many(specs)
        print(sweep_table(specs, results, axes, memo=runner.stats, title=bundle.name))


def main() -> None:
    show_utility_decision()
    show_frontier()


if __name__ == "__main__":
    main()
