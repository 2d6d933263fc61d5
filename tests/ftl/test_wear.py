"""Tests for the static wear-leveling victim-policy decorator."""

import numpy as np

from repro.ftl.conventional import ConventionalFTL
from repro.ftl.gc import GreedyVictimPolicy
from repro.ftl.wear import WearLeveler
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec


def _churn(ftl, ops: int, seed: int = 0, hot_fraction: float = 0.1):
    """Skewed churn: most writes hit a small hot region (wears few blocks)."""
    rng = np.random.default_rng(seed)
    hot_limit = max(1, int(ftl.num_lpns * hot_fraction))
    for _ in range(ops):
        if rng.random() < 0.9:
            lpn = int(rng.integers(0, hot_limit))
        else:
            lpn = int(rng.integers(0, ftl.num_lpns))
        ftl.host_write(lpn)


class TestWearLeveler:
    def test_delegates_bookkeeping(self):
        inner = GreedyVictimPolicy()
        device = NandDevice(tiny_spec())
        leveler = WearLeveler(inner, device, threshold=4)
        leveler.note_block_written(0, 1.0)
        leveler.note_block_erased(0)  # must not raise

    def test_name_reflects_wrapping(self):
        device = NandDevice(tiny_spec())
        leveler = WearLeveler(GreedyVictimPolicy(), device)
        assert "greedy" in leveler.name and "wl" in leveler.name

    def test_intervenes_under_skewed_wear(self):
        device = NandDevice(tiny_spec())
        leveler = WearLeveler(GreedyVictimPolicy(), device, threshold=4)
        ftl = ConventionalFTL(device)
        ftl.victim_policy = leveler
        # Fill the device once so cold data pins some blocks.
        for lpn in range(ftl.num_lpns):
            ftl.host_write(lpn)
        _churn(ftl, 12_000)
        assert leveler.interventions > 0
        ftl.check_invariants()

    def test_reduces_wear_spread(self):
        plain_device = NandDevice(tiny_spec())
        plain = ConventionalFTL(plain_device)
        for lpn in range(plain.num_lpns):
            plain.host_write(lpn)
        _churn(plain, 15_000)

        leveled_device = NandDevice(tiny_spec())
        leveler = WearLeveler(GreedyVictimPolicy(), leveled_device, threshold=4)
        leveled = ConventionalFTL(leveled_device)
        leveled.victim_policy = leveler
        for lpn in range(leveled.num_lpns):
            leveled.host_write(lpn)
        _churn(leveled, 15_000)

        assert leveled_device.wear_spread() <= plain_device.wear_spread()
