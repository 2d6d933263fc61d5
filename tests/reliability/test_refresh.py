"""Tests for the retention-aware refresh policy and its FTL driver."""


from repro.ftl.conventional import ConventionalFTL
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec
from repro.reliability.manager import ReliabilityConfig, ReliabilityManager
from repro.reliability.refresh import RefreshPolicy

#: A month of retention — far past every refresh threshold in tests.
MONTH_S = 30 * 86400.0


def build_ftl(**config_overrides):
    """A tiny conventional FTL with the reliability stack attached."""
    config = ReliabilityConfig(
        **{
            "refresh_check_interval": 1,
            "refresh_min_age_s": 60.0,
            "refresh_max_blocks_per_check": 4,
            **config_overrides,
        }
    )
    device = NandDevice(tiny_spec())
    manager = ReliabilityManager(device, config)
    policy = RefreshPolicy(manager)
    ftl = ConventionalFTL(device, reliability=manager, refresh=policy)
    return ftl, manager, policy


def fill(ftl, fraction=0.8, nbytes=None):
    for lpn in range(int(ftl.num_lpns * fraction)):
        ftl.host_write(lpn, nbytes=nbytes)


#: a per-check cap no tiny device reaches, so due_blocks lists them all.
UNCAPPED = {"refresh_max_blocks_per_check": 1_000_000}


def due_fraction(ftl, policy):
    """Refresh pressure: the fraction of FULL blocks past the threshold."""
    full = ftl.blocks.victim_candidates(None).size
    return len(policy.due_blocks(ftl.blocks)) / full if full else 0.0


class TestSelection:
    def test_young_device_has_no_due_blocks(self):
        ftl, manager, policy = build_ftl()
        fill(ftl)
        assert policy.due_blocks(ftl.blocks) == []

    def test_aged_full_blocks_become_due(self):
        ftl, manager, policy = build_ftl()
        fill(ftl)
        manager.age_all(MONTH_S)
        due = policy.due_blocks(ftl.blocks, exclude=ftl._active_blocks())
        assert due
        assert len(due) <= policy.max_blocks_per_check
        for pbn in due:
            steps, _ = manager.predicted_block_retries(pbn)
            assert steps > policy.retry_budget

    def test_exclusion_is_respected(self):
        ftl, manager, policy = build_ftl()
        fill(ftl)
        manager.age_all(MONTH_S)
        due = policy.due_blocks(ftl.blocks)
        excluded = set(due)
        assert not set(policy.due_blocks(ftl.blocks, exclude=excluded)) & excluded

    def test_check_cadence(self):
        _, _, policy = build_ftl()
        policy.check_interval = 4
        assert policy.is_check_due(8)
        assert not policy.is_check_due(9)
        # Crossing-based, not exact-multiple: a scan missed at op 12
        # (e.g. the op was a trim) still fires at op 13.
        assert policy.is_check_due(13)

    def test_pressure_reflects_due_fraction(self):
        ftl, manager, policy = build_ftl(**UNCAPPED)
        fill(ftl)
        assert due_fraction(ftl, policy) == 0.0
        manager.age_all(MONTH_S)
        assert due_fraction(ftl, policy) > 0.5


class TestRefreshDriver:
    def test_refresh_runs_and_resets_retention(self):
        ftl, manager, policy = build_ftl(**UNCAPPED)
        fill(ftl)
        manager.age_all(MONTH_S)
        before = due_fraction(ftl, policy)
        # Any host traffic now triggers refresh checks (interval=1).
        for lpn in range(64):
            ftl.host_read(lpn)
        assert manager.stats.refresh_runs > 0
        assert manager.stats.refresh_copied_pages > 0
        assert manager.stats.refresh_us > 0.0
        assert due_fraction(ftl, policy) < before

    def test_refresh_never_loses_data(self):
        ftl, manager, policy = build_ftl()
        fill(ftl)
        manager.age_all(MONTH_S)
        for lpn in range(128):
            ftl.host_read(lpn)
        assert manager.stats.refresh_runs > 0
        ftl.check_invariants()
        # Every written LPN still maps to a page tagged with that LPN.
        for lpn in range(int(ftl.num_lpns * 0.8)):
            ppn = ftl.map.ppn_of(lpn)
            tag = ftl.device.tag(ppn)
            assert tag is not None and tag[0] == lpn

    def test_refresh_work_not_charged_to_host_reads(self):
        """Refresh is background work: read latency stays retry-only."""
        ftl, manager, policy = build_ftl()
        fill(ftl)
        manager.age_all(MONTH_S)
        read_us_before = ftl.stats.host_read_us
        ftl.host_read(0)
        host_delta = ftl.stats.host_read_us - read_us_before
        # The one read paid device latency + retries, but not the many
        # milliseconds of block relocation the refresh scan performed.
        assert manager.stats.refresh_us > host_delta

    def test_no_refresh_without_policy(self):
        device = NandDevice(tiny_spec())
        manager = ReliabilityManager(device, ReliabilityConfig())
        ftl = ConventionalFTL(device, reliability=manager)
        fill(ftl)
        manager.age_all(MONTH_S)
        for lpn in range(64):
            ftl.host_read(lpn)
        assert manager.stats.refresh_runs == 0

    def test_refresh_yields_to_space_pressure(self):
        ftl, manager, policy = build_ftl()
        fill(ftl, fraction=1.0)  # free pool hovers at the GC watermark
        manager.age_all(MONTH_S)
        free_before = ftl.blocks.free_count
        for lpn in range(32):
            ftl.host_read(lpn)
        # Whatever refresh did, it never drove the pool below the GC
        # low watermark's guard.
        assert ftl.blocks.free_count >= min(free_before, ftl.gc_low_blocks)

    def test_describe(self):
        _, _, policy = build_ftl()
        assert "RefreshPolicy" in policy.describe()
