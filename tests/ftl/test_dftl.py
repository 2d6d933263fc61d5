"""DFTL: full-cache equivalence, translation traffic, terabyte geometries."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.ftl.blockinfo import TRANS_KLASS
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.dftl import DFTL, translation_lpn
from repro.ftl.mapping import UNMAPPED
from repro.ftl.transmap import LazyPageMapTable, MappingConfig
from repro.nand.device import NandDevice
from repro.nand.spec import NandSpec, sim_spec, tiny_spec
from repro.reliability.manager import ReliabilityManager
from repro.reliability.refresh import RefreshPolicy
from repro.sim.replay import FTL_CLASSES, FTL_FACTORIES, RELIABILITY_FTLS, make_ftl

#: a small cache on the tiny device: misses, evictions and translation
#: GC are all live under a few hundred operations.
SMALL = MappingConfig(cache_entries=16, entries_per_page=8, evict_batch=4)


def _workload(ftl, writes=400, seed=7):
    """A deterministic mixed read/write/trim sequence; returns latencies."""
    import numpy as np

    rng = np.random.default_rng(seed)
    latencies = []
    hot = rng.integers(0, ftl.num_lpns, size=writes)
    for i, lpn in enumerate(hot):
        lpn = int(lpn)
        latencies.append(("w", ftl.host_write(lpn)))
        if i % 3 == 0:
            latencies.append(("r", ftl.host_read(int(hot[rng.integers(0, i + 1)]))))
        if i % 17 == 0:
            ftl.trim(lpn)
    return latencies


class TestFullCacheEquivalence:
    """With the cache covering the whole map, DFTL *is* the baseline."""

    def test_latencies_and_final_state_match_conventional(self):
        conv = ConventionalFTL(NandDevice(tiny_spec()))
        dftl = DFTL(NandDevice(tiny_spec()))  # default MappingConfig: ratio 1.0
        lat_conv = _workload(conv)
        lat_dftl = _workload(dftl)
        assert lat_conv == lat_dftl  # float-exact, op for op
        for lpn in range(conv.num_lpns):
            assert conv.map.ppn_of(lpn) == dftl.map.ppn_of(lpn)
        assert conv.stats.snapshot() == {
            k: v
            for k, v in dftl.stats.snapshot().items()
            if not k.startswith("extra.cmt")
        }
        # no translation traffic ever reached the device
        assert "trans.reads" not in dftl.stats.extra
        assert "trans.writes" not in dftl.stats.extra
        dftl.check_invariants()
        dftl.check_mapping_persistence()

    def test_full_cache_never_evicts(self):
        dftl = DFTL(NandDevice(tiny_spec()))
        _workload(dftl)
        assert dftl.cmt.evictions == 0


class TestConstrainedCache:
    def test_translation_ops_hit_the_device(self):
        device = NandDevice(tiny_spec())
        device.oplog = []
        dftl = DFTL(device, mapping=SMALL)
        ops_before = len(device.oplog)
        _workload(dftl)
        extra = dftl.stats.extra
        assert extra["cmt.misses"] > 0
        assert extra["trans.writes"] > 0
        assert extra["trans.reads"] > 0
        assert extra["cmt.evictions"] > 0
        # translation commands are real op-log entries, not bookkeeping
        assert len(device.oplog) - ops_before > 0
        dftl.check_invariants()
        dftl.check_mapping_persistence()

    def test_misses_are_host_visible_latency(self):
        fast = DFTL(NandDevice(tiny_spec()))
        slow = DFTL(NandDevice(tiny_spec()), mapping=SMALL)
        _workload(fast)
        _workload(slow)
        assert slow.stats.host_read_us > fast.stats.host_read_us

    def test_translation_blocks_get_their_own_gc_class(self):
        dftl = DFTL(NandDevice(tiny_spec()), mapping=SMALL)
        _workload(dftl, writes=1200)
        trans_blocks = [
            pbn
            for pbn in range(dftl.spec.total_blocks)
            if dftl.blocks.klass_of(pbn) == TRANS_KLASS
        ]
        assert trans_blocks, "translation writes never opened a TRANS block"
        # enough churn that translation blocks were collected too
        assert dftl.stats.extra.get("trans.gc_copies", 0) > 0
        dftl.check_invariants()
        dftl.check_mapping_persistence()

    def test_flush_mapping_persists_every_dirty_entry(self):
        dftl = DFTL(NandDevice(tiny_spec()), mapping=SMALL)
        _workload(dftl)
        assert dftl.cmt.dirty_count > 0
        dftl.flush_mapping()
        assert dftl.cmt.dirty_count == 0
        # now flash alone (directory + translation pages) resolves all
        for lpn in range(dftl.num_lpns):
            tvpn = lpn // dftl._epp
            if dftl.gtd.ppn_of(tvpn) == UNMAPPED:
                persisted = UNMAPPED
            else:
                persisted = dftl._tp_content[tvpn].get(lpn, UNMAPPED)
            assert persisted == dftl.map.ppn_of(lpn)

    def test_trim_is_persisted(self):
        dftl = DFTL(NandDevice(tiny_spec()), mapping=SMALL)
        dftl.host_write(3)
        dftl.trim(3)
        dftl.flush_mapping()
        assert dftl.resolve_persisted(3) == UNMAPPED


class TestTranslationTags:
    def test_translation_page_tag_decodes_to_its_tvpn(self):
        dftl = DFTL(NandDevice(tiny_spec()), mapping=SMALL)
        _workload(dftl)
        dftl.flush_mapping()
        persisted = [
            tvpn
            for tvpn in range(dftl.gtd.num_translation_pages)
            if dftl.gtd.ppn_of(tvpn) != UNMAPPED
        ]
        assert persisted
        for tvpn in persisted:
            lpn, version = dftl.device.tag(dftl.gtd.ppn_of(tvpn))
            assert lpn < 0
            assert translation_lpn(lpn) == tvpn
            assert 0 < version <= dftl._op_sequence

    def test_helper_is_its_own_inverse_and_never_a_data_lpn(self):
        for n in (0, 1, 7, 1 << 40):
            assert translation_lpn(n) < 0
            assert translation_lpn(translation_lpn(n)) == n


class TestTerabyteScale:
    def test_4tb_geometry_allocates_at_most_16_mib(self):
        """Page state is allocated per programmed block, never up front
        (a bitmap per block alone would be 256 MiB here)."""
        spec = NandSpec(
            page_size=16 * 1024,
            pages_per_block=2048,
            blocks_per_chip=16 * 1024,
            num_chips=8,
        )
        mapping = MappingConfig(cache_entries=1 << 12)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dftl = DFTL(NandDevice(spec), mapping=mapping)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert dftl.num_lpns == spec.logical_pages
        assert allocated <= 16 * 2**20

    def test_4tb_geometry_constructs_and_serves(self):
        spec = NandSpec(
            page_size=16 * 1024,
            pages_per_block=2048,
            blocks_per_chip=16 * 1024,
            num_chips=8,
        )
        assert spec.physical_bytes >= 4 << 40
        assert spec.full_map_entries > 1 << 28
        dftl = DFTL(
            NandDevice(spec), mapping=MappingConfig(cache_entries=1 << 12)
        )
        assert isinstance(dftl.map, LazyPageMapTable)
        for lpn in (0, 1 << 20, spec.logical_pages - 1):
            dftl.host_write(lpn)
            assert dftl.host_read(lpn) > 0.0
        assert dftl.map.mapped_count == 3

    def test_scenario_spec_guards_full_map_ftls(self):
        spec = NandSpec(
            page_size=16 * 1024,
            pages_per_block=2048,
            blocks_per_chip=16 * 1024,
            num_chips=8,
        )
        from repro.scenario.spec import ScenarioSpec

        with pytest.raises(ConfigError, match="dftl"):
            ScenarioSpec(ftl="conventional", device=spec)
        # dftl on the same geometry is exactly what the guard suggests
        ScenarioSpec(
            ftl="dftl", device=spec, mapping=MappingConfig(cache_entries=1 << 12)
        )


class TestRegistration:
    def test_registered_everywhere(self):
        assert "dftl" in FTL_CLASSES and "dftl" in FTL_FACTORIES
        assert FTL_CLASSES["dftl"] is DFTL
        assert "dftl" in RELIABILITY_FTLS  # derived via ReliabilityHost

    def test_make_ftl_passes_mapping_through(self):
        ftl = make_ftl(
            "dftl", NandDevice(tiny_spec()), mapping=MappingConfig(cache_entries=9)
        )
        assert isinstance(ftl, DFTL)
        assert ftl.cache_entries == 9

    def test_reliability_and_refresh_attach(self):
        device = NandDevice(tiny_spec())
        manager = ReliabilityManager(device)
        dftl = DFTL(
            device,
            mapping=SMALL,
            reliability=manager,
            refresh=RefreshPolicy(manager),
        )
        _workload(dftl, writes=600)
        assert manager.stats.checked_reads > 0
        dftl.check_invariants()
        dftl.check_mapping_persistence()

    def test_scenario_roundtrips_with_mapping_section(self):
        from repro.scenario.serialize import spec_from_toml, spec_to_toml
        from repro.scenario.spec import ScenarioSpec

        spec = ScenarioSpec(
            ftl="dftl",
            device=sim_spec(blocks_per_chip=64),
            mapping=MappingConfig(cache_ratio=0.1, entries_per_page=256),
        )
        assert spec_from_toml(spec_to_toml(spec)) == spec

    def test_mapping_is_sweepable_by_dotted_path(self):
        from repro.scenario.spec import ScenarioSpec
        from repro.scenario.sweep import SweepAxis, sweep

        base = ScenarioSpec(ftl="dftl", device=sim_spec(blocks_per_chip=64))
        specs = sweep(base, [SweepAxis("mapping.cache_ratio", (0.05, 1.0))])
        assert [s.mapping.cache_ratio for s in specs] == [0.05, 1.0]
