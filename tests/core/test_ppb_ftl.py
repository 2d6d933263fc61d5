"""Tests for the full PPB strategy: placement, invariants, oracle."""

import numpy as np
import pytest

from repro.core.config import PPBConfig
from repro.core.hotness import Area, HotnessLevel
from repro.core.ppb_ftl import PPBFTL
from repro.core.virtual_block import VBState
from repro.ftl.mapping import UNMAPPED
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec


@pytest.fixture
def ftl() -> PPBFTL:
    return PPBFTL(NandDevice(tiny_spec()))


def _churn(ftl: PPBFTL, ops: int, seed: int = 0) -> dict[int, int]:
    """Mixed hot/cold workload; returns the oracle of latest versions."""
    rng = np.random.default_rng(seed)
    oracle: dict[int, int] = {}
    hot_set = list(range(32))
    for _ in range(ops):
        r = rng.random()
        if r < 0.25:
            lpn = hot_set[int(rng.integers(0, len(hot_set)))]
            ftl.host_write(lpn, nbytes=1024)  # small -> hot
            oracle[lpn] = ftl._op_sequence
        elif r < 0.4:
            lpn = int(rng.integers(0, ftl.num_lpns))
            ftl.host_write(lpn, nbytes=ftl.spec.page_size * 4)  # bulk -> cold
            oracle[lpn] = ftl._op_sequence
        elif r < 0.8:
            lpn = hot_set[int(rng.integers(0, len(hot_set)))]
            if lpn in oracle:
                ftl.host_read(lpn)
        else:
            lpn = int(rng.integers(0, ftl.num_lpns))
            if lpn in oracle:
                ftl.host_read(lpn)
    return oracle


class TestClassificationFlow:
    def test_small_write_lands_in_hot_area(self, ftl):
        ftl.host_write(0, nbytes=1024)
        assert ftl.current_level(0) is HotnessLevel.HOT
        pbn = ftl.geometry.pbn_of_ppn(ftl.map.ppn_of(0))
        assert ftl.vbmgr.area_of(pbn) is Area.HOT

    def test_bulk_write_lands_in_cold_area(self, ftl):
        ftl.host_write(0, nbytes=ftl.spec.page_size * 2)
        assert ftl.current_level(0) is HotnessLevel.ICY_COLD
        pbn = ftl.geometry.pbn_of_ppn(ftl.map.ppn_of(0))
        assert ftl.vbmgr.area_of(pbn) is Area.COLD

    def test_read_promotes_hot_to_iron(self, ftl):
        ftl.host_write(0, nbytes=1024)
        ftl.host_read(0)
        assert ftl.current_level(0) is HotnessLevel.IRON_HOT

    def test_read_promotes_icy_to_cold(self, ftl):
        ftl.host_write(0, nbytes=ftl.spec.page_size * 2)
        ftl.host_read(0)
        assert ftl.current_level(0) is HotnessLevel.COLD

    def test_reclassification_hot_to_cold(self, ftl):
        ftl.host_write(0, nbytes=1024)
        ftl.host_write(0, nbytes=ftl.spec.page_size * 2)
        assert ftl.current_level(0) is HotnessLevel.ICY_COLD
        assert 0 not in ftl._lru

    def test_reclassification_cold_to_hot(self, ftl):
        ftl.host_write(0, nbytes=ftl.spec.page_size * 2)
        ftl.host_write(0, nbytes=1024)
        assert ftl.current_level(0) is HotnessLevel.HOT
        assert 0 not in ftl._freq


class TestAreaSeparation:
    """The paper's core GC-safety property: no block mixes areas."""

    def test_no_block_ever_mixes_hot_and_cold(self, ftl):
        _churn(ftl, 8000)
        for pbn in range(ftl.spec.total_blocks):
            if not ftl.vbmgr.is_carved(pbn):
                continue
            areas = {vb.area for vb in ftl.vbmgr.vbs_of(pbn)}
            assert len(areas) == 1

    def test_iron_hot_data_concentrates_on_fast_pages(self, ftl):
        """Updates of a resident iron-hot working set land on fast pages.

        The working set must fit the iron list: a cyclic working set
        larger than the list rotates through it (every promotion demotes
        the next victim) and defeats any LRU-based scheme — real
        workloads are Zipf-skewed, which keeps the head resident.
        """
        iron_capacity = ftl._lru.iron_capacity
        working_set = list(range(min(12, iron_capacity - 2)))
        session_set = list(range(100, 200))
        rng = np.random.default_rng(0)
        # Fill 60% of the device with cold data so GC runs.
        for lpn in range(int(ftl.num_lpns * 0.6)):
            ftl.host_write(lpn, nbytes=ftl.spec.page_size * 4)
        for _ in range(60):
            for lpn in working_set:
                ftl.host_write(lpn, nbytes=1024)
                ftl.host_read(lpn)
            for _ in range(20):  # hot (write-only) traffic fills slow VBs
                lpn = session_set[int(rng.integers(0, len(session_set)))]
                ftl.host_write(lpn, nbytes=1024)
        half = ftl.spec.pages_per_block // 2
        placed_fast = 0
        total = 0
        for lpn in working_set:
            if ftl.current_level(lpn) is not HotnessLevel.IRON_HOT:
                continue
            total += 1
            if ftl.geometry.page_of_ppn(ftl.map.ppn_of(lpn)) >= half:
                placed_fast += 1
        assert total >= len(working_set) // 2
        assert placed_fast / total > 0.6


class TestInvariantsUnderChurn:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_oracle_and_mapping(self, seed):
        ftl = PPBFTL(NandDevice(tiny_spec()))
        oracle = _churn(ftl, 12_000, seed=seed)
        ftl.check_invariants()
        for lpn, seq in oracle.items():
            assert ftl.device.tag(ftl.map.ppn_of(lpn)) == (lpn, seq)

    def test_vb_states_consistent_after_churn(self, ftl):
        _churn(ftl, 8000)
        for pbn in range(ftl.spec.total_blocks):
            if not ftl.vbmgr.is_carved(pbn):
                continue
            next_page = ftl.device.write_ptr[pbn]
            for vb in ftl.vbmgr.vbs_of(pbn):
                if vb.state is VBState.USED:
                    assert next_page >= vb.end_page
                elif vb.state is VBState.FREE:
                    assert next_page <= vb.start_page

    def test_free_pool_never_empty(self, ftl):
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            lpn = int(rng.integers(0, ftl.num_lpns))
            nbytes = 1024 if rng.random() < 0.4 else ftl.spec.page_size * 4
            ftl.host_write(lpn, nbytes=nbytes)
            assert ftl.blocks.free_count > 0

    def test_trim_cleans_trackers(self, ftl):
        ftl.host_write(0, nbytes=1024)
        ftl.trim(0)
        assert ftl.map.ppn_of(0) == UNMAPPED
        ftl.check_invariants()


class TestConfigVariants:
    @pytest.mark.parametrize("discipline", ["pipelined", "strict"])
    def test_disciplines_preserve_data(self, discipline):
        config = PPBConfig(allocation_discipline=discipline)
        ftl = PPBFTL(NandDevice(tiny_spec()), config=config)
        oracle = _churn(ftl, 6000, seed=3)
        ftl.check_invariants()
        for lpn, seq in oracle.items():
            assert ftl.device.tag(ftl.map.ppn_of(lpn)) == (lpn, seq)

    @pytest.mark.parametrize("split", [2, 4])
    def test_k_way_split_preserves_data(self, split):
        config = PPBConfig(vb_split=split)
        ftl = PPBFTL(NandDevice(tiny_spec()), config=config)
        oracle = _churn(ftl, 6000, seed=4)
        ftl.check_invariants()
        for lpn, seq in oracle.items():
            assert ftl.device.tag(ftl.map.ppn_of(lpn)) == (lpn, seq)

    @pytest.mark.parametrize("identifier", ["two_level_lru", "multi_hash"])
    def test_alternative_identifiers(self, identifier):
        config = PPBConfig(identifier=identifier)
        ftl = PPBFTL(NandDevice(tiny_spec()), config=config)
        oracle = _churn(ftl, 6000, seed=6)
        ftl.check_invariants()
        for lpn, seq in oracle.items():
            assert ftl.device.tag(ftl.map.ppn_of(lpn)) == (lpn, seq)

    def test_migration_disabled(self):
        config = PPBConfig(gc_migration_batch=0)
        ftl = PPBFTL(NandDevice(tiny_spec()), config=config)
        _churn(ftl, 6000, seed=7)
        assert ftl.stats.extra.get("ppb.migrations", 0) == 0

    def test_migration_enabled_moves_pages(self, ftl):
        _churn(ftl, 12_000)
        assert ftl.stats.extra.get("ppb.migrations", 0) > 0


class TestReporting:
    def test_placement_report_keys(self, ftl):
        _churn(ftl, 3000)
        report = ftl.placement_report()
        assert "ppb.lru.promotions" in report
        assert "ppb.hot.pairs_opened" in report
        assert "ppb.cold.diverted_writes" in report

    def test_fast_read_fraction_range(self, ftl):
        _churn(ftl, 5000)
        assert 0.0 <= ftl.fast_page_read_fraction() <= 1.0

    def test_describe(self, ftl):
        text = ftl.describe()
        assert "split=2" in text and "size_check" in text
