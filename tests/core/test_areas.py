"""Tests for the hot and cold areas as PPBFTL builds them from PPBConfig.

The hot area is a :class:`TwoLevelLRU` and the cold area an
:class:`AccessFrequencyTable`, both sized by ``PPBConfig``'s capacities.
"""

import pytest

from repro.core.config import PPBConfig
from repro.core.freqtable import AccessFrequencyTable
from repro.core.hotness import HotnessLevel
from repro.core.lru import TwoLevelLRU


def make_hot_area(config: PPBConfig, num_lpns: int) -> TwoLevelLRU:
    return TwoLevelLRU(
        hot_capacity=config.hot_list_capacity(num_lpns),
        iron_capacity=config.iron_list_capacity(num_lpns),
    )


def make_cold_area(config: PPBConfig, num_lpns: int) -> AccessFrequencyTable:
    return AccessFrequencyTable(
        capacity=config.freq_table_capacity(num_lpns),
        promote_reads=config.cold_promote_reads,
        aging_period=config.freq_aging_period,
    )


@pytest.fixture
def hot_area() -> TwoLevelLRU:
    return make_hot_area(PPBConfig(), num_lpns=10_000)


@pytest.fixture
def cold_area() -> AccessFrequencyTable:
    return make_cold_area(PPBConfig(), num_lpns=10_000)


class TestHotArea:
    def test_new_write_is_hot_level(self, hot_area):
        level, evicted = hot_area.on_hot_write(1)
        assert level is HotnessLevel.HOT
        assert evicted == []

    def test_iron_member_update_stays_iron(self, hot_area):
        hot_area.on_hot_write(1)
        hot_area.on_read(1)
        level, _ = hot_area.on_hot_write(1)
        assert level is HotnessLevel.IRON_HOT

    def test_read_promotion_visible_via_level_of(self, hot_area):
        hot_area.on_hot_write(1)
        assert hot_area.level_of(1) is HotnessLevel.HOT
        hot_area.on_read(1)
        assert hot_area.level_of(1) is HotnessLevel.IRON_HOT

    def test_untracked_level_is_none(self, hot_area):
        assert hot_area.level_of(42) is None
        assert 42 not in hot_area

    def test_drop(self, hot_area):
        hot_area.on_hot_write(1)
        hot_area.drop(1)
        assert hot_area.level_of(1) is None

    def test_eviction_cascade_reported(self):
        config = PPBConfig(min_list_entries=16)
        area = make_hot_area(config, num_lpns=1)  # capacities collapse to 16
        evicted_total = []
        for lpn in range(40):
            _, evicted = area.on_hot_write(lpn)
            evicted_total.extend(evicted)
        assert evicted_total  # overflow spilled toward the cold area


class TestColdArea:
    def test_fresh_cold_write_is_icy(self, cold_area):
        cold_area.on_write(1)
        assert cold_area.level_of(1) is HotnessLevel.ICY_COLD

    def test_read_promotes(self, cold_area):
        cold_area.on_write(1)
        assert cold_area.on_read(1) is True
        assert cold_area.level_of(1) is HotnessLevel.COLD

    def test_update_demotes_back_to_icy(self, cold_area):
        cold_area.on_write(1)
        cold_area.on_read(1)
        cold_area.on_write(1)
        assert cold_area.level_of(1) is HotnessLevel.ICY_COLD

    def test_adopt_demoted_registers_as_icy(self, cold_area):
        # A chunk demoted from the hot area is taken over as a fresh write.
        cold_area.on_write(7)
        assert 7 in cold_area
        assert cold_area.level_of(7) is HotnessLevel.ICY_COLD

    def test_drop(self, cold_area):
        cold_area.on_write(1)
        cold_area.drop(1)
        assert 1 not in cold_area

    def test_untracked_is_icy(self, cold_area):
        assert cold_area.level_of(999) is HotnessLevel.ICY_COLD
