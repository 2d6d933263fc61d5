"""Tests for the hot area's two-level LRU (paper Fig. 10a)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hotness import HotnessLevel
from repro.core.lru import TwoLevelLRU
from repro.errors import ConfigError


@pytest.fixture
def lru() -> TwoLevelLRU:
    return TwoLevelLRU(hot_capacity=4, iron_capacity=2)


class TestWritePath:
    def test_new_write_enters_hot_list(self, lru):
        evicted = lru.on_write(1)
        assert evicted == []
        assert lru.level_of(1) is HotnessLevel.HOT

    def test_iron_member_stays_iron_on_write(self, lru):
        lru.on_write(1)
        lru.on_read(1)  # promote
        assert lru.level_of(1) is HotnessLevel.IRON_HOT
        lru.on_write(1)  # update of iron-hot data
        assert lru.level_of(1) is HotnessLevel.IRON_HOT

    def test_hot_write_reports_its_level(self, lru):
        # PPB places a hot write by the level on_hot_write returns
        assert lru.on_hot_write(1) == (HotnessLevel.HOT, [])
        lru.on_read(1)
        assert lru.on_hot_write(1) == (HotnessLevel.IRON_HOT, [])

    def test_hot_overflow_evicts_lru(self, lru):
        for lpn in range(4):
            lru.on_write(lpn)
        evicted = lru.on_write(99)
        assert evicted == [0]
        assert lru.level_of(0) is None

    def test_rewrite_refreshes_recency(self, lru):
        for lpn in range(4):
            lru.on_write(lpn)
        lru.on_write(0)  # refresh 0: now 1 is the LRU
        evicted = lru.on_write(99)
        assert evicted == [1]


class TestReadPath:
    def test_read_promotes_hot_to_iron(self, lru):
        lru.on_write(1)
        lru.on_read(1)
        assert lru.level_of(1) is HotnessLevel.IRON_HOT
        assert lru.promotions == 1

    def test_read_of_untracked_is_noop(self, lru):
        assert lru.on_read(42) == []
        assert lru.level_of(42) is None

    def test_iron_overflow_demotes_to_hot(self, lru):
        for lpn in (1, 2, 3):
            lru.on_write(lpn)
            lru.on_read(lpn)
        # capacity 2: promoting 3 demoted LRU iron entry (1) back to hot
        assert lru.level_of(1) is HotnessLevel.HOT
        assert lru.level_of(2) is HotnessLevel.IRON_HOT
        assert lru.level_of(3) is HotnessLevel.IRON_HOT
        assert lru.demotions_to_hot == 1

    def test_demotion_cascade_can_evict(self):
        lru = TwoLevelLRU(hot_capacity=1, iron_capacity=1)
        lru.on_write(1)
        lru.on_read(1)          # 1 iron
        lru.on_write(2)         # 2 hot
        evicted = lru.on_read(2)  # 2 -> iron, demotes 1 -> hot (fits, cap 1)
        assert lru.level_of(2) is HotnessLevel.IRON_HOT
        assert lru.level_of(1) is HotnessLevel.HOT
        assert evicted == []
        lru.on_write(3)  # hot overflow -> evicts 1
        assert lru.level_of(1) is None


class TestDropAndSizes:
    def test_drop_removes_everywhere(self, lru):
        lru.on_write(1)
        lru.on_read(1)
        lru.drop(1)
        assert lru.level_of(1) is None
        lru.drop(1)  # idempotent

    def test_len_and_contains(self, lru):
        lru.on_write(1)
        lru.on_write(2)
        lru.on_read(1)
        assert len(lru) == 2
        assert 1 in lru and 2 in lru and 3 not in lru
        assert lru.level_of(1) is HotnessLevel.IRON_HOT
        assert lru.level_of(2) is HotnessLevel.HOT

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            TwoLevelLRU(0, 1)


class TestBoundedInvariant:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=300
        )
    )
    @settings(max_examples=100)
    def test_capacities_never_exceeded(self, ops):
        lru = TwoLevelLRU(hot_capacity=5, iron_capacity=3)
        for lpn, is_read in ops:
            if is_read:
                lru.on_read(lpn)
            else:
                lru.on_write(lpn)
            levels = [lru.level_of(tracked) for tracked in range(31)]
            assert levels.count(HotnessLevel.HOT) <= 5
            assert levels.count(HotnessLevel.IRON_HOT) <= 3
