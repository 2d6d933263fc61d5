"""Tests for the cold area's access-frequency table (paper Fig. 11a)."""

import heapq
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.freqtable import AccessFrequencyTable
from repro.core.hotness import HotnessLevel
from repro.errors import ConfigError


class TestClassification:
    def test_untracked_is_icy(self):
        table = AccessFrequencyTable(capacity=8)
        assert table.level_of(1) is HotnessLevel.ICY_COLD

    def test_fresh_write_is_icy(self):
        table = AccessFrequencyTable(capacity=8)
        table.on_write(1)
        assert 1 in table
        assert table.level_of(1) is HotnessLevel.ICY_COLD

    def test_read_promotes_to_cold(self):
        table = AccessFrequencyTable(capacity=8, promote_reads=1)
        table.on_write(1)
        assert table.on_read(1) is True
        assert table.level_of(1) is HotnessLevel.COLD

    def test_higher_threshold(self):
        table = AccessFrequencyTable(capacity=8, promote_reads=3)
        table.on_write(1)
        assert table.on_read(1) is False
        assert table.on_read(1) is False
        assert table.on_read(1) is True
        assert table.level_of(1) is HotnessLevel.COLD

    def test_update_demotes_cold_to_icy(self):
        # cold data that gets rewritten is no longer write-once (Fig. 11b)
        table = AccessFrequencyTable(capacity=8, promote_reads=1)
        table.on_write(1)
        table.on_read(1)
        table.on_write(1)
        assert table.level_of(1) is HotnessLevel.ICY_COLD


class TestCapacityAndAging:
    def test_capacity_bounded(self):
        table = AccessFrequencyTable(capacity=4, aging_period=0)
        for lpn in range(50):
            table.on_write(lpn)
        assert len(table) <= 4
        assert table.evictions > 0

    def test_eviction_prefers_low_counts(self):
        table = AccessFrequencyTable(capacity=4, aging_period=0)
        table.on_write(0)
        for _ in range(5):
            table.on_read(0)  # high count, should survive
        for lpn in range(1, 10):
            table.on_write(lpn)
        assert 0 in table

    def test_aging_halves_counts(self):
        table = AccessFrequencyTable(capacity=8, promote_reads=2, aging_period=5)
        table.on_write(1)
        table.on_read(1)
        table.on_read(1)  # count 2 -> COLD
        assert table.level_of(1) is HotnessLevel.COLD
        for _ in range(5):
            table.on_write(2)  # tick the ager
        assert table.agings >= 1
        assert table.count_of(1) <= 1  # halved
        assert table.level_of(1) is HotnessLevel.ICY_COLD

    def test_aging_disabled(self):
        table = AccessFrequencyTable(capacity=8, aging_period=0)
        for _ in range(100):
            table.on_write(1)
        assert table.agings == 0

    def test_drop(self):
        table = AccessFrequencyTable(capacity=8)
        table.on_write(1)
        table.drop(1)
        assert 1 not in table
        table.drop(1)  # idempotent


class TestValidation:
    @pytest.mark.parametrize("kwargs", [{"capacity": 0}, {"promote_reads": 0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            AccessFrequencyTable(**{"capacity": 8, **kwargs})


class TestBoundedInvariant:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=400
        )
    )
    @settings(max_examples=75)
    def test_never_exceeds_capacity(self, ops):
        table = AccessFrequencyTable(capacity=10, aging_period=50)
        for lpn, is_read in ops:
            if is_read:
                table.on_read(lpn)
            else:
                table.on_write(lpn)
            assert len(table) <= 10 + 1  # transiently one over before eviction
        assert len(table) <= 10


class NsmallestTable:
    """Reference eviction: one ``heapq.nsmallest`` scan per batch.

    ``nsmallest`` is stable, so among equal counts it keeps the oldest
    entries first; the table must evict exactly the same entries.
    """

    def __init__(self, capacity, aging_period):
        self.capacity = capacity
        self.aging_period = aging_period
        self.counts = {}
        self.events = 0
        self.evictions = 0

    def on_write(self, lpn):
        self.counts[lpn] = 0
        self._after_event()

    def on_read(self, lpn):
        self.counts[lpn] = self.counts.get(lpn, 0) + 1
        self._after_event()

    def drop(self, lpn):
        self.counts.pop(lpn, None)

    def _after_event(self):
        counts = self.counts
        if len(counts) > self.capacity:
            batch = max(1, self.capacity // 64, len(counts) - self.capacity)
            victims = heapq.nsmallest(batch, counts.items(), key=lambda item: item[1])
            for lpn, _ in victims:
                del counts[lpn]
            self.evictions += len(victims)
        if self.aging_period:
            self.events += 1
            if self.events >= self.aging_period:
                self.counts = {lpn: c >> 1 for lpn, c in counts.items()}
                self.events = 0


@st.composite
def table_programs(draw):
    """A capacity, an aging period and an operation list.

    The list first fills the table and reads every entry one to three
    times.  In the larger tables, whose batches evict several entries,
    the first new writes then leave fewer zero counts than one batch,
    so the eviction must take every zero plus the oldest entries at a
    higher cut-off.  Then come runs of one operation over consecutive
    LPNs.
    """
    capacity = draw(st.sampled_from([1, 3, 10, 130, 260]))
    aging_period = draw(st.sampled_from([0, 7, 50, 300]))
    space = 2 * capacity + 4
    reads = draw(st.lists(st.integers(1, 3), min_size=capacity, max_size=capacity))
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["on_write", "on_read", "on_read", "drop"]),
                st.integers(0, space - 1),
                st.integers(1, 40),
            ),
            min_size=1,
            max_size=120,
        )
    )
    ops = [("on_write", lpn) for lpn in range(capacity)]
    ops += [("on_read", lpn) for lpn, n in enumerate(reads) for _ in range(n)]
    ops += [(op, (start + i) % space) for op, start, length in runs for i in range(length)]
    return capacity, aging_period, ops


class TestEvictionEquivalence:
    @given(program=table_programs())
    @settings(max_examples=60, deadline=None)
    def test_matches_nsmallest_reference(self, program):
        capacity, aging_period, ops = program
        table = AccessFrequencyTable(capacity=capacity, aging_period=aging_period)
        reference = NsmallestTable(capacity, aging_period)
        for op, lpn in ops:
            getattr(table, op)(lpn)
            getattr(reference, op)(lpn)
            assert list(table._counts.items()) == list(reference.counts.items())
            assert table.evictions == reference.evictions
            assert table._histogram == Counter(table._counts.values())
