"""Tests for the bidirectional page map."""

import gc
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MappingError
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.mapping import UNMAPPED, PageMapTable
from repro.nand.device import NandDevice
from repro.nand.spec import sim_spec
from repro.sim.ssd import SSD


@pytest.fixture
def table() -> PageMapTable:
    return PageMapTable(num_lpns=32, num_ppns=64)


class TestBasicMapping:
    def test_starts_unmapped(self, table):
        assert table.ppn_of(0) == UNMAPPED
        assert table.lpn_of(0) == UNMAPPED

    def test_remap_establishes_both_directions(self, table):
        old = table.remap(3, 10)
        assert old == UNMAPPED
        assert table.ppn_of(3) == 10
        assert table.lpn_of(10) == 3
        assert table.mapped_count == 1

    def test_remap_returns_and_invalidates_old(self, table):
        table.remap(3, 10)
        old = table.remap(3, 11)
        assert old == 10
        assert table.lpn_of(10) == UNMAPPED
        assert table.ppn_of(3) == 11
        assert table.mapped_count == 1

    def test_remap_to_occupied_ppn_rejected(self, table):
        table.remap(1, 5)
        with pytest.raises(MappingError):
            table.remap(2, 5)

    def test_unmap(self, table):
        table.remap(1, 5)
        assert table.unmap(1) == 5
        assert table.ppn_of(1) == UNMAPPED
        assert table.mapped_count == 0

    def test_unmap_unmapped_is_noop(self, table):
        assert table.unmap(1) == UNMAPPED

    def test_range_checks(self, table):
        with pytest.raises(MappingError):
            table.ppn_of(32)
        with pytest.raises(MappingError):
            table.lpn_of(64)
        with pytest.raises(MappingError):
            table.remap(0, 64)


class TestBulkQueries:
    def test_valid_ppns_in_range(self, table):
        table.remap(0, 3)
        table.remap(1, 7)
        table.remap(2, 20)
        assert table.valid_ppns_in(range(0, 16)) == [3, 7]

    def test_clear_valid_ppn_rejected(self, table):
        table.remap(0, 3)
        with pytest.raises(MappingError):
            table.clear_ppn(3)


class TestConsistency:
    def test_check_passes_after_random_ops(self):
        table = PageMapTable(64, 128)
        import random

        rng = random.Random(42)
        next_ppn = 0
        for _ in range(300):
            lpn = rng.randrange(64)
            if rng.random() < 0.8 and next_ppn < 128:
                table.remap(lpn, next_ppn)
                next_ppn += 1
            else:
                table.unmap(lpn)
        table.check_consistency()

    @pytest.mark.parametrize("fault", ["stale_reverse", "orphan_reverse", "count"])
    def test_detects_each_inconsistency(self, table, fault):
        table.remap(1, 5)
        table.remap(2, 6)
        if fault == "stale_reverse":
            table.p2l[5] = 2  # l2p[1] = 5 no longer maps back
        elif fault == "orphan_reverse":
            table.p2l[9] = 3  # a valid page no LPN points at
        else:
            table.mapped_count += 1
        with pytest.raises(MappingError):
            table.check_consistency()

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 15), st.booleans()), min_size=0, max_size=60
        )
    )
    @settings(max_examples=100)
    def test_mapped_count_always_matches(self, ops):
        table = PageMapTable(16, 128)
        next_ppn = 0
        for lpn, write in ops:
            if write and next_ppn < 128:
                table.remap(lpn, next_ppn)
                next_ppn += 1
            else:
                table.unmap(lpn)
        table.check_consistency()


class TestClearPpn:
    """clear_ppn is an assert-only guard for block erase paths."""

    def test_clearing_invalid_page_is_a_no_op(self, table):
        # Never-written pages have no reverse entry to forget.
        table.clear_ppn(5)
        assert table.lpn_of(5) == UNMAPPED

    def test_superseded_copy_is_already_cleared(self, table):
        table.remap(3, 10)
        table.remap(3, 11)  # supersedes PPN 10
        # remap already forgot the reverse entry, so the guard passes...
        table.clear_ppn(10)
        assert table.lpn_of(10) == UNMAPPED
        # ...and the map is still consistent.
        table.check_consistency()

    def test_trimmed_page_is_already_cleared(self, table):
        table.remap(3, 10)
        table.unmap(3)
        table.clear_ppn(10)
        assert table.lpn_of(10) == UNMAPPED

    def test_clearing_valid_page_refuses(self, table):
        table.remap(3, 10)
        with pytest.raises(MappingError):
            table.clear_ppn(10)
        # The refusal must not have damaged the mapping.
        assert table.ppn_of(3) == 10
        table.check_consistency()


class TestColumnMemory:
    """The map holds its entries in place: no Python object per page."""

    #: Map bytes per mapped page after an 80% warm fill of ``sim_spec()``
    #: (73,137 mapped pages): 20.8 measured, 8 bytes for each of the 2.6
    #: l2p and p2l slots per mapped page.  Python lists of ints measured
    #: 84.5: one boxed ``int`` per mapped entry in each direction.
    MAX_BYTES_PER_MAPPED_PAGE = 24.0

    def test_warm_filled_map_bytes_per_mapped_page(self):
        tracemalloc.start()
        try:
            ftl = ConventionalFTL(NandDevice(sim_spec()))
            SSD(ftl).warm_fill(0.8)
            table = ftl.map
            for column in (table.l2p, table.p2l):
                assert isinstance(column, array) and column.typecode == "q"
            slots = table.num_lpns + table.num_ppns
            mapped = table.mapped_count
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            ftl.map = table = column = None
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # Dropping the map really freed it: at least its two columns.
        assert freed >= 8 * slots
        assert freed / mapped <= self.MAX_BYTES_PER_MAPPED_PAGE
