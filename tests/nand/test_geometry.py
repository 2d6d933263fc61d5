"""Tests for flat/structured address translation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError
from repro.nand.geometry import Geometry
from repro.nand.spec import tiny_spec

from tests.nand.addresses import pbn_at, ppn_at


@pytest.fixture
def geometry() -> Geometry:
    return Geometry(tiny_spec(num_chips=2))


def _coordinates(geometry: Geometry, ppn: int) -> tuple[int, int, int]:
    """``(chip, block_in_chip, page)`` of a flat PPN, from the flat helpers."""
    block = geometry.pbn_of_ppn(ppn) % geometry.blocks_per_chip
    return geometry.chip_of_ppn(ppn), block, geometry.page_of_ppn(ppn)


class TestPpnRoundTrip:
    def test_first_ppn(self, geometry):
        assert _coordinates(geometry, 0) == (0, 0, 0)

    def test_last_ppn(self, geometry):
        last = geometry.total_pages - 1
        chip, block, page = _coordinates(geometry, last)
        assert chip == geometry.num_chips - 1
        assert block == geometry.blocks_per_chip - 1
        assert page == geometry.pages_per_block - 1

    def test_make_then_split(self, geometry):
        ppn = ppn_at(geometry, 1, 3, 7)
        assert _coordinates(geometry, ppn) == (1, 3, 7)

    @given(ppn=st.integers(min_value=0, max_value=2 * 64 * 16 - 1))
    @settings(max_examples=200)
    def test_round_trip_everywhere(self, ppn):
        geometry = Geometry(tiny_spec(num_chips=2))
        chip, block, page = _coordinates(geometry, ppn)
        assert ppn_at(geometry, chip, block, page) == ppn

    def test_out_of_range_rejected(self, geometry):
        with pytest.raises(AddressError):
            geometry.pbn_of_ppn(geometry.total_pages)
        with pytest.raises(AddressError):
            geometry.chip_of_ppn(-1)
        with pytest.raises(AddressError):
            geometry.page_of_ppn(geometry.total_pages)


class TestPbnRoundTrip:
    def test_make_then_split(self, geometry):
        pbn = pbn_at(geometry, 1, 5)
        assert divmod(pbn, geometry.blocks_per_chip) == (1, 5)
        assert geometry.chip_of_ppn(geometry.first_ppn_of_pbn(pbn)) == 1

    @given(pbn=st.integers(min_value=0, max_value=2 * 64 - 1))
    @settings(max_examples=100)
    def test_round_trip_everywhere(self, pbn):
        geometry = Geometry(tiny_spec(num_chips=2))
        chip = geometry.chip_of_ppn(geometry.first_ppn_of_pbn(pbn))
        assert pbn_at(geometry, chip, pbn % geometry.blocks_per_chip) == pbn

    def test_out_of_range_rejected(self, geometry):
        with pytest.raises(AddressError):
            geometry.first_ppn_of_pbn(geometry.total_blocks)
        with pytest.raises(AddressError):
            geometry.ppn_range_of_pbn(-1)


class TestBlockPageRelations:
    def test_pbn_of_ppn_consistent(self, geometry):
        for ppn in (0, 15, 16, 17, geometry.total_pages - 1):
            pbn = geometry.pbn_of_ppn(ppn)
            assert ppn in geometry.ppn_range_of_pbn(pbn)

    def test_page_of_ppn(self, geometry):
        assert geometry.page_of_ppn(0) == 0
        assert geometry.page_of_ppn(16) == 0
        assert geometry.page_of_ppn(17) == 1

    def test_ppn_range_length(self, geometry):
        assert len(geometry.ppn_range_of_pbn(0)) == geometry.pages_per_block

    def test_ppn_ranges_partition_space(self, geometry):
        seen = set()
        for pbn in range(geometry.total_blocks):
            for ppn in geometry.ppn_range_of_pbn(pbn):
                assert ppn not in seen
                seen.add(ppn)
        assert len(seen) == geometry.total_pages


class TestChannelTopology:
    def test_channel_of_chip_interleaves(self):
        geometry = Geometry(tiny_spec(num_chips=4, num_channels=2))
        assert [geometry.channel_of_chip(c) for c in range(4)] == [0, 1, 0, 1]
        with pytest.raises(AddressError):
            geometry.channel_of_chip(4)

    def test_chip_of_ppn(self, geometry):
        spec = geometry.spec
        last_of_chip0 = spec.blocks_per_chip * spec.pages_per_block - 1
        assert geometry.chip_of_ppn(0) == 0
        assert geometry.chip_of_ppn(last_of_chip0) == 0
        assert geometry.chip_of_ppn(last_of_chip0 + 1) == 1
        with pytest.raises(AddressError):
            geometry.chip_of_ppn(geometry.total_pages)
