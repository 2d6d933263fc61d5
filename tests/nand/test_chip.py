"""Tests for the NAND chip command model (hardware rule enforcement)."""

import tracemalloc

import pytest

from repro.errors import AddressError, ProgramOrderError, ReadFreePageError
from repro.nand.chip import NandChip
from repro.nand.latency import LatencyModel
from repro.nand.spec import sim_spec, tiny_spec


@pytest.fixture
def chip() -> NandChip:
    return NandChip(0, tiny_spec())


class TestProgramOrder:
    def test_in_order_programming_works(self, chip):
        for page in range(16):
            chip.program(0, page)
        assert chip.is_block_full(0)

    def test_backward_program_rejected(self, chip):
        chip.program(0, 0)
        chip.program(0, 1)
        with pytest.raises(ProgramOrderError):
            chip.program(0, 0)

    def test_reprogram_same_page_rejected(self, chip):
        chip.program(0, 0)
        with pytest.raises(ProgramOrderError):
            chip.program(0, 0)

    def test_skip_forward_allowed(self, chip):
        chip.program(0, 0)
        chip.program(0, 5)  # skipping pages 1-4 is legal NAND behaviour
        assert chip.next_page(0) == 6
        assert not chip.is_programmed(0, 3)
        assert chip.is_programmed(0, 5)

    def test_skipped_page_cannot_be_filled_later(self, chip):
        chip.program(0, 5)
        with pytest.raises(ProgramOrderError):
            chip.program(0, 3)


class TestEraseBeforeWrite:
    def test_erase_resets_write_pointer(self, chip):
        for page in range(16):
            chip.program(0, page)
        chip.erase(0)
        assert chip.next_page(0) == 0
        chip.program(0, 0)  # programmable again

    def test_erase_clears_programmed_state(self, chip):
        chip.program(0, 0)
        chip.erase(0)
        assert not chip.is_programmed(0, 0)

    def test_erase_count_accumulates(self, chip):
        assert chip.erase_count(3) == 0
        chip.erase(3)
        chip.erase(3)
        assert chip.erase_count(3) == 2


class TestReads:
    def test_read_programmed_page(self, chip):
        chip.program(0, 0)
        latency = chip.read(0, 0)
        assert latency > 0

    def test_read_free_page_rejected(self, chip):
        with pytest.raises(ReadFreePageError):
            chip.read(0, 0)

    def test_read_after_erase_rejected(self, chip):
        chip.program(0, 0)
        chip.erase(0)
        with pytest.raises(ReadFreePageError):
            chip.read(0, 0)


class TestAsymmetricTiming:
    def test_first_page_program_read_slower(self):
        chip = NandChip(0, tiny_spec(speed_ratio=3.0, program_asymmetry=1.0))
        slow_prog = chip.program(0, 0)
        for page in range(1, 16):
            chip.program(0, page)
        fast_prog = chip.latency.program_us(15)
        assert slow_prog > fast_prog
        slow_read = chip.read(0, 0)
        fast_read = chip.read(0, 15)
        assert slow_read > fast_read

    def test_read_ratio_matches_spec(self):
        spec = tiny_spec(speed_ratio=4.0)
        chip = NandChip(0, spec)
        for page in range(16):
            chip.program(0, page)
        slow = chip.read(0, 0, include_transfer=False)
        fast = chip.read(0, 15, include_transfer=False)
        assert slow / fast == pytest.approx(4.0)


class TestTags:
    def test_tag_round_trip(self, chip):
        chip.program(0, 0, lpn=3, version=7)
        assert chip.tag(0, 0) == (3, 7)

    def test_untagged_page_returns_none(self, chip):
        chip.program(0, 0)
        assert chip.tag(0, 0) is None

    def test_erase_drops_tags(self, chip):
        chip.program(0, 0, lpn=1, version=2)
        chip.erase(0)
        assert chip.tag(0, 0) is None

    def test_untagged_program_after_erase_reads_none(self, chip):
        chip.program(0, 0, lpn=1, version=2)
        chip.program(0, 1, lpn=4, version=5)
        chip.erase(0)
        chip.program(0, 0)
        assert chip.tag(0, 0) is None
        assert chip.tag(0, 1) is None

    def test_untagged_page_beside_tagged_reads_none(self, chip):
        chip.program(0, 0, lpn=1, version=2)
        chip.program(0, 1)
        assert chip.tag(0, 0) == (1, 2)
        assert chip.tag(0, 1) is None

    def test_negative_lpn_and_zero_version_round_trip(self, chip):
        chip.program(0, 0, lpn=-1, version=0)
        assert chip.tag(0, 0) == (-1, 0)

    def test_copyback_carries_the_tag(self, chip):
        chip.program(0, 0, lpn=9, version=11)
        chip.program(0, 1)
        chip.copyback(0, 0, 1, 0)
        chip.copyback(0, 1, 1, 1)
        assert chip.tag(1, 0) == (9, 11)
        assert chip.tag(1, 1) is None


class TestPageStateMemory:
    def test_page_state_grows_with_programmed_blocks_and_is_freed_at_erase(self):
        spec = sim_spec()  # 256 blocks of 384 pages
        pages = spec.pages_per_block
        latency = LatencyModel(spec)

        def fill(chip, blocks):
            for block in blocks:
                for page in range(pages):
                    chip.program(block, page, lpn=block * pages + page, version=page)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            chip = NandChip(0, spec, latency)
            empty = tracemalloc.get_traced_memory()[0] - base
            fill(chip, range(8))
            eight = tracemalloc.get_traced_memory()[0] - base
            fill(chip, range(8, 16))
            sixteen = tracemalloc.get_traced_memory()[0] - base
            for block in range(16):
                chip.erase(block)
            erased = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # No per-page state up front: a bitmap per block would be 1 B a page.
        assert empty < spec.blocks_per_chip * pages // 4
        # A programmed block costs its bitmap (1 B a page) and its tags
        # (16 B a page), and nothing else.
        assert (sixteen - eight) / 8 <= 18 * pages
        assert eight - empty <= 8 * 18 * pages
        # Erase hands both back.
        assert erased - empty < 16 * pages // 2
        assert chip.tag(0, 0) is None and not chip.is_programmed(0, 0)


class TestStats:
    def test_counters_accumulate(self, chip):
        chip.program(0, 0)
        chip.program(0, 1)
        chip.read(0, 0)
        chip.erase(1)
        assert chip.stats.programs == 2
        assert chip.stats.reads == 1
        assert chip.stats.erases == 1
        assert chip.stats.total_us > 0

    def test_address_checks(self, chip):
        with pytest.raises(AddressError):
            chip.program(64, 0)
        with pytest.raises(AddressError):
            chip.read(0, 16)
