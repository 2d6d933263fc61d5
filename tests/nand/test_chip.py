"""Tests for the NAND chip rules the device enforces on every block:
ascending-order programming, erase-before-write, reads of data only,
asymmetric per-page timing, page tags and page-state memory."""

import tracemalloc

import pytest

import repro.nand.device
from repro.errors import AddressError, ProgramOrderError, ReadFreePageError
from repro.nand.device import NandDevice
from repro.nand.spec import sim_spec, tiny_spec

PAGES = tiny_spec().pages_per_block


def ppn(block: int, page: int) -> int:
    """Flat address of ``page`` in block ``block`` of a tiny_spec device."""
    return block * PAGES + page


def is_programmed(device: NandDevice, block: int, page: int) -> bool:
    return bool(device.programmed[block][page])


@pytest.fixture
def chip() -> NandDevice:
    return NandDevice(tiny_spec())


class TestProgramOrder:
    def test_in_order_programming_works(self, chip):
        for page in range(PAGES):
            chip.program_ppn(ppn(0, page))
        assert chip.write_ptr[0] == PAGES

    def test_backward_program_rejected(self, chip):
        chip.program_ppn(ppn(0, 0))
        chip.program_ppn(ppn(0, 1))
        with pytest.raises(ProgramOrderError):
            chip.program_ppn(ppn(0, 0))

    def test_reprogram_same_page_rejected(self, chip):
        chip.program_ppn(ppn(0, 0))
        with pytest.raises(ProgramOrderError):
            chip.program_ppn(ppn(0, 0))

    def test_skip_forward_allowed(self, chip):
        chip.program_ppn(ppn(0, 0))
        chip.program_ppn(ppn(0, 5))  # skipping pages 1-4 is legal NAND behaviour
        assert chip.write_ptr[0] == 6
        assert not is_programmed(chip, 0, 3)
        assert is_programmed(chip, 0, 5)

    def test_skipped_page_cannot_be_filled_later(self, chip):
        chip.program_ppn(ppn(0, 5))
        with pytest.raises(ProgramOrderError):
            chip.program_ppn(ppn(0, 3))


class TestEraseBeforeWrite:
    def test_erase_resets_write_pointer(self, chip):
        for page in range(PAGES):
            chip.program_ppn(ppn(0, page))
        chip.erase_pbn(0)
        assert chip.write_ptr[0] == 0
        chip.program_ppn(ppn(0, 0))  # programmable again

    def test_erase_clears_programmed_state(self, chip):
        chip.program_ppn(ppn(0, 0))
        chip.erase_pbn(0)
        assert not is_programmed(chip, 0, 0)

    def test_erase_count_accumulates(self, chip):
        assert chip.erase_count(3) == 0
        chip.erase_pbn(3)
        chip.erase_pbn(3)
        assert chip.erase_count(3) == 2
        assert sum(chip.erase_counts) == 2


class TestReads:
    def test_read_programmed_page(self, chip):
        chip.program_ppn(ppn(0, 0))
        latency = chip.read_ppn(ppn(0, 0))
        assert latency > 0

    def test_read_free_page_rejected(self, chip):
        with pytest.raises(ReadFreePageError):
            chip.read_ppn(ppn(0, 0))

    def test_read_after_erase_rejected(self, chip):
        chip.program_ppn(ppn(0, 0))
        chip.erase_pbn(0)
        with pytest.raises(ReadFreePageError):
            chip.read_ppn(ppn(0, 0))


class TestAsymmetricTiming:
    def test_first_page_program_read_slower(self):
        chip = NandDevice(tiny_spec(speed_ratio=3.0, program_asymmetry=1.0))
        slow_prog = chip.program_ppn(ppn(0, 0))
        for page in range(1, PAGES):
            chip.program_ppn(ppn(0, page))
        fast_prog = chip.latency.program_total_us[PAGES - 1]
        assert slow_prog > fast_prog
        slow_read = chip.read_ppn(ppn(0, 0))
        fast_read = chip.read_ppn(ppn(0, PAGES - 1))
        assert slow_read > fast_read

    def test_read_ratio_matches_spec(self):
        chip = NandDevice(tiny_spec(speed_ratio=4.0))
        for page in range(PAGES):
            chip.program_ppn(ppn(0, page))
        # Copyback reads are array-only (no bus transfer).
        slow, _ = chip.copy_page(ppn(0, 0), ppn(1, 0))
        fast, _ = chip.copy_page(ppn(0, PAGES - 1), ppn(1, 1))
        assert slow / fast == pytest.approx(4.0)


class TestTags:
    def test_tag_round_trip(self, chip):
        chip.program_ppn(ppn(0, 0), lpn=3, version=7)
        assert chip.tag(ppn(0, 0)) == (3, 7)

    def test_untagged_page_returns_none(self, chip):
        chip.program_ppn(ppn(0, 0))
        assert chip.tag(ppn(0, 0)) is None

    def test_erase_drops_tags(self, chip):
        chip.program_ppn(ppn(0, 0), lpn=1, version=2)
        chip.erase_pbn(0)
        assert chip.tag(ppn(0, 0)) is None

    def test_untagged_program_after_erase_reads_none(self, chip):
        chip.program_ppn(ppn(0, 0), lpn=1, version=2)
        chip.program_ppn(ppn(0, 1), lpn=4, version=5)
        chip.erase_pbn(0)
        chip.program_ppn(ppn(0, 0))
        assert chip.tag(ppn(0, 0)) is None
        assert chip.tag(ppn(0, 1)) is None

    def test_untagged_page_beside_tagged_reads_none(self, chip):
        chip.program_ppn(ppn(0, 0), lpn=1, version=2)
        chip.program_ppn(ppn(0, 1))
        assert chip.tag(ppn(0, 0)) == (1, 2)
        assert chip.tag(ppn(0, 1)) is None

    def test_negative_lpn_and_zero_version_round_trip(self, chip):
        chip.program_ppn(ppn(0, 0), lpn=-1, version=0)
        assert chip.tag(ppn(0, 0)) == (-1, 0)

    def test_copyback_carries_the_tag(self, chip):
        chip.program_ppn(ppn(0, 0), lpn=9, version=11)
        chip.program_ppn(ppn(0, 1))
        chip.copy_page(ppn(0, 0), ppn(1, 0))
        chip.copy_page(ppn(0, 1), ppn(1, 1))
        assert chip.tag(ppn(1, 0)) == (9, 11)
        assert chip.tag(ppn(1, 1)) is None


class TestPageStateMemory:
    def test_page_state_grows_with_programmed_blocks_and_is_freed_at_erase(self):
        spec = sim_spec()  # 256 blocks of 384 pages
        pages = spec.pages_per_block
        state_filter = [tracemalloc.Filter(True, repro.nand.device.__file__)]

        def state_bytes():
            # Only what the device module allocates: its page state, not
            # the latency tables it builds through LatencyModel.
            snapshot = tracemalloc.take_snapshot().filter_traces(state_filter)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        def fill(device, blocks):
            for block in blocks:
                for page in range(pages):
                    device.program_ppn(
                        block * pages + page, lpn=block * pages + page, version=page
                    )

        tracemalloc.start()
        try:
            device = NandDevice(spec)
            empty = state_bytes()
            fill(device, range(8))
            eight = state_bytes()
            fill(device, range(8, 16))
            sixteen = state_bytes()
            for block in range(16):
                device.erase_pbn(block)
            erased = state_bytes()
        finally:
            tracemalloc.stop()
        # No per-page state up front: a bitmap per block would be 1 B a page.
        assert empty < spec.total_blocks * pages // 4
        # A programmed block costs its bitmap (1 B a page) and its tags
        # (16 B a page), and nothing else.
        assert (sixteen - eight) / 8 <= 18 * pages
        assert eight - empty <= 8 * 18 * pages
        # Erase hands both back.
        assert erased - empty < 16 * pages // 2
        assert device.tag(0) is None and not is_programmed(device, 0, 0)


class TestStats:
    def test_address_checks(self, chip):
        with pytest.raises(AddressError):
            chip.program_ppn(chip.spec.total_pages)
        with pytest.raises(AddressError):
            chip.read_ppn(-1)
        with pytest.raises(AddressError):
            chip.erase_pbn(chip.spec.total_blocks)
