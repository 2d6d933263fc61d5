"""Tests for block state and valid-count accounting."""

import pytest

from repro.errors import FtlError, OutOfSpaceError
from repro.ftl.blockinfo import BlockManager, BlockState


@pytest.fixture
def blocks() -> BlockManager:
    return BlockManager(num_blocks=8, pages_per_block=4)


class TestFreePool:
    def test_all_free_initially(self, blocks):
        assert blocks.free_count == 8
        assert all(blocks.state[b] == BlockState.FREE for b in range(8))

    def test_allocate_opens(self, blocks):
        pbn = blocks.allocate()
        assert blocks.state[pbn] == BlockState.OPEN
        assert blocks.free_count == 7

    def test_exhaustion_raises(self, blocks):
        for _ in range(8):
            blocks.allocate()
        with pytest.raises(OutOfSpaceError):
            blocks.allocate()

    def test_release_returns_to_pool(self, blocks):
        pbn = blocks.allocate()
        blocks.release(pbn)
        assert blocks.free_count == 8
        assert blocks.state[pbn] == BlockState.FREE

    def test_release_with_valid_pages_rejected(self, blocks):
        pbn = blocks.allocate()
        blocks.note_program_valid(pbn)
        with pytest.raises(FtlError):
            blocks.release(pbn)


class TestValidCounts:
    def test_program_and_invalidate(self, blocks):
        pbn = blocks.allocate()
        blocks.note_program_valid(pbn)
        blocks.note_program_valid(pbn)
        assert blocks.valid_of(pbn) == 2
        blocks.note_invalidate(pbn)
        assert blocks.valid_of(pbn) == 1

    def test_overflow_rejected(self, blocks):
        pbn = blocks.allocate()
        for _ in range(4):
            blocks.note_program_valid(pbn)
        with pytest.raises(FtlError):
            blocks.note_program_valid(pbn)

    def test_underflow_rejected(self, blocks):
        pbn = blocks.allocate()
        with pytest.raises(FtlError):
            blocks.note_invalidate(pbn)

    def test_total_valid(self, blocks):
        a, b = blocks.allocate(), blocks.allocate()
        blocks.note_program_valid(a)
        blocks.note_program_valid(b)
        blocks.note_program_valid(b)
        assert blocks.total_valid() == 3


class TestVictimCandidates:
    def test_only_full_blocks(self, blocks):
        a = blocks.allocate()
        b = blocks.allocate()
        blocks.note_full(a)
        candidates = blocks.victim_candidates()
        assert list(candidates) == [a]

    def test_exclusion(self, blocks):
        a = blocks.allocate()
        blocks.note_full(a)
        assert blocks.victim_candidates(exclude={a}).size == 0

    def test_erase_requires_zero_valid(self, blocks):
        a = blocks.allocate()
        blocks.note_program_valid(a)
        with pytest.raises(FtlError):
            blocks.note_erased(a)


class TestPlaneStripedOrder:
    def test_single_plane_is_chip_striped(self):
        from repro.ftl.blockinfo import chip_striped_order, plane_striped_order

        assert plane_striped_order(8, 4, 1) == chip_striped_order(8, 4)

    def test_interleaves_chips_then_planes(self):
        from repro.ftl.blockinfo import plane_striped_order

        # 2 chips x 4 blocks, 2 planes: slot j of (chip c, plane p) is
        # block c*4 + p + j*2, walked slot-major so consecutive
        # allocations land on different chips *and* planes.
        assert plane_striped_order(8, 4, 2) == [0, 1, 4, 5, 2, 3, 6, 7]

    def test_is_a_permutation(self):
        from repro.ftl.blockinfo import plane_striped_order

        order = plane_striped_order(24, 12, 4)
        assert sorted(order) == list(range(24))


class TestPlaneGroups:
    def test_single_plane_has_no_groups(self):
        from repro.ftl.blockinfo import plane_groups

        assert plane_groups(8, 4, 1) is None

    def test_groups_are_chip_plane_pairs(self):
        from repro.ftl.blockinfo import plane_groups

        # group = chip * planes + (in-chip block % planes)
        assert plane_groups(8, 4, 2) == [0, 1, 0, 1, 2, 3, 2, 3]


class TestGroupedManager:
    @pytest.fixture
    def grouped(self) -> BlockManager:
        from repro.ftl.blockinfo import plane_groups, plane_striped_order

        return BlockManager(
            num_blocks=8,
            pages_per_block=4,
            free_order=plane_striped_order(8, 4, 2),
            group_of=plane_groups(8, 4, 2),
        )

    def test_free_pool_sentinel(self, grouped):
        # Grouped mode has no single FIFO; stale callers must fail loud.
        assert grouped.free_pool is None
        assert grouped.free_count == 8

    def test_allocate_rotates_across_groups(self, grouped):
        # Rotation visits every (chip, plane) group before repeating one.
        groups = [grouped.group_of[grouped.allocate()] for _ in range(4)]
        assert sorted(groups) == [0, 1, 2, 3]

    def test_allocate_in_group_is_targeted(self, grouped):
        for group in (3, 1, 0, 2):
            pbn = grouped.allocate_in_group(group)
            assert grouped.group_of[pbn] == group

    def test_allocate_in_group_falls_back_when_dry(self, grouped):
        a = grouped.allocate_in_group(0)
        b = grouped.allocate_in_group(0)
        assert grouped.group_of[a] == grouped.group_of[b] == 0
        # group 0 held two blocks; the third ask rotates to another group
        c = grouped.allocate_in_group(0)
        assert grouped.group_of[c] != 0

    def test_release_returns_to_its_group(self, grouped):
        pbn = grouped.allocate_in_group(2)
        grouped.release(pbn)
        assert grouped.free_count == 8
        assert grouped.allocate_in_group(2) in (
            pbn,
            *[b for b in range(8) if grouped.group_of[b] == 2],
        )

    def test_exhaustion_raises(self, grouped):
        for _ in range(8):
            grouped.allocate()
        with pytest.raises(OutOfSpaceError):
            grouped.allocate()
        with pytest.raises(OutOfSpaceError):
            grouped.allocate_in_group(0)

    def test_bad_group_rejected(self, grouped):
        with pytest.raises(FtlError):
            grouped.allocate_in_group(4)
