"""Tests for virtual block carving and lifecycle (paper Section 3.3)."""

import pytest

from repro.core.hotness import Area
from repro.core.virtual_block import VBState, VirtualBlock, VirtualBlockManager
from repro.errors import VirtualBlockError
from repro.nand.spec import tiny_spec


@pytest.fixture
def vbmgr() -> VirtualBlockManager:
    return VirtualBlockManager(tiny_spec(), split=2)  # 16 pages -> 8 + 8


class TestCarving:
    def test_carve_produces_split_vbs(self, vbmgr):
        vbs = vbmgr.carve(0, Area.HOT)
        assert len(vbs) == 2
        assert vbs[0].start_page == 0 and vbs[0].end_page == 8
        assert vbs[1].start_page == 8 and vbs[1].end_page == 16

    def test_vbn_numbering_matches_paper(self, vbmgr):
        # physical block n -> virtual blocks 2n and 2n+1 (Fig. 7)
        vbs = vbmgr.carve(5, Area.COLD)
        assert vbs[0].vbn == 10
        assert vbs[1].vbn == 11

    def test_slow_vb_opens_first(self, vbmgr):
        vbs = vbmgr.carve(0, Area.HOT)
        assert vbs[0].state is VBState.ALLOCATED
        assert vbs[1].state is VBState.FREE

    def test_speed_classes(self, vbmgr):
        vbs = vbmgr.carve(0, Area.HOT)
        assert not vbs[0].is_fast
        assert vbs[1].is_fast

    def test_double_carve_rejected(self, vbmgr):
        vbmgr.carve(0, Area.HOT)
        with pytest.raises(VirtualBlockError):
            vbmgr.carve(0, Area.COLD)

    def test_whole_pair_serves_one_area(self, vbmgr):
        vbs = vbmgr.carve(0, Area.COLD)
        assert all(vb.area is Area.COLD for vb in vbs)
        assert vbmgr.area_of(0) is Area.COLD

    @pytest.mark.parametrize("split", [2, 4, 8])
    def test_k_way_split_partitions_pages(self, split):
        vbmgr = VirtualBlockManager(tiny_spec(), split=split)
        vbs = vbmgr.carve(0, Area.HOT)
        covered = []
        for vb in vbs:
            covered.extend(range(vb.start_page, vb.end_page))
        assert covered == list(range(16))

    @pytest.mark.parametrize("split", [3, 4])
    def test_k_way_fast_classes_are_later_slices(self, split):
        vbmgr = VirtualBlockManager(tiny_spec(), split=split)
        vbs = vbmgr.carve(0, Area.HOT)
        flags = [vb.is_fast for vb in vbs]
        assert flags == sorted(flags)  # slow slices first, fast later
        assert any(flags) and not all(flags)

    def test_invalid_split_rejected(self):
        with pytest.raises(VirtualBlockError):
            VirtualBlockManager(tiny_spec(), split=1)
        with pytest.raises(VirtualBlockError):
            VirtualBlockManager(tiny_spec(), split=17)


class TestLifecycle:
    def test_successor(self, vbmgr):
        vbs = vbmgr.carve(0, Area.HOT)
        assert vbmgr.successor(vbs[0]) is vbs[1]
        assert vbmgr.successor(vbs[1]) is None

    def test_release_requires_no_allocated(self, vbmgr):
        vbs = vbmgr.carve(0, Area.HOT)
        with pytest.raises(VirtualBlockError):
            vbmgr.release(0)  # vb0 is still ALLOCATED
        vbs[0].state = VBState.USED
        vbs[1].state = VBState.USED
        vbmgr.release(0)
        assert not vbmgr.is_carved(0)

    def test_release_uncarved_is_noop(self, vbmgr):
        vbmgr.release(42)

    def test_vb_of_page(self, vbmgr):
        vbs = vbmgr.carve(0, Area.HOT)
        assert vbmgr.vb_of_page(0, 3) is vbs[0]
        assert vbmgr.vb_of_page(0, 8) is vbs[1]

    def test_vbs_of_uncarved_rejected(self, vbmgr):
        with pytest.raises(VirtualBlockError):
            vbmgr.vbs_of(3)

    def test_contains_page(self):
        vb = VirtualBlock(
            vbn=0, pbn=0, index=0, split=2, start_page=0, end_page=8, area=Area.HOT
        )
        assert vb.contains_page(0) and vb.contains_page(7)
        assert not vb.contains_page(8)
