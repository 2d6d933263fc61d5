"""Tests for the per-area VB lists and the Algorithm 1 disciplines."""

import pytest

from repro.core.hotness import Area
from repro.core.vblists import AreaAllocator
from repro.core.virtual_block import VirtualBlockManager
from repro.errors import ConfigError
from repro.ftl.blockinfo import BlockManager
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec


def _make_allocator(discipline="pipelined", max_pending=2):
    spec = tiny_spec()
    device = NandDevice(spec)
    blocks = BlockManager(spec.total_blocks, spec.pages_per_block)
    vbmgr = VirtualBlockManager(spec, split=2)
    allocator = AreaAllocator(
        Area.HOT, device, blocks, vbmgr, discipline=discipline, max_pending=max_pending
    )
    return spec, device, allocator


def _write_one(device, allocator, want_fast):
    """Allocate + program + bookkeeping; returns the page index used."""
    ppn = allocator.alloc_page(want_fast)
    device.program_ppn(ppn)
    pbn = device.geometry.pbn_of_ppn(ppn)
    page = device.geometry.page_of_ppn(ppn)
    vb = allocator.vbmgr.vb_of_page(pbn, page)
    allocator.note_programmed(vb)
    return page


class TestHardConstraints:
    """Both disciplines must respect the paper's hardware rules."""

    @pytest.mark.parametrize("discipline", ["pipelined", "strict"])
    def test_first_write_opens_slow_vb(self, discipline):
        spec, device, allocator = _make_allocator(discipline)
        page = _write_one(device, allocator, want_fast=False)
        assert page < spec.pages_per_block // 2

    @pytest.mark.parametrize("discipline", ["pipelined", "strict"])
    def test_fast_vb_only_after_slow_full(self, discipline):
        spec, device, allocator = _make_allocator(discipline)
        pages = []
        for _ in range(spec.pages_per_block):
            pages.append(_write_one(device, allocator, want_fast=False))
        # pages must be in ascending order within each block (never a
        # fast page before its block's slow half is complete)
        assert pages[: spec.pages_per_block // 2] == list(
            range(spec.pages_per_block // 2)
        )

    @pytest.mark.parametrize("discipline", ["pipelined", "strict"])
    def test_programs_always_in_order(self, discipline):
        spec, device, allocator = _make_allocator(discipline)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(200):
            _write_one(device, allocator, want_fast=bool(rng.random() < 0.5))
        # the chip would have raised ProgramOrderError on any violation

    @pytest.mark.parametrize("discipline", ["pipelined", "strict"])
    def test_open_blocks_bounded(self, discipline):
        spec, device, allocator = _make_allocator(discipline)
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(400):
            _write_one(device, allocator, want_fast=bool(rng.random() < 0.3))
            assert len(allocator.active_pbns()) <= 2 + allocator.max_pending


class TestPipelinedSegregation:
    def test_mixed_demand_lands_on_matching_speed(self):
        spec, device, allocator = _make_allocator("pipelined")
        half = spec.pages_per_block // 2
        matched = 0
        total = 0
        import numpy as np

        rng = np.random.default_rng(2)
        for _ in range(320):
            want_fast = bool(rng.random() < 0.5)
            page = _write_one(device, allocator, want_fast)
            total += 1
            if (page >= half) == want_fast:
                matched += 1
        # after warm-up the pipeline serves both classes concurrently
        assert matched / total > 0.75

    def test_one_sided_demand_diverts_not_leaks(self):
        spec, device, allocator = _make_allocator("pipelined", max_pending=2)
        for _ in range(spec.pages_per_block * 4):
            _write_one(device, allocator, want_fast=False)
        # pending fast VBs stay bounded; excess slow demand diverts
        assert allocator.diverted_writes > 0
        assert len(allocator.active_pbns()) <= 2 + allocator.max_pending


class TestStrictAlternation:
    def test_strict_serves_everything_but_alternates(self):
        spec, device, allocator = _make_allocator("strict")
        half = spec.pages_per_block // 2
        fast_hits = 0
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(320):
            page = _write_one(device, allocator, want_fast=True)
            if page >= half:
                fast_hits += 1
        # literal Algorithm 1 cannot keep both classes open: a large
        # share of fast-class writes lands on slow pages
        assert fast_hits / 320 < 0.75


class TestValidation:
    def test_unknown_discipline(self):
        with pytest.raises(ConfigError):
            _make_allocator("bogus")

    def test_bad_pending(self):
        with pytest.raises(ConfigError):
            _make_allocator(max_pending=0)

    def test_note_programmed_wrong_area_rejected(self):
        spec, device, allocator = _make_allocator()
        ppn = allocator.alloc_page(False)
        device.program_ppn(ppn)
        vb = allocator.vbmgr.vb_of_page(0, 0)
        other = AreaAllocator(
            Area.COLD, device, allocator.blocks, allocator.vbmgr
        )
        from repro.errors import VirtualBlockError

        with pytest.raises(VirtualBlockError):
            other.note_programmed(vb)
