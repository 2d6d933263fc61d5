"""Virtual blocks: speed-homogeneous slices of a physical block.

Section 3.3 of the paper: a physical block spans all gate stack layers,
so its pages range from slow (top) to fast (bottom).  Virtual block
(VB) *2n* groups the slow first half of block *n*'s pages and VB *2n+1*
the fast second half (generalized here to a configurable ``split``).

Two hardware-imposed lifecycle rules (paper Figs. 8/9):

* pages program in ascending order, so VB *i+1* of a block becomes
  allocatable only after VB *i* is fully used;
* both VBs of a block must serve the *same* area (hot or cold), so GC
  never meets a block mixing hot and cold data.

:class:`VirtualBlockManager` carves blocks lazily when an area opens
them and enforces both rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import VirtualBlockError
from repro.core.hotness import Area
from repro.nand.spec import NandSpec


class VBState(enum.Enum):
    """Lifecycle of a virtual block (paper Fig. 9)."""

    FREE = "free"            # carved but not yet allocatable / not reached
    ALLOCATED = "allocated"  # open in an area's VB list, accepting writes
    USED = "used"            # every page programmed; awaiting block GC


@dataclass
class VirtualBlock:
    """One speed-homogeneous slice of a physical block."""

    vbn: int
    pbn: int
    index: int          # 0 = slowest slice ... split-1 = fastest
    split: int          # total slices per physical block
    start_page: int     # first page index (inclusive)
    end_page: int       # one past the last page index
    area: Area
    state: VBState = field(default=VBState.FREE)

    @property
    def is_fast(self) -> bool:
        """Whether this slice serves the area's frequently-read level.

        The later slices hold the bottom-layer (fast) pages; with the
        paper's split of two, slice 1 is the fast half.
        """
        return self.index >= (self.split + 1) // 2

    def contains_page(self, page: int) -> bool:
        """Whether a page index inside the block falls in this slice."""
        return self.start_page <= page < self.end_page

    def __repr__(self) -> str:
        return (
            f"VB({self.vbn}: pbn={self.pbn}[{self.start_page}:{self.end_page}], "
            f"{'fast' if self.is_fast else 'slow'}, {self.area.value}, "
            f"{self.state.value})"
        )


class VirtualBlockManager:
    """Carves physical blocks into virtual blocks and tracks their state."""

    def __init__(self, spec: NandSpec, split: int = 2) -> None:
        if split < 2:
            raise VirtualBlockError(f"split must be >= 2, got {split}")
        if split > spec.pages_per_block:
            raise VirtualBlockError(
                f"split {split} exceeds pages per block {spec.pages_per_block}"
            )
        self.spec = spec
        self.split = split
        pages = spec.pages_per_block
        #: page-index boundaries of the slices (length split+1).
        self.boundaries = [i * pages // split for i in range(split)] + [pages]
        self._carved: dict[int, list[VirtualBlock]] = {}

    # ------------------------------------------------------------------

    def carve(self, pbn: int, area: Area) -> list[VirtualBlock]:
        """Split a freshly-allocated block into VBs for one area.

        The slowest VB starts ALLOCATED (it must be written first); the
        rest stay FREE until their predecessor is used.
        """
        if pbn in self._carved:
            raise VirtualBlockError(f"block {pbn} is already carved")
        vbs = [
            VirtualBlock(
                vbn=pbn * self.split + i,
                pbn=pbn,
                index=i,
                split=self.split,
                start_page=self.boundaries[i],
                end_page=self.boundaries[i + 1],
                area=area,
            )
            for i in range(self.split)
        ]
        vbs[0].state = VBState.ALLOCATED
        self._carved[pbn] = vbs
        return vbs

    def release(self, pbn: int) -> None:
        """Forget a block's carving after erase (all VBs must be USED)."""
        vbs = self._carved.pop(pbn, None)
        if vbs is None:
            return
        for vb in vbs:
            if vb.state is VBState.ALLOCATED:
                raise VirtualBlockError(
                    f"releasing block {pbn} while {vb} is still allocated"
                )

    # ------------------------------------------------------------------

    def is_carved(self, pbn: int) -> bool:
        """Whether the block currently belongs to an area."""
        return pbn in self._carved

    def vbs_of(self, pbn: int) -> list[VirtualBlock]:
        """The block's virtual blocks (raises if not carved)."""
        try:
            return self._carved[pbn]
        except KeyError:
            raise VirtualBlockError(f"block {pbn} is not carved") from None

    def slices_of(self, pbn: int) -> list[VirtualBlock] | None:
        """The block's VBs in ascending page order, or None if not carved.

        Non-raising twin of :meth:`vbs_of` for per-program hot paths:
        the returned list is exactly the carve order, so the slice
        holding page ``p`` is the first one with ``p < end_page``.
        """
        return self._carved.get(pbn)

    def vb_of_page(self, pbn: int, page: int) -> VirtualBlock:
        """The VB containing a given page index of a carved block."""
        for vb in self.vbs_of(pbn):
            if vb.contains_page(page):
                return vb
        raise VirtualBlockError(f"page {page} outside block {pbn}'s slices")

    def area_of(self, pbn: int) -> Area | None:
        """The area a carved block serves, or None if not carved."""
        vbs = self._carved.get(pbn)
        return vbs[0].area if vbs else None

    def successor(self, vb: VirtualBlock) -> VirtualBlock | None:
        """The next slice of the same block, or None for the last one."""
        vbs = self.vbs_of(vb.pbn)
        if vb.index + 1 < len(vbs):
            return vbs[vb.index + 1]
        return None
