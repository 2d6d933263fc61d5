"""Single NAND chip command model.

The chip enforces the two hardware rules every FTL must respect:

* **Ascending-order programming** — pages of a block must be programmed
  in ascending page order (skipping forward is allowed, going back is
  not).  This is what forces the paper's virtual block 2n+1 to wait
  until virtual block 2n is full.
* **Erase-before-write** — a page can only be programmed once per
  erase cycle; re-programming requires erasing the whole block.

A per-block write pointer records the lowest page index still
programmable; a programmed bitmap records which pages actually hold
data (they differ only when an FTL deliberately skips pages, as FAST's
merge path does for never-written logical pages).

The chip can also store a *tag* per programmed page: an ``(lpn,
version)`` pair of ints standing in for the page's contents.  The FTLs
tag every program with the logical page number and their op clock, and
the test suite checks tags against an oracle to prove no data is ever
lost or stale-served across GC.  DFTL's translation pages carry a
negative lpn (:func:`repro.ftl.dftl.translation_lpn`).

Page state costs memory only where pages are programmed: blocks with
nothing programmed since their last erase share one immutable all-zero
bitmap, and a block's tags live in one ``array('q')`` allocated at its
first tagged program and dropped at erase.
"""

from __future__ import annotations

from array import array

from repro.errors import (
    AddressError,
    ProgramOrderError,
    ReadFreePageError,
)
from repro.nand.latency import LatencyModel
from repro.nand.spec import NandSpec
from repro.nand.stats import EraseHistogram, NandStats

#: the lpn slot of a page programmed without a tag.
_UNTAGGED = -(1 << 63)


class NandChip:
    """One NAND die: blocks of pages with asymmetric per-page latency.

    The per-block state (write pointer, programmed bitmap, erase count)
    lives in flat Python lists/bytearrays: a trace replay issues one
    read or program per simulated page, and at that granularity numpy
    scalar indexing costs more than the whole remaining command.  The
    address checks stay, but as inline range compares that only fall
    into the raising helpers off the happy path.
    """

    def __init__(
        self,
        chip_id: int,
        spec: NandSpec,
        latency: LatencyModel | None = None,
        write_ptr: list[int] | None = None,
    ) -> None:
        self.chip_id = chip_id
        self.spec = spec
        self.latency = latency if latency is not None else LatencyModel(spec)
        self._num_blocks = spec.blocks_per_chip
        self._num_pages = spec.pages_per_block
        #: lowest page index still programmable, per block, at
        #: ``write_ptr[_base + block]`` (== pages_per_block: full until
        #: erase).  A device's chips share its flat-PBN list, each at its
        #: own offset; a standalone chip keeps its own.
        self.write_ptr = [0] * spec.blocks_per_chip if write_ptr is None else write_ptr
        self._base = 0 if write_ptr is None else chip_id * spec.blocks_per_chip
        #: the bitmap every block with nothing programmed shares: a
        #: ``bytes``, so a stray write raises instead of marking every
        #: blank block at once.
        self._blank: bytearray = bytes(spec.pages_per_block)  # type: ignore[assignment]
        #: which pages hold data (nonzero between program and erase);
        #: ``_blank`` until the block's first program after an erase.
        self.programmed: list[bytearray] = [self._blank] * spec.blocks_per_chip
        #: lifetime erase count per block.
        self.erase_counts: list[int] = [0] * spec.blocks_per_chip
        #: per-block tags, ``None`` until the block's first tagged
        #: program: page ``p``'s lpn at ``2p`` (``_UNTAGGED`` if it has
        #: none) and its version at ``2p + 1``.
        self._tags: list[array | None] = [None] * spec.blocks_per_chip
        self._untagged = array("q", (_UNTAGGED, 0)) * spec.pages_per_block
        self.stats = NandStats()
        self.erase_histogram = EraseHistogram()
        # Hot-path views of the latency tables (see LatencyModel).
        self._read_total_us = self.latency.read_total_us
        self._read_array_us = self.latency.read_array_us
        self._program_total_us = self.latency.program_total_us
        self._program_array_us = self.latency.program_array_us

    # ------------------------------------------------------------------
    # Address checks
    # ------------------------------------------------------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.spec.blocks_per_chip:
            raise AddressError(
                f"chip {self.chip_id}: block {block} out of range "
                f"[0, {self.spec.blocks_per_chip})"
            )

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.spec.pages_per_block:
            raise AddressError(
                f"chip {self.chip_id}: page {page} out of range "
                f"[0, {self.spec.pages_per_block})"
            )

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def read(self, block: int, page: int, include_transfer: bool = True) -> float:
        """Read one page; returns the latency in microseconds."""
        if not 0 <= block < self._num_blocks:
            self._check_block(block)
        if not 0 <= page < self._num_pages:
            self._check_page(page)
        if not self.programmed[block][page]:
            raise ReadFreePageError(
                f"chip {self.chip_id}: read of unprogrammed page "
                f"(block {block}, page {page})"
            )
        latency = (
            self._read_total_us[page] if include_transfer else self._read_array_us[page]
        )
        stats = self.stats
        stats.reads += 1
        stats.read_us += latency
        return latency

    def _mark(self, block: int, page: int) -> None:
        """Record a program of ``page`` (its address already checked)."""
        self.write_ptr[self._base + block] = page + 1
        bitmap = self.programmed[block]
        if bitmap is self._blank:
            bitmap = self.programmed[block] = bytearray(self._num_pages)
        bitmap[page] = 1

    def _store_tag(self, block: int, page: int, lpn: int, version: int) -> None:
        tags = self._tags[block]
        if tags is None:
            tags = self._tags[block] = self._untagged[:]
        tags[2 * page] = lpn
        tags[2 * page + 1] = version

    def program(
        self,
        block: int,
        page: int,
        lpn: int | None = None,
        version: int = 0,
        include_transfer: bool = True,
    ) -> float:
        """Program one page; returns the latency in microseconds.

        With ``lpn`` given, the page is tagged ``(lpn, version)``.
        Raises :class:`ProgramOrderError` unless ``page`` is at or after
        the block's write pointer (ascending order; this single check
        also covers erase-before-write, since every page behind the
        pointer has already been programmed or permanently skipped for
        this erase cycle).
        """
        if not 0 <= block < self._num_blocks:
            self._check_block(block)
        if not 0 <= page < self._num_pages:
            self._check_page(page)
        write_ptr = self.write_ptr
        slot = self._base + block
        expected = write_ptr[slot]
        if page < expected:
            raise ProgramOrderError(
                f"chip {self.chip_id}: non-ascending program of block {block}: "
                f"got page {page}, write pointer at {expected}"
            )
        # _mark and _store_tag, inlined: this is every host write's program.
        write_ptr[slot] = page + 1
        bitmap = self.programmed[block]
        if bitmap is self._blank:
            bitmap = self.programmed[block] = bytearray(self._num_pages)
        bitmap[page] = 1
        if lpn is not None:
            tags = self._tags[block]
            if tags is None:
                tags = self._tags[block] = self._untagged[:]
            slot = 2 * page
            tags[slot] = lpn
            tags[slot + 1] = version
        latency = (
            self._program_total_us[page]
            if include_transfer
            else self._program_array_us[page]
        )
        stats = self.stats
        stats.programs += 1
        stats.program_us += latency
        return latency

    def copyback(
        self, src_block: int, src_page: int, dst_block: int, dst_page: int
    ) -> tuple[float, float]:
        """Internal read + program relocating one page within this chip.

        Equivalent to ``read(src, include_transfer=False)`` followed by
        ``program(dst, lpn, version, include_transfer=False)`` with the
        source page's tag (untagged if it had none) — same
        checks, same stats, same latencies — fused into one call because
        GC/merge relocation is the hottest multi-command sequence a
        replay issues.  Returns ``(read_us, program_us)``.
        """
        if not 0 <= src_block < self._num_blocks:
            self._check_block(src_block)
        if not 0 <= src_page < self._num_pages:
            self._check_page(src_page)
        if not 0 <= dst_block < self._num_blocks:
            self._check_block(dst_block)
        if not 0 <= dst_page < self._num_pages:
            self._check_page(dst_page)
        if not self.programmed[src_block][src_page]:
            raise ReadFreePageError(
                f"chip {self.chip_id}: read of unprogrammed page "
                f"(block {src_block}, page {src_page})"
            )
        expected = self.write_ptr[self._base + dst_block]
        if dst_page < expected:
            raise ProgramOrderError(
                f"chip {self.chip_id}: non-ascending program of block {dst_block}: "
                f"got page {dst_page}, write pointer at {expected}"
            )
        read_us = self._read_array_us[src_page]
        self._mark(dst_block, dst_page)
        src_tags = self._tags[src_block]
        if src_tags is not None and src_tags[2 * src_page] != _UNTAGGED:
            self._store_tag(
                dst_block, dst_page, src_tags[2 * src_page], src_tags[2 * src_page + 1]
            )
        program_us = self._program_array_us[dst_page]
        stats = self.stats
        stats.reads += 1
        stats.read_us += read_us
        stats.programs += 1
        stats.program_us += program_us
        return read_us, program_us

    def erase(self, block: int) -> float:
        """Erase a block; returns the latency in microseconds."""
        self._check_block(block)
        self._reset(block)
        latency = self.latency.erase_us()
        self.stats.record_erase(latency)
        return latency

    def _reset(self, block: int) -> None:
        """Erase ``block``'s state: pointer, bitmap, tags; count the wear."""
        self.write_ptr[self._base + block] = 0
        self.programmed[block] = self._blank
        self._tags[block] = None
        self.erase_counts[block] += 1
        self.erase_histogram.record(block)

    def _check_sibling_planes(self, blocks: "list[int]", op: str) -> None:
        """Fused commands must address one block per distinct plane."""
        if not blocks:
            raise AddressError(f"chip {self.chip_id}: {op} of zero blocks")
        planes = self.spec.planes_per_chip
        seen: set[int] = set()
        for block in blocks:
            if not 0 <= block < self._num_blocks:
                self._check_block(block)
            plane = block % planes
            if plane in seen:
                raise AddressError(
                    f"chip {self.chip_id}: {op} blocks {blocks} do not sit "
                    f"on distinct planes (plane {plane} repeated)"
                )
            seen.add(plane)

    def multi_program(
        self,
        blocks: "list[int]",
        page: int,
        tags: "list[tuple[int, int]] | None" = None,
        include_transfer: bool = True,
    ) -> float:
        """Multi-plane program: one page per sibling plane, fused.

        ``tags``, when given, holds each plane's ``(lpn, version)`` in
        ``blocks`` order.

        All planes program the *same* page index (the multi-plane
        addressing rule real chips enforce) and share one array time;
        each plane's page register is still loaded separately, so the
        transfers serialize.  Returns the fused latency
        ``n * transfer + array`` (array only without transfer), which is
        also what the stats bill — the die is busy exactly that long.
        """
        self._check_sibling_planes(blocks, "multi-plane program")
        if not 0 <= page < self._num_pages:
            self._check_page(page)
        for block in blocks:
            expected = self.write_ptr[self._base + block]
            if page < expected:
                raise ProgramOrderError(
                    f"chip {self.chip_id}: non-ascending program of block "
                    f"{block}: got page {page}, write pointer at {expected}"
                )
        for index, block in enumerate(blocks):
            self._mark(block, page)
            if tags is not None:
                self._store_tag(block, page, *tags[index])
        array_us = self._program_array_us[page]
        latency = array_us
        if include_transfer:
            latency += (self._program_total_us[page] - array_us) * len(blocks)
        stats = self.stats
        stats.programs += len(blocks)
        stats.program_us += latency
        return latency

    def multi_erase(self, blocks: "list[int]") -> float:
        """Multi-plane erase: sibling-plane blocks erased for one array time.

        Every block resets (write pointer, programmed map, wear count)
        exactly as :meth:`erase` would, but the planes erase in parallel,
        so the chip is busy — and the stats bill — one erase latency
        total.  Returns that fused latency.
        """
        self._check_sibling_planes(blocks, "multi-plane erase")
        for block in blocks:
            self._reset(block)
        latency = self.latency.erase_us()
        self.stats.record_erase(latency)
        self.stats.erases += len(blocks) - 1
        return latency

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    def is_programmed(self, block: int, page: int) -> bool:
        """Whether the page currently holds data."""
        self._check_block(block)
        self._check_page(page)
        return bool(self.programmed[block][page])

    def is_block_full(self, block: int) -> bool:
        """Whether the block has no programmable pages left this cycle."""
        if not 0 <= block < self._num_blocks:
            self._check_block(block)
        return self.write_ptr[self._base + block] == self._num_pages

    def next_page(self, block: int) -> int:
        """Next programmable page index of the block (== pages_per_block if full)."""
        if not 0 <= block < self._num_blocks:
            self._check_block(block)
        return self.write_ptr[self._base + block]

    def tag(self, block: int, page: int) -> tuple[int, int] | None:
        """``(lpn, version)`` stored when the page was programmed (None
        if it was programmed untagged, or not since the last erase)."""
        if not 0 <= block < self._num_blocks:
            self._check_block(block)
        if not 0 <= page < self._num_pages:
            self._check_page(page)
        tags = self._tags[block]
        if tags is None or tags[2 * page] == _UNTAGGED:
            return None
        return tags[2 * page], tags[2 * page + 1]

    def erase_count(self, block: int) -> int:
        """Lifetime erase count of the block."""
        self._check_block(block)
        return self.erase_counts[block]
