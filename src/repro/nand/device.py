"""The NAND device: every command over flat-PBN block state.

The device presents the flat PPN/PBN address space the FTLs use (see
:mod:`repro.nand.geometry`) and enforces the two hardware rules every
FTL must respect:

* **Ascending-order programming** — pages of a block must be programmed
  in ascending page order (skipping forward is allowed, going back is
  not).  This is what forces the paper's virtual block 2n+1 to wait
  until virtual block 2n is full.
* **Erase-before-write** — a page can only be programmed once per
  erase cycle; re-programming requires erasing the whole block.

Per-block state lives in flat lists indexed by PBN: a trace replay
issues one read or program per simulated page, and at that granularity
numpy scalar indexing costs more than the whole remaining command.

* ``write_ptr`` — the lowest page index still programmable (==
  ``pages_per_block``: full until erase).  Every FTL and allocator
  reads it directly.
* ``programmed`` — which pages actually hold data; it differs from the
  write pointer only where an FTL deliberately skips pages, as FAST's
  merge path does for never-written logical pages.  Blocks with nothing
  programmed since their last erase share one immutable all-zero bitmap.
* tags — an ``(lpn, version)`` pair of ints per programmed page,
  standing in for its contents, in one ``array('q')`` per block
  allocated at its first tagged program and dropped at erase.  The FTLs
  tag every program with the logical page number and their op clock,
  and the test suite checks tags against an oracle to prove no data is
  ever lost or stale-served across GC.  DFTL's translation pages carry
  a negative lpn (:func:`repro.ftl.dftl.translation_lpn`).
* ``erase_counts`` — lifetime erases per block (the wear state).

All timing comes back as a latency in microseconds; the caller (FTL /
SSD front end) decides how latencies compose (sequentially for a single
queue, overlapped by the DES engine when channel parallelism is
enabled).

Service reporting (the op log)
------------------------------
The timed replay mode needs to know *which chip* each command busied
and for how long, split into array time (occupies only the chip) and
bus-transfer time (occupies the chip *and* its channel).  Between
:meth:`NandDevice.begin_oplog` and :meth:`NandDevice.end_oplog` every
command appends one ``(chip, plane, array_us, transfer_us)`` segment —
GC, merges and refresh relocations included, since they flow through
the same command entry points.  The plane index lets the timed replay
overlay per-plane concurrency on multi-plane devices; fused multi-plane
commands append one segment per sibling plane, each carrying the shared
array time (the planes really are busy in parallel, so — unlike
:meth:`note_recovery` — the logged busy time deliberately exceeds the
sequential bill).  With no log armed (sequential replays, warm fill)
the per-command cost is a single ``is not None`` check.
"""

from __future__ import annotations

from array import array
from typing import NoReturn

from repro.errors import AddressError, ProgramOrderError, ReadFreePageError
from repro.nand.geometry import Geometry
from repro.nand.latency import LatencyModel
from repro.nand.spec import NandSpec

#: the lpn slot of a page programmed without a tag.
_UNTAGGED = -(1 << 63)


class NandDevice:
    """NAND chips behind one flat address space, state indexed by PBN."""

    def __init__(self, spec: NandSpec) -> None:
        self.spec = spec
        self.geometry = Geometry(spec)
        self.latency = LatencyModel(spec)
        blocks = spec.total_blocks
        pages = spec.pages_per_block
        #: every block's write pointer, indexed by flat PBN.
        self.write_ptr: list[int] = [0] * blocks
        #: the bitmap every block with nothing programmed shares: a
        #: ``bytes``, so a stray write raises instead of marking every
        #: blank block at once.
        self._blank: bytearray = bytes(pages)  # type: ignore[assignment]
        #: which pages hold data (nonzero between program and erase);
        #: ``_blank`` until the block's first program after an erase.
        self.programmed: list[bytearray] = [self._blank] * blocks
        #: lifetime erase count per block.
        self.erase_counts: list[int] = [0] * blocks
        #: per-block tags, ``None`` until the block's first tagged
        #: program: page ``p``'s lpn at ``2p`` (``_UNTAGGED`` if it has
        #: none) and its version at ``2p + 1``.
        self._tags: list[array | None] = [None] * blocks
        self._untagged = array("q", (_UNTAGGED, 0)) * pages
        # Address-arithmetic constants and latency tables, hoisted for
        # the per-op commands below.
        self._pages_per_block = pages
        self._blocks_per_chip = spec.blocks_per_chip
        self._total_pages = spec.total_pages
        self._total_blocks = blocks
        self._planes = spec.planes_per_chip
        self._read_total_us = self.latency.read_total_us
        self._read_array_us = self.latency.read_array_us
        self._program_total_us = self.latency.program_total_us
        self._program_array_us = self.latency.program_array_us
        self._erase_us = self.latency.erase_us()
        #: armed service-report log (see module docstring); ``None`` off.
        self.oplog: list[tuple[int, int, float, float]] | None = None
        self._page_transfer_us = self.latency.transfer_us()

    # ------------------------------------------------------------------
    # Service reporting (timed-mode op log)
    # ------------------------------------------------------------------

    def begin_oplog(self) -> list[tuple[int, int, float, float]]:
        """Arm the service report; returns the (live) segment list."""
        self.oplog = []
        return self.oplog

    def end_oplog(self) -> list[tuple[int, int, float, float]]:
        """Disarm the service report; returns the collected segments."""
        ops, self.oplog = self.oplog, None
        return ops if ops is not None else []

    def note_retry(self, ppn: int, retry_us: float) -> None:
        """Report ECC read-retry latency against the chip owning ``ppn``.

        Each retry step re-senses the array *and* re-transfers the page
        (see :meth:`LatencyModel.retry_read_us`), so the step's transfer
        share is logged in the bus slot — retries contend for the
        channel exactly like first-try reads do.  No-op with no log
        armed.
        """
        log = self.oplog
        if log is not None:
            page = ppn % self._pages_per_block
            transfer = self._page_transfer_us
            # retry_step_us defines what one step costs (array +
            # transfer); deriving the split from it keeps this report
            # coupled to the latency actually billed.
            step_us = self.latency.retry_step_us[page]
            transfer_share = retry_us * (transfer / step_us)
            block_in_chip = ppn // self._pages_per_block % self._blocks_per_chip
            log.append(
                (
                    self.geometry.chip_of_ppn(ppn),
                    block_in_chip % self._planes,
                    retry_us - transfer_share,
                    transfer_share,
                )
            )

    def note_recovery(self, ppn: int, recovery_us: float) -> None:
        """Report driver-level uncorrectable-read recovery as device work.

        Models the superpage-RAID rebuild a real driver runs when ECC
        gives up on ``ppn``: the stripe's pages are re-read from *every*
        chip, so the recovery latency is split into one equal segment
        per chip (array/transfer ratio of a retry step on the failing
        page), occupying all chips and their channel buses in the timed
        replay instead of silently inflating one host latency.  The
        total logged busy time equals ``recovery_us`` — exactly what the
        sequential accounting bills — so the two modes stay consistent.
        No-op with no log armed.
        """
        log = self.oplog
        if log is None or recovery_us <= 0.0:
            return
        num_chips = self.spec.num_chips
        page = ppn % self._pages_per_block
        step_us = self.latency.retry_step_us[page]
        share = recovery_us / num_chips
        transfer_share = share * (self._page_transfer_us / step_us)
        array_share = share - transfer_share
        # Each chip re-reads its page of the stripe; the stripe sits at
        # the same in-chip position on every chip, hence one plane index.
        plane = ppn // self._pages_per_block % self._blocks_per_chip % self._planes
        for chip in range(num_chips):
            log.append((chip, plane, array_share, transfer_share))

    # ------------------------------------------------------------------
    # Commands (hot path: inline range checks, raising helpers only off
    # the happy path)
    # ------------------------------------------------------------------

    def read_ppn(self, ppn: int) -> float:
        """Read the page at flat address ``ppn``; returns latency (us)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        pbn, page = divmod(ppn, self._pages_per_block)
        if not self.programmed[pbn][page]:
            self._raise_free(pbn, page)
        log = self.oplog
        if log is not None:
            log.append(
                (
                    pbn // self._blocks_per_chip,
                    pbn % self._blocks_per_chip % self._planes,
                    self._read_array_us[page],
                    self._page_transfer_us,
                )
            )
        return self._read_total_us[page]

    def program_ppn(self, ppn: int, lpn: int | None = None, version: int = 0) -> float:
        """Program the page at flat address ``ppn``; returns latency (us).

        With ``lpn`` given, the page is tagged ``(lpn, version)`` (see
        :meth:`tag`).  Raises :class:`~repro.errors.ProgramOrderError`
        unless the page is at or after its block's write pointer
        (ascending order; this single check also covers
        erase-before-write, since every page behind the pointer has
        already been programmed or permanently skipped this erase cycle).
        """
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        pbn, page = divmod(ppn, self._pages_per_block)
        self._program(pbn, page, lpn, version)
        log = self.oplog
        if log is not None:
            log.append(
                (
                    pbn // self._blocks_per_chip,
                    pbn % self._blocks_per_chip % self._planes,
                    self._program_array_us[page],
                    self._page_transfer_us,
                )
            )
        return self._program_total_us[page]

    def copy_page(self, src_ppn: int, dst_ppn: int) -> tuple[float, float]:
        """Copyback relocation: internal read of ``src_ppn`` + program of
        its tag (untagged if it had none) into ``dst_ppn``, no bus
        transfers.

        The two pages may sit on different chips.  Returns
        ``(read_us, program_us)``: the two array times.
        """
        if not 0 <= src_ppn < self._total_pages:
            self.geometry.check_ppn(src_ppn)
        if not 0 <= dst_ppn < self._total_pages:
            self.geometry.check_ppn(dst_ppn)
        src_pbn, src_page = divmod(src_ppn, self._pages_per_block)
        dst_pbn, dst_page = divmod(dst_ppn, self._pages_per_block)
        if not self.programmed[src_pbn][src_page]:
            self._raise_free(src_pbn, src_page)
        tag = self.tag(src_ppn)
        lpn, version = tag if tag is not None else (None, 0)
        self._program(dst_pbn, dst_page, lpn, version)
        read_us = self._read_array_us[src_page]
        program_us = self._program_array_us[dst_page]
        log = self.oplog
        if log is not None:
            per_chip = self._blocks_per_chip
            planes = self._planes
            log.append((src_pbn // per_chip, src_pbn % per_chip % planes, read_us, 0.0))
            log.append((dst_pbn // per_chip, dst_pbn % per_chip % planes, program_us, 0.0))
        return read_us, program_us

    def erase_pbn(self, pbn: int) -> float:
        """Erase the block at flat address ``pbn``; returns latency (us)."""
        if not 0 <= pbn < self._total_blocks:
            self.geometry.check_pbn(pbn)
        self._reset(pbn)
        latency = self._erase_us
        log = self.oplog
        if log is not None:
            per_chip = self._blocks_per_chip
            log.append((pbn // per_chip, pbn % per_chip % self._planes, latency, 0.0))
        return latency

    def program_multi_ppn(
        self, ppns: "list[int]", tags: "list[tuple[int, int]] | None" = None
    ) -> float:
        """Multi-plane program: same page index on sibling-plane blocks.

        ``tags``, when given, holds each page's ``(lpn, version)`` in
        ``ppns`` order.

        The planes share one array time while each plane's page-register
        load (transfer) serializes, so the fused latency is
        ``n * transfer + array``; the op log bills each sibling's segment
        the shared array time plus its own transfer.  Raises
        :class:`~repro.errors.AddressError` unless the PPNs address one
        chip, distinct planes, and one common page index.
        """
        pbns = [ppn // self._pages_per_block for ppn in ppns]
        chip = self._sibling_chip(pbns, "multi-plane program")
        pages = [ppn % self._pages_per_block for ppn in ppns]
        page = pages[0]
        if any(p != page for p in pages):
            raise AddressError(
                f"multi-plane program pages {sorted(set(pages))} differ; "
                f"sibling planes program one page index"
            )
        for pbn in pbns:
            if page < self.write_ptr[pbn]:
                self._raise_order(pbn, page)
        for index, pbn in enumerate(pbns):
            lpn, version = tags[index] if tags is not None else (None, 0)
            self._program(pbn, page, lpn, version)
        array_us = self._program_array_us[page]
        log = self.oplog
        if log is not None:
            planes = self._planes
            for pbn in pbns:
                log.append((chip, pbn % planes, array_us, self._page_transfer_us))
        return array_us + (self._program_total_us[page] - array_us) * len(pbns)

    def erase_multi_pbn(self, pbns: "list[int]") -> float:
        """Multi-plane erase: sibling-plane blocks for one array time.

        Every block is erased (wear counted per block) but the planes
        work in parallel, so the returned latency is a single erase
        time; the op log gets one segment per plane, each carrying that
        shared array time.  Raises :class:`~repro.errors.AddressError`
        unless the PBNs address one chip and distinct planes.
        """
        chip = self._sibling_chip(pbns, "multi-plane erase")
        for pbn in pbns:
            self._reset(pbn)
        latency = self._erase_us
        log = self.oplog
        if log is not None:
            planes = self._planes
            for pbn in pbns:
                log.append((chip, pbn % planes, latency, 0.0))
        return latency

    # ------------------------------------------------------------------
    # Command internals
    # ------------------------------------------------------------------

    def _program(self, pbn: int, page: int, lpn: int | None, version: int) -> None:
        """Program ``page`` of ``pbn`` (address checked), tagging it when
        ``lpn`` is given."""
        write_ptr = self.write_ptr
        if page < write_ptr[pbn]:
            self._raise_order(pbn, page)
        write_ptr[pbn] = page + 1
        bitmap = self.programmed[pbn]
        if bitmap is self._blank:
            bitmap = self.programmed[pbn] = bytearray(self._pages_per_block)
        bitmap[page] = 1
        if lpn is not None:
            tags = self._tags[pbn]
            if tags is None:
                tags = self._tags[pbn] = self._untagged[:]
            tags[2 * page] = lpn
            tags[2 * page + 1] = version

    def _reset(self, pbn: int) -> None:
        """Erase ``pbn``'s state: pointer, bitmap, tags; count the wear."""
        self.write_ptr[pbn] = 0
        self.programmed[pbn] = self._blank
        self._tags[pbn] = None
        self.erase_counts[pbn] += 1

    def _sibling_chip(self, pbns: "list[int]", op: str) -> int:
        """The one chip a fused command's blocks share; raises unless they
        are in range, on one chip and on distinct planes."""
        if not pbns:
            raise AddressError(f"{op} of zero blocks")
        for pbn in pbns:
            if not 0 <= pbn < self._total_blocks:
                self.geometry.check_pbn(pbn)
        per_chip = self._blocks_per_chip
        chips = {pbn // per_chip for pbn in pbns}
        if len(chips) > 1:
            raise AddressError(
                f"{op} blocks {pbns} span chips {sorted(chips)}; siblings share one chip"
            )
        planes = [pbn % per_chip % self._planes for pbn in pbns]
        if len(set(planes)) < len(planes):
            raise AddressError(
                f"{op} blocks {pbns} do not sit on distinct planes (planes {planes})"
            )
        return pbns[0] // per_chip

    def _raise_free(self, pbn: int, page: int) -> NoReturn:
        raise ReadFreePageError(f"read of unprogrammed page (block {pbn}, page {page})")

    def _raise_order(self, pbn: int, page: int) -> NoReturn:
        raise ProgramOrderError(
            f"non-ascending program of block {pbn}: got page {page}, "
            f"write pointer at {self.write_ptr[pbn]}"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tag(self, ppn: int) -> tuple[int, int] | None:
        """``(lpn, version)`` stored at ``ppn`` when it was programmed
        (None if it was programmed untagged, or not since the last erase)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        pbn, page = divmod(ppn, self._pages_per_block)
        tags = self._tags[pbn]
        if tags is None or tags[2 * page] == _UNTAGGED:
            return None
        return tags[2 * page], tags[2 * page + 1]

    def erase_count(self, pbn: int) -> int:
        """Lifetime erase count of block ``pbn``."""
        if not 0 <= pbn < self._total_blocks:
            self.geometry.check_pbn(pbn)
        return self.erase_counts[pbn]

    def wear_spread(self) -> int:
        """Max-min per-block erase count across the device."""
        counts = self.erase_counts
        return max(counts) - min(counts)
