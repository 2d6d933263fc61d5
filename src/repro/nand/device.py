"""Multi-chip NAND device with flat page addressing.

The device presents the flat PPN/PBN address space the FTLs use and
routes commands to the owning chip.  All timing comes back as a latency
in microseconds; the caller (FTL / SSD front end) decides how latencies
compose (sequentially for a single queue, overlapped by the DES engine
when channel parallelism is enabled).

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

from repro.errors import AddressError
from repro.nand.chip import NandChip
from repro.nand.geometry import Geometry
from repro.nand.latency import LatencyModel
from repro.nand.spec import NandSpec
from repro.nand.stats import NandStats


class NandDevice:
    """A set of :class:`NandChip` behind one flat address space."""

    def __init__(self, spec: NandSpec) -> None:
        self.spec = spec
        self.geometry = Geometry(spec)
        self.latency = LatencyModel(spec)
        #: every block's write pointer, indexed by flat PBN; each chip
        #: works on its own slice (see :class:`NandChip`).
        self.write_ptr: list[int] = [0] * spec.total_blocks
        self.chips = [
            NandChip(i, spec, self.latency, self.write_ptr) for i in range(spec.num_chips)
        ]
        # Address-arithmetic constants, hoisted so the per-op commands
        # below stay free of the old double delegation through
        # Geometry.split_ppn (two extra function calls per simulated op).
        self._pages_per_block = spec.pages_per_block
        self._blocks_per_chip = spec.blocks_per_chip
        self._total_pages = spec.total_pages
        self._total_blocks = spec.total_blocks
        self._planes = spec.planes_per_chip
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
        num_chips = len(self.chips)
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
    # Flat-address commands (hot path)
    # ------------------------------------------------------------------

    def read_ppn(self, ppn: int, include_transfer: bool = True) -> float:
        """Read the page at flat address ``ppn``; returns latency (us)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        pbn, page = divmod(ppn, self._pages_per_block)
        chip, block = divmod(pbn, self._blocks_per_chip)
        log = self.oplog
        if log is not None:
            log.append(
                (
                    chip,
                    block % self._planes,
                    self.latency.read_array_us[page],
                    self._page_transfer_us if include_transfer else 0.0,
                )
            )
        return self.chips[chip].read(block, page, include_transfer=include_transfer)

    def program_ppn(
        self,
        ppn: int,
        lpn: int | None = None,
        version: int = 0,
        include_transfer: bool = True,
    ) -> float:
        """Program the page at flat address ``ppn``; returns latency (us).

        With ``lpn`` given, the page is tagged ``(lpn, version)`` (see
        :meth:`tag`).
        """
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        pbn, page = divmod(ppn, self._pages_per_block)
        chip, block = divmod(pbn, self._blocks_per_chip)
        log = self.oplog
        if log is not None:
            log.append(
                (
                    chip,
                    block % self._planes,
                    self.latency.program_array_us[page],
                    self._page_transfer_us if include_transfer else 0.0,
                )
            )
        return self.chips[chip].program(block, page, lpn, version, include_transfer)

    def copy_page(self, src_ppn: int, dst_ppn: int) -> tuple[float, float]:
        """Copyback relocation: internal read of ``src_ppn`` + program of
        its tag into ``dst_ppn``, no bus transfers.

        Byte-for-byte equivalent to the ``read_ppn`` / ``tag`` /
        ``program_ppn`` triple GC and merges used to issue, fused into
        one command; falls back to the triple when the pages live on
        different chips (off-chip copyback needs the bus-free internal
        move modeled per chip).  Returns ``(read_us, program_us)``.
        """
        if not 0 <= src_ppn < self._total_pages:
            self.geometry.check_ppn(src_ppn)
        if not 0 <= dst_ppn < self._total_pages:
            self.geometry.check_ppn(dst_ppn)
        src_pbn, src_page = divmod(src_ppn, self._pages_per_block)
        dst_pbn, dst_page = divmod(dst_ppn, self._pages_per_block)
        src_chip, src_block = divmod(src_pbn, self._blocks_per_chip)
        dst_chip, dst_block = divmod(dst_pbn, self._blocks_per_chip)
        if src_chip == dst_chip:
            result = self.chips[src_chip].copyback(src_block, src_page, dst_block, dst_page)
        else:
            read_us = self.chips[src_chip].read(src_block, src_page, include_transfer=False)
            tag = self.chips[src_chip].tag(src_block, src_page)
            lpn, version = tag if tag is not None else (None, 0)
            program_us = self.chips[dst_chip].program(
                dst_block, dst_page, lpn, version, include_transfer=False
            )
            result = (read_us, program_us)
        log = self.oplog
        if log is not None:
            planes = self._planes
            log.append((src_chip, src_block % planes, result[0], 0.0))
            log.append((dst_chip, dst_block % planes, result[1], 0.0))
        return result

    def erase_pbn(self, pbn: int) -> float:
        """Erase the block at flat address ``pbn``; returns latency (us)."""
        chip, block = self.geometry.split_pbn(pbn)
        latency = self.chips[chip].erase(block)
        log = self.oplog
        if log is not None:
            log.append((chip, block % self._planes, latency, 0.0))
        return latency

    def _split_siblings(self, pbns: "list[int]", op: str) -> tuple[int, list[int]]:
        """Resolve a fused command's blocks to (chip, in-chip blocks).

        All blocks must live on one chip; the per-plane distinctness
        check belongs to the chip (:meth:`NandChip._check_sibling_planes`).
        """
        if not pbns:
            raise AddressError(f"{op} of zero blocks")
        chips_blocks = [self.geometry.split_pbn(pbn) for pbn in pbns]
        chip = chips_blocks[0][0]
        if any(c != chip for c, _ in chips_blocks):
            raise AddressError(
                f"{op} blocks {pbns} span chips "
                f"{sorted({c for c, _ in chips_blocks})}; siblings share one chip"
            )
        return chip, [block for _, block in chips_blocks]

    def program_multi_ppn(
        self,
        ppns: "list[int]",
        tags: "list[tuple[int, int]] | None" = None,
        include_transfer: bool = True,
    ) -> float:
        """Multi-plane program: same page index on sibling-plane blocks.

        ``tags``, when given, holds each page's ``(lpn, version)`` in
        ``ppns`` order.

        The planes share one array time while the page-register loads
        (transfers) serialize; returns — and the op log bills per plane —
        accordingly: each sibling's segment carries the shared array
        time plus its own transfer.  Raises
        :class:`~repro.errors.AddressError` unless the PPNs address one
        chip, distinct planes, and one common page index.
        """
        chip, blocks = self._split_siblings(
            [ppn // self._pages_per_block for ppn in ppns], "multi-plane program"
        )
        pages = [ppn % self._pages_per_block for ppn in ppns]
        page = pages[0]
        if any(p != page for p in pages):
            raise AddressError(
                f"multi-plane program pages {sorted(set(pages))} differ; "
                f"sibling planes program one page index"
            )
        latency = self.chips[chip].multi_program(
            blocks, page, tags=tags, include_transfer=include_transfer
        )
        log = self.oplog
        if log is not None:
            array_us = self.latency.program_array_us[page]
            transfer = self._page_transfer_us if include_transfer else 0.0
            planes = self._planes
            for block in blocks:
                log.append((chip, block % planes, array_us, transfer))
        return latency

    def erase_multi_pbn(self, pbns: "list[int]") -> float:
        """Multi-plane erase: sibling-plane blocks for one array time.

        Every block is erased (wear counted per block) but the planes
        work in parallel, so the returned latency is a single erase
        time; the op log gets one segment per plane, each carrying that
        shared array time.  Raises :class:`~repro.errors.AddressError`
        unless the PBNs address one chip and distinct planes.
        """
        chip, blocks = self._split_siblings(pbns, "multi-plane erase")
        latency = self.chips[chip].multi_erase(blocks)
        log = self.oplog
        if log is not None:
            planes = self._planes
            for block in blocks:
                log.append((chip, block % planes, latency, 0.0))
        return latency

    # ------------------------------------------------------------------
    # Flat-address queries
    # ------------------------------------------------------------------

    def is_programmed(self, ppn: int) -> bool:
        """Whether the page at ``ppn`` currently holds data."""
        chip, block, page = self.geometry.split_ppn(ppn)
        return self.chips[chip].is_programmed(block, page)

    def is_block_full(self, pbn: int) -> bool:
        """Whether every page of block ``pbn`` is programmed."""
        if not 0 <= pbn < self._total_blocks:
            self.geometry.check_pbn(pbn)
        return self.write_ptr[pbn] == self._pages_per_block

    def next_page(self, pbn: int) -> int:
        """Next programmable page index of block ``pbn``."""
        if not 0 <= pbn < self._total_blocks:
            self.geometry.check_pbn(pbn)
        return self.write_ptr[pbn]

    def tag(self, ppn: int) -> tuple[int, int] | None:
        """``(lpn, version)`` stored at ``ppn`` when it was programmed
        (None if it was programmed untagged)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        pbn, page = divmod(ppn, self._pages_per_block)
        chip, block = divmod(pbn, self._blocks_per_chip)
        return self.chips[chip].tag(block, page)

    def erase_count(self, pbn: int) -> int:
        """Lifetime erase count of block ``pbn``."""
        chip, block = self.geometry.split_pbn(pbn)
        return self.chips[chip].erase_count(block)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def stats(self) -> NandStats:
        """Device-wide counters summed over chips."""
        total = NandStats()
        for chip in self.chips:
            total = total.merge(chip.stats)
        return total

    def total_erases(self) -> int:
        """Total block erases across the device (Fig. 18's metric)."""
        return sum(chip.stats.erases for chip in self.chips)

    def wear_spread(self) -> int:
        """Max-min per-block erase count across the device."""
        per_chip = [
            chip.erase_histogram.spread(self.spec.blocks_per_chip) for chip in self.chips
        ]
        return max(per_chip, default=0)
