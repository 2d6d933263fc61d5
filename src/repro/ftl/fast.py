"""FAST: a log-buffer-based hybrid FTL (Lee et al., TECS 2007).

The paper cites FAST as representative of existing FTL designs that
"assume all pages have the same access speed" (Section 2.2).  This
implementation provides it as an additional speed-oblivious baseline.

Design recap
------------
Logical space is divided into logical blocks (LBNs) of one physical
block's worth of pages.  Each LBN may own a *data block*; updates do
not touch the data block but append to shared *log blocks* with
fully-associative page mapping (any logical page can sit anywhere in
any log block).  Two log streams exist:

* one **sequential log block** captures a purely in-order rewrite of a
  single logical block, enabling the cheap *switch merge* (the log
  block simply becomes the new data block);
* **random log blocks** absorb everything else; when the pool is
  exhausted the oldest log block is reclaimed by *full merges* of every
  logical block with live pages in it.

Reads consult the page map, which always points at the newest copy
(data block or log).  The same :class:`~repro.ftl.mapping.PageMapTable`
and :class:`~repro.ftl.blockinfo.BlockManager` used by the page-mapping
FTLs back this implementation, so all invariants remain checkable.

Like every design here FAST is a :class:`~repro.ftl.base.BaseFTL`, so
it inherits the map, the block manager, the accounting and the
reliability stack: reads pay ECC retry penalties, programs/erases drive
the retention and wear clocks, and refresh relocates at-risk blocks
through the *merge* machinery (a data block refreshes via a full merge
of its LBN; a full random log block refreshes via the same multi-LBN
merge that reclaims it), so refresh inherits the data-integrity
guarantees the merge tests already prove.  FAST never runs the
inherited GC driver: merges reclaim its space.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import FtlError, OutOfSpaceError
from repro.ftl.base import BaseFTL
from repro.ftl.mapping import UNMAPPED
from repro.nand.device import NandDevice
from repro.nand.spec import NandSpec

if TYPE_CHECKING:  # imported lazily to keep repro.ftl free of cycles
    from repro.reliability.manager import ReliabilityManager
    from repro.reliability.refresh import RefreshPolicy


class FastFTL(BaseFTL):
    """Hybrid log-buffer FTL with switch / partial / full merges."""

    name = "fast"

    def __init__(
        self,
        device: NandDevice,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
    ) -> None:
        super().__init__(device, reliability=reliability, refresh=refresh)
        pages = self.spec.pages_per_block
        self.pages_per_block = pages
        self.num_lbns = (self.num_lpns + pages - 1) // pages
        self.log_blocks = self.default_log_blocks(self.spec)
        #: LBN -> data block PBN (or -1).
        self._data_block: dict[int, int] = {}
        #: FIFO of *full* random log blocks awaiting merge.
        self._log_fifo: deque[int] = deque()
        self._active_log: int | None = None
        #: (pbn, lbn) of the sequential log block, if one is open.
        self._seq_log: tuple[int, int] | None = None

    @staticmethod
    def default_log_blocks(spec: NandSpec) -> int:
        """Random log blocks: half the blocks no logical block needs,
        and at least four."""
        lbns = -(-spec.logical_pages // spec.pages_per_block)
        return max(4, (spec.total_blocks - lbns) // 2)

    @classmethod
    def open_blocks(cls, spec: NandSpec) -> dict[str, int]:
        """Blocks held out of the free pool, by role (see
        :meth:`repro.ftl.base.BaseFTL.open_blocks`)."""
        return {
            "log blocks": cls.default_log_blocks(spec),
            "sequential log": 1,
            **super().open_blocks(spec),
        }

    # ------------------------------------------------------------------
    # Host API: writes go to the logs; reads and TRIM are BaseFTL's,
    # restated only because perfbench's tracer wraps them here by name.
    # ------------------------------------------------------------------

    def host_read(self, lpn: int) -> float:
        return super().host_read(lpn)

    def host_write(self, lpn: int, nbytes: int | None = None) -> float:
        """Service a one-page host write; returns latency (incl. merges)."""
        ftl_map = self.map
        if not 0 <= lpn < ftl_map.num_lpns:
            ftl_map.check_lpn(lpn)
        self._op_sequence += 1
        lbn, offset = divmod(lpn, self.pages_per_block)
        merge_latency = 0.0
        seq_log = self._seq_log
        if offset == 0:
            merge_latency += self._open_seq_log(lbn)
            extra, latency = self._append_seq(lpn)
        elif (
            seq_log is not None
            and seq_log[1] == lbn
            and self._write_ptr[seq_log[0]] == offset
        ):
            extra, latency = self._append_seq(lpn)
        else:
            extra, latency = self._append_random(lpn)
        merge_latency += extra
        stats = self.stats
        stats.host_write_pages += 1
        stats.host_write_us += latency
        reliability = self.reliability
        if reliability is not None:
            reliability.advance_us(latency + merge_latency)
            self._maybe_refresh()
        return latency + merge_latency

    def trim(self, lpn: int) -> float:
        return super().trim(lpn)

    # ------------------------------------------------------------------
    # Sequential log handling
    # ------------------------------------------------------------------

    def _open_seq_log(self, lbn: int) -> float:
        """Start a fresh sequential log for ``lbn``.

        Any previously open sequential log is completed first with a
        partial merge (its remaining pages are filled from the newest
        copies, then it becomes the data block).
        """
        latency = 0.0
        if self._seq_log is not None:
            latency += self._partial_merge()
        pbn = self._allocate_block()
        self._seq_log = (pbn, lbn)
        return latency

    def _append_seq(self, lpn: int) -> tuple[float, float]:
        """Program the next in-order page into the sequential log;
        returns (merge latency, program latency)."""
        if self._seq_log is None:
            raise FtlError("sequential append without an open sequential log")
        pbn, lbn = self._seq_log
        ppn = pbn * self.pages_per_block + self._write_ptr[pbn]
        latency = self.device.program_ppn(ppn, lpn, self._op_sequence)
        self._commit_mapping(lpn, ppn)
        if self._write_ptr[pbn] == self._ppb:
            return self._switch_merge(), latency
        return 0.0, latency

    def _switch_merge(self) -> float:
        """The sequential log covered a whole LBN: promote it without a
        copy; only the old data block's erase is paid."""
        if self._seq_log is None:
            raise FtlError("switch merge without an open sequential log")
        pbn, lbn = self._seq_log
        self._seq_log = None
        self.blocks.note_full(pbn)
        latency = self._retire_data_block(lbn)
        self._data_block[lbn] = pbn
        self.stats.bump("fast.switch_merges")
        return latency

    def _partial_merge(self) -> float:
        """Fill the open sequential log's tail and promote it.

        Copies the newest copy of every not-yet-logged page of the LBN
        into the log block (in ascending order, skipping never-written
        pages), then retires the old data block.
        """
        if self._seq_log is None:
            return 0.0
        pbn, lbn = self._seq_log
        self._seq_log = None
        latency = 0.0
        base_lpn = lbn * self.pages_per_block
        start = self._write_ptr[pbn]
        block_base = self.geometry.first_ppn_of_pbn(pbn)
        l2p = self.map.l2p
        pages = self.pages_per_block
        for offset in range(start, pages):
            lpn = base_lpn + offset
            if lpn >= self.num_lpns:
                break
            src = l2p[lpn]
            if src == UNMAPPED:
                continue
            if src // pages == pbn:
                continue
            latency += self._relocate(lpn, src, block_base + offset)
        self.blocks.note_full(pbn)
        latency += self._retire_data_block(lbn)
        self._data_block[lbn] = pbn
        self.stats.bump("fast.partial_merges")
        return latency

    # ------------------------------------------------------------------
    # Random log handling
    # ------------------------------------------------------------------

    def _append_random(self, lpn: int) -> tuple[float, float]:
        """Append to the random log; returns (merge latency, program latency)."""
        merge_latency = 0.0
        pbn = self._active_log
        if pbn is None or self._write_ptr[pbn] == self._ppb:
            if pbn is not None:
                self.blocks.note_full(pbn)
                self._log_fifo.append(pbn)
                self._active_log = None
            while len(self._log_fifo) >= self.log_blocks:
                merge_latency += self._merge_oldest_log()
            pbn = self._active_log = self._allocate_block()
        ppn = pbn * self.pages_per_block + self._write_ptr[pbn]
        latency = self.device.program_ppn(ppn, lpn, self._op_sequence)
        self._commit_mapping(lpn, ppn)
        return merge_latency, latency

    def _merge_oldest_log(self) -> float:
        """Full-merge every LBN with live pages in the oldest log block."""
        return self._merge_log_block(self._log_fifo.popleft())

    def _merge_log_block(self, victim: int) -> float:
        """Reclaim one full random log block (caller removed it from the FIFO)."""
        latency = 0.0
        ppn_range = self.geometry.ppn_range_of_pbn(victim)
        lbns = sorted(
            {
                self.map.lpn_of(ppn) // self.pages_per_block
                for ppn in self.map.valid_ppns_in(ppn_range)
            }
        )
        for lbn in lbns:
            latency += self._full_merge(lbn)
        latency += self._erase([victim])
        self.stats.bump("fast.log_merges")
        return latency

    def _full_merge(self, lbn: int) -> float:
        """Rebuild one logical block into a fresh physical block.

        If the open sequential log belongs to this LBN it is abandoned:
        the merge supersedes every copy it holds, leaving it fully
        invalid, so it is erased right after the merge (otherwise its
        stale copies would keep the old data block alive forever).
        """
        abandoned_seq: int | None = None
        if self._seq_log is not None and self._seq_log[1] == lbn:
            abandoned_seq = self._seq_log[0]
            self._seq_log = None
            self.blocks.note_full(abandoned_seq)
        new_pbn = self._allocate_block()
        base_lpn = lbn * self.pages_per_block
        block_base = self.geometry.first_ppn_of_pbn(new_pbn)
        latency = 0.0
        l2p = self.map.l2p
        for offset in range(self.pages_per_block):
            lpn = base_lpn + offset
            if lpn >= self.num_lpns:
                break
            src = l2p[lpn]
            if src == UNMAPPED:
                continue
            latency += self._relocate(lpn, src, block_base + offset)
        self.blocks.note_full(new_pbn)
        latency += self._retire_data_block(lbn)
        self._data_block[lbn] = new_pbn
        if abandoned_seq is not None:
            if self.blocks.valid_of(abandoned_seq) != 0:
                raise FtlError(
                    f"fast: abandoned sequential log {abandoned_seq} still has "
                    f"{self.blocks.valid_of(abandoned_seq)} valid pages"
                )
            latency += self._erase([abandoned_seq])
        self.stats.bump("fast.full_merges")
        return latency

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _retire_data_block(self, lbn: int) -> float:
        """Erase + release the LBN's old data block (now fully invalid);
        returns the erase latency (0 when the LBN had none)."""
        old = self._data_block.pop(lbn, None)
        if old is None:
            return 0.0
        if self.blocks.valid_of(old) != 0:
            raise FtlError(
                f"fast: retiring data block {old} of lbn {lbn} with "
                f"{self.blocks.valid_of(old)} valid pages"
            )
        return self._erase([old])

    def _allocate_block(self) -> int:
        if self.blocks.free_count == 0:
            raise OutOfSpaceError("fast: free block pool exhausted")
        return self.blocks.allocate()

    # ------------------------------------------------------------------
    # Reliability hooks: refresh rides the merge machinery
    # ------------------------------------------------------------------

    def _active_blocks(self) -> set[int]:
        """Blocks currently open for writing (never refresh victims)."""
        active: set[int] = set()
        if self._active_log is not None:
            active.add(self._active_log)
        if self._seq_log is not None:
            active.add(self._seq_log[0])
        return active

    def _refresh_headroom(self) -> int:
        """A merge transiently allocates one block; keep one spare."""
        return 1

    def _held_pages(self, pbn: int) -> None:
        """Unknown: the holds-aware triage falls back to the worst page
        (log blocks hold copies the map alone cannot place cheaply)."""
        return None

    def _refresh_block(self, pbn: int) -> float:
        """Rewrite ``pbn``'s live data through the merge paths and erase it.

        A *data block* refreshes via a full merge of its LBN (the merge
        rebuilds the logical block elsewhere and retires ``pbn``); a
        FIFO'd *random log block* refreshes via the same multi-LBN merge
        that normally reclaims the oldest log — just targeted early.
        Any other FULL block (e.g. one emptied by concurrent merges) has
        no live data to protect and is skipped.
        """
        for lbn, data_pbn in self._data_block.items():
            if data_pbn == pbn:
                return self._full_merge(lbn)
        if pbn in self._log_fifo:
            self._log_fifo.remove(pbn)
            return self._merge_log_block(pbn)
        return 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"{self.name} (lbns={self.num_lbns}, log_blocks={self.log_blocks}, "
            f"blocks={self.spec.total_blocks})"
        )
