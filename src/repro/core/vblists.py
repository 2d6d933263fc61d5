"""The per-area virtual block lists and the Algorithm 1 discipline.

Each area (hot, cold) runs two write streams: a *slow* stream for its
less-read level (hot / icy-cold) and a *fast* stream for its
frequently-read level (iron-hot / cold).  The streams draw pages from
virtual blocks under the constraints of the paper's Section 3.3/3.4:

* a block's slow VB must fill before its fast VB becomes allocatable
  (in-order programming);
* both VBs of a block serve the same area;
* writes are **diverted** to the sibling speed class rather than letting
  physical blocks sit half-full (Fig. 10b I/II);
* new block pairs are drawn from the free pool only under an allocation
  guard (Fig. 10b III), keeping the number of open blocks bounded.

Two disciplines are provided (``PPBConfig.allocation_discipline``):

``pipelined`` (default)
    Keeps the newest pair's slow VB *and* an older pair's fast VB open
    simultaneously, with a bounded queue of fast VBs awaiting their
    turn.  Both speed classes can therefore be served correctly at the
    same time, which is what produces the paper's measured read gains;
    diverts happen only under sustained one-sided demand (the queue
    bound plays the role of "both lists are full").
``strict``
    A literal reading of the paper's Algorithm 1: at most one VB open
    per area at a time, divert whenever the requested class has no
    space, open a new pair only when *neither* class has space.  This
    alternates slow/fast windows and loses most of the segregation —
    kept as an ablation (see DESIGN.md for the interpretation note).
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError, VirtualBlockError
from repro.core.hotness import Area
from repro.core.virtual_block import VBState, VirtualBlock, VirtualBlockManager
from repro.ftl.blockinfo import BlockManager
from repro.nand.device import NandDevice

#: Disciplines accepted by :class:`AreaAllocator`.
DISCIPLINES = ("pipelined", "strict")


class AreaAllocator:
    """Virtual-block page allocation for one area's two write streams."""

    def __init__(
        self,
        area: Area,
        device: NandDevice,
        blocks: BlockManager,
        vbmgr: VirtualBlockManager,
        discipline: str = "pipelined",
        max_pending: int = 2,
    ) -> None:
        if discipline not in DISCIPLINES:
            raise ConfigError(
                f"allocation discipline must be one of {DISCIPLINES}, got {discipline!r}"
            )
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        self.area = area
        self.device = device
        self.blocks = blocks
        self.vbmgr = vbmgr
        self.discipline = discipline
        self.max_pending = max_pending
        #: the stream's currently-open VB, per speed class (True = fast).
        self._active: dict[bool, VirtualBlock | None] = {False: None, True: None}
        #: VBs whose predecessor filled, waiting to be opened, per class.
        self._pending: dict[bool, deque[VirtualBlock]] = {
            False: deque(),
            True: deque(),
        }
        # Counters for reports.
        self.diverted_writes = 0
        self.pairs_opened = 0
        #: pages per block, hoisted for the per-write PPN arithmetic.
        self._ppb = device.spec.pages_per_block
        self._pipelined = discipline == "pipelined"
        #: the device's write pointers, indexed by flat PBN, so the
        #: per-alloc fill checks are one list index.
        self._write_ptr = device.write_ptr

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc_page(self, want_fast: bool) -> int:
        """Return the PPN the next write of this speed class goes to."""
        if self._pipelined:
            vb = self._alloc_pipelined(want_fast)
        else:
            vb = self._alloc_strict(want_fast)
        page = self._write_ptr[vb.pbn]
        if not vb.start_page <= page < vb.end_page:
            raise VirtualBlockError(
                f"{self.area.value} area: write pointer {page} escaped {vb}"
            )
        return vb.pbn * self._ppb + page

    def _alloc_pipelined(self, want_fast: bool) -> VirtualBlock:
        """Pipelined discipline: serve both classes concurrently."""
        vb = self._usable(want_fast)
        if vb is not None:
            return vb
        if want_fast:
            # No fast VB ready: its supply comes from slow VBs filling.
            # Divert into the slow stream (speeding that supply up), or
            # open a new pair if even the slow stream is dry.
            vb = self._usable(False)
            if vb is not None:
                self.diverted_writes += 1
                return vb
            self.diverted_writes += 1
            return self._open_new_pair()
        # Slow request with no slow VB open.  Opening a new pair is the
        # natural refill, but every pair eventually yields a fast VB, so
        # under slow-heavy demand the pending-fast queue would grow
        # without bound.  The queue cap is the "both lists are full"
        # guard: at the cap, divert into the fast stream instead.
        if len(self._pending[True]) >= self.max_pending:
            vb = self._usable(True)
            if vb is not None:
                self.diverted_writes += 1
                return vb
        return self._open_new_pair()

    def _alloc_strict(self, want_fast: bool) -> VirtualBlock:
        """Literal Algorithm 1: divert first, new pair only if both dry."""
        vb = self._usable(want_fast)
        if vb is None:
            vb = self._usable(not want_fast)
            if vb is not None:
                self.diverted_writes += 1
        if vb is None:
            vb = self._open_new_pair()
            if want_fast:
                # The fresh pair starts with its slow VB: a fast-class
                # write landing there is a divert in the paper's terms.
                self.diverted_writes += 1
        return vb

    def _usable(self, is_fast: bool) -> VirtualBlock | None:
        """The class's open VB with free space, refreshing from pending."""
        active = self._active[is_fast]
        if (
            active is not None
            and active.state is VBState.ALLOCATED
            and self._write_ptr[active.pbn] < active.end_page
        ):
            return active
        pending = self._pending[is_fast]
        if pending:
            vb = pending.popleft()
            vb.state = VBState.ALLOCATED
            self._active[is_fast] = vb
            return vb
        self._active[is_fast] = None
        return None

    def _open_new_pair(self) -> VirtualBlock:
        """Take a block from the free pool; its slow VB opens immediately."""
        pbn = self.blocks.allocate()
        vbs = self.vbmgr.carve(pbn, self.area)
        first = vbs[0]
        self._active[first.is_fast] = first
        self.pairs_opened += 1
        return first

    # ------------------------------------------------------------------
    # Post-program bookkeeping
    # ------------------------------------------------------------------

    def note_programmed(self, vb: VirtualBlock) -> None:
        """Called after each program into ``vb``; handles fill transitions.

        When a VB fills: it turns USED, leaves the active slot, and its
        successor slice becomes allocatable (queued for its own speed
        class), implementing the paper's VB lifecycle (Fig. 9).
        """
        if vb.area is not self.area:
            raise VirtualBlockError(f"{vb} does not belong to the {self.area.value} area")
        if self._write_ptr[vb.pbn] < vb.end_page:
            return
        vb.state = VBState.USED
        if self._active[vb.is_fast] is vb:
            self._active[vb.is_fast] = None
        successor = self.vbmgr.successor(vb)
        if successor is not None and successor.state is VBState.FREE:
            self._pending[successor.is_fast].append(successor)

    # ------------------------------------------------------------------
    # Introspection / GC support
    # ------------------------------------------------------------------

    def peek_pbn(self, is_fast: bool) -> int | None:
        """The block the class's next write would land on, side-effect-free.

        Returns None when serving the class would open a fresh pair (the
        reliability-aware placement then scores a median block).  Unlike
        :meth:`_usable`, this never pops the pending queue.
        """
        active = self._active[is_fast]
        if (
            active is not None
            and active.state is VBState.ALLOCATED
            and self._write_ptr[active.pbn] < active.end_page
        ):
            return active.pbn
        pending = self._pending[is_fast]
        if pending:
            return pending[0].pbn
        return None

    def active_pbns(self) -> set[int]:
        """Blocks with an open or pending VB (excluded from GC victims)."""
        pbns = {vb.pbn for vb in self._active.values() if vb is not None}
        for queue in self._pending.values():
            pbns.update(vb.pbn for vb in queue)
        return pbns

    def has_space(self, is_fast: bool) -> bool:
        """Whether the class could absorb a write without a new pair."""
        active = self._active[is_fast]
        if (
            active is not None
            and active.state is VBState.ALLOCATED
            and self._write_ptr[active.pbn] < active.end_page
        ):
            return True
        return bool(self._pending[is_fast])

    def forget_block(self, pbn: int) -> None:
        """A block of this area was erased; check nothing still holds it.

        GC victims are always FULL blocks, whose VBs are all USED, so
        finding one in an active slot or pending queue is a bug.
        """
        for is_fast, active in self._active.items():
            if active is not None and active.pbn == pbn:
                raise VirtualBlockError(
                    f"erased block {pbn} was the {self.area.value} area's "
                    f"active {'fast' if is_fast else 'slow'} VB"
                )
        for queue in self._pending.values():
            for vb in queue:
                if vb.pbn == pbn:
                    raise VirtualBlockError(
                        f"erased block {pbn} had a pending VB {vb}"
                    )
