"""Physical block bookkeeping: states, valid counts, free pool.

The FTL-side view of blocks complements the chip's write pointers:

* ``FREE`` — erased, in the free pool;
* ``OPEN`` — allocated to some write stream, partially programmed;
* ``FULL`` — every page programmed; eligible as a GC victim.

Valid counts are the GC currency: ``valid_count[pbn]`` is the number of
physical pages in the block that hold the newest copy of some LPN.
"""

from __future__ import annotations

import enum
from collections import deque

import numpy as np

from repro.errors import FtlError, OutOfSpaceError


class BlockState(enum.IntEnum):
    """FTL-side lifecycle state of a physical block."""

    FREE = 0
    OPEN = 1
    FULL = 2


#: Module-level int views of the states, for the per-op hot path (an
#: IntEnum comparison costs an attribute walk + rich compare per call).
_FREE, _OPEN, _FULL = int(BlockState.FREE), int(BlockState.OPEN), int(BlockState.FULL)

#: Block content classes: what kind of pages a block is filling with.
#: GC dispatches on this (a translation block relocates via the
#: directory, not the L2P map), and victim policies can filter by it.
DATA_KLASS = 0
TRANS_KLASS = 1


def chip_striped_order(num_blocks: int, blocks_per_chip: int) -> "range | list[int]":
    """Initial free-pool order that interleaves chips.

    ``0, B, 2B, ..., 1, B+1, ...`` for ``B = blocks_per_chip``:
    consecutive block allocations land on different chips, so a fresh
    device stripes its write streams — and therefore the data the warm
    fill lays down — across every chip, which is what lets the timed
    replay mode overlap chip work.  Identity (``range``) for a
    single-chip device, keeping every existing single-chip replay
    byte-identical.
    """
    num_chips = num_blocks // blocks_per_chip
    if num_chips <= 1:
        return range(num_blocks)
    return [
        chip * blocks_per_chip + block
        for block in range(blocks_per_chip)
        for chip in range(num_chips)
    ]


def plane_striped_order(
    num_blocks: int, blocks_per_chip: int, planes_per_chip: int
) -> "range | list[int]":
    """Initial free-pool order interleaving chips *and* planes.

    Extends :func:`chip_striped_order` one level down: consecutive
    allocations rotate through every (chip, plane) pair before reusing
    one, so write streams stripe across the planes the timed replay can
    overlap.  Blocks interleave across planes (in-chip block ``b`` sits
    on plane ``b % planes_per_chip``, see
    :attr:`~repro.nand.spec.NandSpec.planes_per_chip`), so the ``j``-th
    block of a plane is ``plane + j * planes_per_chip``.  With one plane
    per chip this *is* ``chip_striped_order`` — byte-identical, keeping
    every existing replay untouched.
    """
    if planes_per_chip <= 1:
        return chip_striped_order(num_blocks, blocks_per_chip)
    num_chips = num_blocks // blocks_per_chip
    blocks_per_plane = blocks_per_chip // planes_per_chip
    return [
        chip * blocks_per_chip + plane + slot * planes_per_chip
        for slot in range(blocks_per_plane)
        for chip in range(num_chips)
        for plane in range(planes_per_chip)
    ]


def plane_groups(
    num_blocks: int, blocks_per_chip: int, planes_per_chip: int
) -> "list[int] | None":
    """Per-block (chip, plane) group ids for :class:`BlockManager`.

    Group ``chip * planes_per_chip + plane`` for each block; ``None``
    for single-plane devices, which keeps the manager in its ungrouped
    (historical, byte-identical) mode.
    """
    if planes_per_chip <= 1:
        return None
    return [
        (pbn // blocks_per_chip) * planes_per_chip
        + (pbn % blocks_per_chip) % planes_per_chip
        for pbn in range(num_blocks)
    ]


class BlockManager:
    """Tracks state, valid counts and the free pool for all blocks.

    ``state`` and ``valid_count`` are flat Python lists of machine ints:
    every host write touches them a few times (valid-count increment,
    superseded-copy decrement), and list indexing is several times
    cheaper than numpy scalar indexing at that granularity.  The GC-rate
    queries (:meth:`victim_candidates`) still hand numpy arrays to the
    victim policies.

    With ``group_of`` set (one group id per block — the FTLs pass the
    block's (chip, plane) pair), the free pool splits into per-group
    FIFOs: plain :meth:`allocate` rotates round-robin through non-empty
    groups and :meth:`allocate_in_group` targets one group (falling back
    to the rotation when it is dry), so allocations spread across planes
    even under churn.  Ungrouped managers — every device with one plane
    per chip — keep the single historical FIFO, byte for byte.
    """

    def __init__(
        self,
        num_blocks: int,
        pages_per_block: int,
        free_order: "list[int] | range | None" = None,
        group_of: "list[int] | None" = None,
    ) -> None:
        if num_blocks < 2:
            raise FtlError(f"need at least 2 blocks, got {num_blocks}")
        self.num_blocks = num_blocks
        self.pages_per_block = pages_per_block
        self.state = [_FREE] * num_blocks
        self.valid_count = [0] * num_blocks
        #: content class per block (DATA_KLASS / TRANS_KLASS); set at
        #: allocation by class-aware FTLs, reset on release.
        self.klass = [DATA_KLASS] * num_blocks
        if free_order is None:
            free_order = range(num_blocks)
        elif len(free_order) != num_blocks or set(free_order) != set(range(num_blocks)):
            raise FtlError(f"free_order must be a permutation of range({num_blocks})")
        if group_of is None:
            self.group_of: "list[int] | None" = None
            self.num_groups = 1
            self._group_pools: "list[deque[int]] | None" = None
            self.free_pool: "deque[int] | None" = deque(free_order)
        else:
            if len(group_of) != num_blocks:
                raise FtlError(
                    f"group_of must map all {num_blocks} blocks, got {len(group_of)}"
                )
            self.group_of = list(group_of)
            self.num_groups = max(self.group_of) + 1
            if set(self.group_of) != set(range(self.num_groups)):
                raise FtlError("group_of ids must cover a contiguous 0..G-1 range")
            pools: "list[deque[int]]" = [deque() for _ in range(self.num_groups)]
            for pbn in free_order:
                pools[self.group_of[pbn]].append(pbn)
            self._group_pools = pools
            self._rr_group = 0
            self._free = num_blocks
            #: grouped managers have no single FIFO; loud None so stale
            #: ungrouped-style callers fail instead of drifting.
            self.free_pool = None

    # ------------------------------------------------------------------
    # Free pool
    # ------------------------------------------------------------------

    @property
    def free_count(self) -> int:
        """Blocks currently in the free pool."""
        if self._group_pools is None:
            return len(self.free_pool)
        return self._free

    def allocate(self) -> int:
        """Take a block from the free pool and mark it OPEN.

        Grouped managers rotate round-robin through non-empty groups, so
        back-to-back allocations land on different planes.
        """
        if self._group_pools is None:
            if not self.free_pool:
                raise OutOfSpaceError("free block pool exhausted")
            pbn = self.free_pool.popleft()
            self.state[pbn] = _OPEN
            return pbn
        return self._allocate_rotating()

    def _allocate_rotating(self) -> int:
        pools = self._group_pools
        num_groups = self.num_groups
        start = self._rr_group
        for step in range(num_groups):
            group = (start + step) % num_groups
            if pools[group]:
                self._rr_group = (group + 1) % num_groups
                return self._take_from_group(group)
        raise OutOfSpaceError("free block pool exhausted")

    def allocate_in_group(self, group: int) -> int:
        """Take a block from one group's pool (plane-targeted allocation).

        Falls back to the round-robin rotation when the group is dry —
        a write stream never starves just because its plane ran out.
        Ungrouped managers ignore the hint.
        """
        pools = self._group_pools
        if pools is None:
            return self.allocate()
        if not 0 <= group < self.num_groups:
            raise FtlError(f"group {group} out of range [0, {self.num_groups})")
        if pools[group]:
            return self._take_from_group(group)
        return self._allocate_rotating()

    def _take_from_group(self, group: int) -> int:
        pbn = self._group_pools[group].popleft()
        self._free -= 1
        self.state[pbn] = _OPEN
        return pbn

    def release(self, pbn: int) -> None:
        """Return an erased block to the free pool."""
        self._check(pbn)
        if self.valid_count[pbn] != 0:
            raise FtlError(
                f"releasing block {pbn} with {self.valid_count[pbn]} valid pages"
            )
        self.state[pbn] = _FREE
        self.klass[pbn] = DATA_KLASS
        if self._group_pools is None:
            self.free_pool.append(pbn)
        else:
            self._group_pools[self.group_of[pbn]].append(pbn)
            self._free += 1

    # ------------------------------------------------------------------
    # Valid-count accounting
    # ------------------------------------------------------------------

    def note_program_valid(self, pbn: int) -> None:
        """A page holding live data was programmed into ``pbn``."""
        if not 0 <= pbn < self.num_blocks:
            self._check(pbn)
        count = self.valid_count[pbn] + 1
        if count > self.pages_per_block:
            raise FtlError(f"block {pbn} valid count exceeds pages per block")
        self.valid_count[pbn] = count

    def note_invalidate(self, pbn: int) -> None:
        """A live page in ``pbn`` was superseded or trimmed."""
        if not 0 <= pbn < self.num_blocks:
            self._check(pbn)
        count = self.valid_count[pbn]
        if count <= 0:
            raise FtlError(f"block {pbn} valid count would go negative")
        self.valid_count[pbn] = count - 1

    def note_full(self, pbn: int) -> None:
        """The block's last page was programmed."""
        self._check(pbn)
        self.state[pbn] = _FULL

    def note_erased(self, pbn: int) -> None:
        """The block was erased (valid count must already be zero)."""
        self._check(pbn)
        if self.valid_count[pbn] != 0:
            raise FtlError(
                f"erasing block {pbn} with {self.valid_count[pbn]} valid pages"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def set_klass(self, pbn: int, klass: int) -> None:
        """Tag an allocated block with its content class."""
        self._check(pbn)
        self.klass[pbn] = klass

    def klass_of(self, pbn: int) -> int:
        """Content class of the block (DATA_KLASS for class-oblivious FTLs)."""
        self._check(pbn)
        return self.klass[pbn]

    def valid_of(self, pbn: int) -> int:
        """Valid page count of the block."""
        self._check(pbn)
        return self.valid_count[pbn]

    def victim_candidates(
        self, exclude: set[int] | None = None, klass: int | None = None
    ) -> np.ndarray:
        """PBNs eligible for GC: FULL blocks, minus an exclusion set.

        ``klass`` restricts candidates to one content class (e.g. only
        translation blocks); ``None`` considers every FULL block.
        """
        state = self.state
        if klass is not None:
            klasses = self.klass
            full = [
                pbn
                for pbn, s in enumerate(state)
                if s == _FULL
                and klasses[pbn] == klass
                and not (exclude and pbn in exclude)
            ]
        elif exclude:
            full = [
                pbn
                for pbn, s in enumerate(state)
                if s == _FULL and pbn not in exclude
            ]
        else:
            full = [pbn for pbn, s in enumerate(state) if s == _FULL]
        return np.array(full, dtype=np.int64)

    def total_valid(self) -> int:
        """Sum of valid pages across all blocks (mapping cross-check)."""
        return sum(self.valid_count)

    def _check(self, pbn: int) -> None:
        if not 0 <= pbn < self.num_blocks:
            raise FtlError(f"PBN {pbn} out of range [0, {self.num_blocks})")
