"""Base flash translation layer: the machinery every design shares.

:class:`BaseFTL` owns the page map, the block manager, the GC driver
and all accounting; concrete designs plug in *placement* (where does
the next page go) and *policy hooks* (what metadata to update on reads,
writes, GC copies and erases).  The paper's conventional baseline and
the PPB strategy differ only in those hooks, which makes the comparison
an apples-to-apples one: identical GC driver, identical accounting.

Subclass contract
-----------------
``_alloc_ppn(lpn, ctx)``
    Return the PPN the next copy of ``lpn`` must be programmed to.
    Called for host writes and GC relocations (``ctx.is_gc`` tells them
    apart).  May allocate blocks from :attr:`blocks`.
``_active_blocks()``
    The set of currently OPEN blocks, excluded from victim selection.
Optional hooks: ``_on_host_read``, ``_on_host_write``, ``_on_gc_copy``,
``_on_trim``, ``_on_block_full``, ``_on_erase``.

The base also hosts the reliability stack (ECC read penalty, retention
and wear notes, the refresh driver).  Refresh relocates through
``_refresh_block`` (default: a GC collection), stops at
``_refresh_headroom`` free blocks and triages with ``_held_pages``.
FAST, which reclaims space by merges rather than GC, overrides
``host_write`` and those three hooks instead of ``_alloc_ppn``.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.errors import OutOfSpaceError
from repro.ftl.blockinfo import (
    BlockManager,
    BlockState,
    plane_groups,
    plane_striped_order,
)
from repro.ftl.gc import (
    GreedyVictimPolicy,
    ReliabilityAwareGreedyPolicy,
    VictimPolicy,
)
from repro.ftl.mapping import UNMAPPED, PageMapTable
from repro.ftl.stats import FtlStats
from repro.nand.device import NandDevice
from repro.nand.spec import NandSpec

if TYPE_CHECKING:  # imported lazily to keep repro.ftl free of cycles
    from repro.core.config import PPBConfig
    from repro.ftl.transmap import MappingConfig
    from repro.reliability.manager import ReliabilityManager
    from repro.reliability.refresh import RefreshPolicy

#: int view of the FULL state for the fused-erase sibling scan.
_FULL_STATE = int(BlockState.FULL)


@dataclass(frozen=True)
class WriteContext:
    """Why a page is being programmed.

    ``nbytes`` carries the *host request size* so first-stage hot/cold
    identifiers (the paper's size check) can see it; GC relocations use
    the page size.
    """

    nbytes: int
    is_gc: bool = False


class BaseFTL:
    """Shared FTL machinery; see module docstring for the contract."""

    #: human-readable design name, overridden by subclasses.
    name = "base"
    #: floor of the GC low watermark (free blocks); the watermark is
    #: this or 1/64 of the device, whichever is larger, and GC collects
    #: until two blocks above it are free.
    min_gc_low_blocks = 4

    def __init__(
        self,
        device: NandDevice,
        victim_policy: VictimPolicy | None = None,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
    ) -> None:
        self.device = device
        #: optional reliability engine (None = latency-only simulation,
        #: byte-for-byte identical to the pre-reliability code path).
        self.reliability = reliability
        #: optional refresh policy (needs ``reliability`` to do anything).
        self.refresh = refresh
        self.spec = device.spec
        self.geometry = device.geometry
        self.num_lpns = self.spec.logical_pages
        self.map = self._make_map()
        # Chip-striped free order: consecutive allocations rotate chips,
        # so multi-chip devices spread data (and the timed mode's chip
        # queues) across the array; identity on single-chip devices.
        # Multi-plane devices additionally rotate planes and group the
        # free pool per (chip, plane) so write streams can target planes.
        planes = self.spec.planes_per_chip
        self._planes = planes
        self.blocks = BlockManager(
            self.spec.total_blocks,
            self.spec.pages_per_block,
            free_order=plane_striped_order(
                self.spec.total_blocks, self.spec.blocks_per_chip, planes
            ),
            group_of=plane_groups(
                self.spec.total_blocks, self.spec.blocks_per_chip, planes
            ),
        )
        self.stats = FtlStats()
        self.victim_policy = victim_policy or self._default_victim_policy()
        self.gc_low_blocks = max(self.min_gc_low_blocks, self.spec.total_blocks // 64)
        self.gc_high_blocks = self.gc_low_blocks + 2
        #: logical op clock; used as the "now" for age-based GC policies
        #: and as the version component of page tags.
        self._op_sequence = 0
        # Hot-path constants and caches: pages-per-block for inline PBN
        # arithmetic, the page size for default write lengths, a reused
        # GC write context, and a per-size cache of host write contexts
        # (WriteContext is frozen, so sharing instances is safe).
        self._ppb = self.spec.pages_per_block
        self._page_size = self.spec.page_size
        self._gc_ctx = WriteContext(nbytes=self.spec.page_size, is_gc=True)
        self._host_ctx_cache: dict[int, WriteContext] = {}
        # Skip the no-op policy-hook calls for subclasses that don't
        # override them (the conventional baseline overrides neither).
        cls = type(self)
        self._has_read_hook = cls._on_host_read is not BaseFTL._on_host_read
        self._has_write_hook = cls._on_host_write is not BaseFTL._on_host_write
        #: direct view of the chip write pointers on single-chip devices
        #: (flat PBN == in-chip block); None on multi-chip devices.
        self._write_ptr: list[int] | None = (
            device.chips[0].write_ptr if self.spec.num_chips == 1 else None
        )

    @classmethod
    def open_blocks(cls, spec: NandSpec) -> dict[str, int]:
        """Blocks this design holds out of the free pool on ``spec``,
        by role: its open append points plus the GC reserve, the free
        block a collection copies into.

        With fewer spare blocks than that, every GC victim can be fully
        valid, so :class:`~repro.scenario.spec.ScenarioSpec` rejects
        such a scenario when it is built.
        """
        return {"GC reserve": 1}

    @classmethod
    def from_sections(
        cls,
        device: NandDevice,
        ppb: "PPBConfig | None" = None,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
        mapping: "MappingConfig | None" = None,
    ) -> BaseFTL:
        """Build this design from a scenario's sections.

        Each design reads only the sections it uses (PPB its config,
        DFTL its mapping) and ignores the rest.
        """
        return cls(device, reliability=reliability, refresh=refresh)

    # ------------------------------------------------------------------
    # Host API
    # ------------------------------------------------------------------

    def host_read(self, lpn: int) -> float:
        """Service a one-page host read; returns latency in microseconds.

        Reads of never-written pages return instantly (a real device
        answers them from the mapping table without touching flash).
        With a reliability engine attached, the returned latency also
        carries any ECC read-retry penalty of the physical page.
        """
        ftl_map = self.map
        if not 0 <= lpn < ftl_map.num_lpns:
            ftl_map.check_lpn(lpn)
        self._op_sequence += 1
        ppn = ftl_map.l2p[lpn]
        if ppn == UNMAPPED:
            self.stats.unmapped_reads += 1
            return 0.0
        latency = self.device.read_ppn(ppn)
        reliability = self.reliability
        if reliability is not None:
            latency += self._reliability_read_penalty(ppn)
        stats = self.stats
        stats.host_read_pages += 1
        stats.host_read_us += latency
        if self._has_read_hook:
            self._on_host_read(lpn, ppn)
        if reliability is not None:
            reliability.advance_us(latency)
            self._maybe_refresh()
        return latency

    def host_write(self, lpn: int, nbytes: int | None = None) -> float:
        """Service a one-page host write; returns latency in microseconds.

        The returned latency includes any synchronous GC stall this
        write triggered; :attr:`stats` keeps the program time and the
        GC time in separate pools.
        """
        ftl_map = self.map
        if not 0 <= lpn < ftl_map.num_lpns:
            ftl_map.check_lpn(lpn)
        self._op_sequence += 1
        if nbytes is None:
            nbytes = self._page_size
        if self.blocks.free_count > self.gc_low_blocks:
            gc_latency = 0.0
        else:
            gc_latency = self._ensure_space()
        ctx = self._host_ctx_cache.get(nbytes)
        if ctx is None:
            ctx = self._host_ctx_cache[nbytes] = WriteContext(nbytes=nbytes, is_gc=False)
        ppn = self._alloc_ppn(lpn, ctx)
        latency = self.device.program_ppn(ppn, lpn, self._op_sequence)
        # Inlined _commit_mapping + _note_if_full (this is the hottest
        # loop of every replay; keep the two helpers in sync).
        pbn = ppn // self._ppb
        old_ppn = ftl_map.remap(lpn, ppn)
        blocks = self.blocks
        blocks.note_program_valid(pbn)
        reliability = self.reliability
        if reliability is not None:
            reliability.note_program(pbn)
        if old_ppn != UNMAPPED:
            blocks.note_invalidate(old_ppn // self._ppb)
        stats = self.stats
        stats.host_write_pages += 1
        stats.host_write_us += latency
        write_ptr = self._write_ptr
        if (
            write_ptr[pbn] == self._ppb
            if write_ptr is not None
            else self.device.is_block_full(pbn)
        ):
            blocks.note_full(pbn)
            self.victim_policy.note_block_written(pbn, float(self._op_sequence))
            self._on_block_full(pbn)
        if self._has_write_hook:
            self._on_host_write(lpn, ppn, ctx)
        if reliability is not None:
            reliability.advance_us(latency + gc_latency)
            self._maybe_refresh()
        return latency + gc_latency

    def trim(self, lpn: int) -> float:
        """Host discard: drop the mapping and invalidate the old copy.

        No page is programmed — the freed copy simply becomes invalid,
        so GC reclaims it without relocation.  Returns the host-visible
        latency: zero for RAM-resident maps (DFTL adds translation
        traffic on top).
        """
        self.map.check_lpn(lpn)
        self._op_sequence += 1
        old_ppn = self.map.unmap(lpn)
        if old_ppn != UNMAPPED:
            self.blocks.note_invalidate(self.geometry.pbn_of_ppn(old_ppn))
            self.stats.trimmed_pages += 1
            self._on_trim(lpn)
        return 0.0

    # ------------------------------------------------------------------
    # Mapping / accounting plumbing
    # ------------------------------------------------------------------

    def _make_map(self) -> PageMapTable:
        """Build the L2P map (hook: DFTL substitutes a sparse table)."""
        return PageMapTable(self.num_lpns, self.spec.total_pages)

    def _commit_mapping(self, lpn: int, ppn: int) -> None:
        """Record the new copy and invalidate the superseded one.

        ``ppn`` was just programmed (the device command bounds-checked
        it) and ``old_ppn`` was validated when it entered the map, so
        the PBN arithmetic here is a plain division.
        """
        pbn = ppn // self._ppb
        old_ppn = self.map.remap(lpn, ppn)
        blocks = self.blocks
        blocks.note_program_valid(pbn)
        reliability = self.reliability
        if reliability is not None:
            reliability.note_program(pbn)
        if old_ppn != UNMAPPED:
            blocks.note_invalidate(old_ppn // self._ppb)

    def _note_if_full(self, ppn: int) -> None:
        """Flip the owning block to FULL when its last page was programmed."""
        pbn = ppn // self._ppb
        write_ptr = self._write_ptr
        if write_ptr is not None:
            full = write_ptr[pbn] == self._ppb
        else:
            full = self.device.is_block_full(pbn)
        if full:
            self.blocks.note_full(pbn)
            self.victim_policy.note_block_written(pbn, float(self._op_sequence))
            self._on_block_full(pbn)

    # ------------------------------------------------------------------
    # Garbage collection driver
    # ------------------------------------------------------------------

    def _ensure_space(self) -> float:
        """Run GC until the free pool is above the low watermark.

        Returns the total GC latency incurred (the synchronous stall a
        real device would impose on the triggering write).  Raises
        :class:`OutOfSpaceError` when collecting stops freeing blocks:
        after one device's worth of collections without a new high in
        the free pool, the loop gives up instead of spinning.
        """
        if self.blocks.free_count > self.gc_low_blocks:
            return 0.0
        total = 0.0
        best_free = self.blocks.free_count
        stalled = 0
        while self.blocks.free_count < self.gc_high_blocks:
            victim = self._select_victim()
            if victim is None:
                break
            # A fully-valid victim yields no net space: relocating its
            # pages consumes exactly one block's worth while freeing one.
            # Collecting it would burn erases in a livelock; stop and let
            # future invalidations create a worthwhile victim (unless the
            # pool is critically empty and we must churn to stay alive).
            if (
                self.blocks.valid_of(victim) >= self.spec.pages_per_block
                and self.blocks.free_count > 1
            ):
                break
            total += self._collect(victim)
            if self.blocks.free_count > best_free:
                best_free = self.blocks.free_count
                stalled = 0
            else:
                stalled += 1
                if stalled > self.spec.total_blocks:
                    raise OutOfSpaceError(
                        f"{self.name}: garbage collection freed no block in "
                        f"{stalled} collections (free pool stuck at "
                        f"{self.blocks.free_count}); the FTL's open blocks leave "
                        "too little over-provisioning"
                    )
        if self.blocks.free_count == 0:
            raise OutOfSpaceError(
                f"{self.name}: free pool empty and no GC victim available"
            )
        return total

    def _select_victim(self) -> int | None:
        """Ask the victim policy for the next block to reclaim."""
        return self.victim_policy.select(
            self.blocks, exclude=self._active_blocks(), now=float(self._op_sequence)
        )

    def _collect(self, victim: int) -> float:
        """Reclaim one block: relocate live pages, erase, release."""
        stats = self.stats
        stats.gc_runs += 1
        latency = 0.0
        device = self.device
        p2l = self.map.p2l
        ctx = self._gc_ctx
        ppn_range = self.geometry.ppn_range_of_pbn(victim)
        live = self._relocation_order(self.map.valid_ppns_in(ppn_range))
        for ppn in live:
            lpn = p2l[ppn]
            # Copyback-style relocation: internal read + program, no bus.
            dst = self._alloc_ppn(lpn, ctx)
            read_us, write_us = device.copy_page(ppn, dst)
            self._commit_mapping(lpn, dst)
            self._note_if_full(dst)
            stats.gc_copied_pages += 1
            stats.gc_read_us += read_us
            stats.gc_write_us += write_us
            latency += read_us + write_us
            self._on_gc_copy(lpn, ppn, dst)
        siblings = self._fused_erase_siblings(victim) if self._planes > 1 else None
        if siblings:
            # Zero-valid FULL siblings ride the victim's erase for free:
            # one multi-plane command reclaims every plane's block for a
            # single array time (WAF-neutral — nothing is relocated).
            pbns = [victim, *siblings]
            erase_us = self.device.erase_multi_pbn(pbns)
            stats.erase_count += len(pbns)
            stats.erase_us += erase_us
            stats.bump("gc.fused_erases", float(len(siblings)))
            latency += erase_us
            for pbn in pbns:
                self.blocks.note_erased(pbn)
                self.victim_policy.note_block_erased(pbn)
                self._reliability_note_erase(pbn)
                self._on_erase(pbn)
                self.blocks.release(pbn)
            return latency
        erase_us = self.device.erase_pbn(victim)
        self.stats.erase_count += 1
        self.stats.erase_us += erase_us
        latency += erase_us
        self.blocks.note_erased(victim)
        self.victim_policy.note_block_erased(victim)
        self._reliability_note_erase(victim)
        self._on_erase(victim)
        self.blocks.release(victim)
        return latency

    def _fused_erase_siblings(self, victim: int) -> list[int]:
        """Sibling-plane blocks eligible to ride ``victim``'s erase.

        One block per other plane of the victim's chip, lowest PBN
        first: FULL, zero valid pages, same content class (a translation
        block never fuses with a data victim and vice versa — the
        class-specific ``_on_erase`` bookkeeping must match).
        """
        planes = self._planes
        bpc = self.spec.blocks_per_chip
        chip_base = victim // bpc * bpc
        victim_plane = victim % bpc % planes
        blocks = self.blocks
        state = blocks.state
        valid = blocks.valid_count
        klasses = blocks.klass
        klass = klasses[victim]
        siblings: list[int] = []
        for plane in range(planes):
            if plane == victim_plane:
                continue
            for pbn in range(chip_base + plane, chip_base + bpc, planes):
                if (
                    state[pbn] == _FULL_STATE
                    and valid[pbn] == 0
                    and klasses[pbn] == klass
                ):
                    siblings.append(pbn)
                    break
        return siblings

    # ------------------------------------------------------------------
    # Reliability stack: read penalty, lifecycle notes, refresh driver
    # ------------------------------------------------------------------

    def _reliability_read_penalty(self, ppn: int) -> float:
        """ECC retry/recovery latency (us) a host read of ``ppn`` pays.

        Any retry is also reported against the device op log
        (:meth:`~repro.nand.device.NandDevice.note_retry`) so the timed
        replay mode attributes the re-sensing and re-transfer to the
        chip/channel that performed it.  An uncorrectable read's
        driver-recovery share is split out and reported as a queued
        recovery op (:meth:`~repro.nand.device.NandDevice.note_recovery`)
        that occupies every chip — not folded into the page's retry
        segment.  THE single definition of retry accounting: every host
        read path calls here, so they cannot drift apart.
        """
        reliability = self.reliability
        if reliability is None:
            return 0.0
        retry_us = reliability.on_host_read(ppn)
        if retry_us:
            device = self.device
            recovery_us = reliability.consume_recovery_us()
            if recovery_us:
                ladder_us = retry_us - recovery_us
                if ladder_us > 0.0:
                    device.note_retry(ppn, ladder_us)
                device.note_recovery(ppn, recovery_us)
            else:
                device.note_retry(ppn, retry_us)
        return retry_us

    def _reliability_note_program(self, pbn: int) -> None:
        """A live page was programmed into ``pbn`` (retention stamp)."""
        if self.reliability is not None:
            self.reliability.note_program(pbn)

    def _reliability_note_erase(self, pbn: int) -> None:
        """Block ``pbn`` was erased (P/E count, clocks reset)."""
        if self.reliability is not None:
            self.reliability.note_erase(pbn)

    def _maybe_refresh(self) -> float:
        """Run the refresh policy if a scan is due; returns its latency.

        Refresh reuses each FTL's own relocation mechanics (GC collect
        for the page-mapping designs, merges for FAST) via
        :meth:`_refresh_block`, so it inherits the data-integrity
        guarantees those paths already prove — and, under PPB, re-places
        refreshed data according to its *current* classification.
        Refresh work is deliberately *not* folded into host latencies: a
        real controller schedules it in the background, and the
        scenarios report it separately (like GC time) so the
        lifetime/latency trade-off stays visible.
        """
        refresh = self.refresh
        if refresh is None or self.reliability is None:
            return 0.0
        if not refresh.is_check_due(self._op_sequence):
            return 0.0
        total = 0.0
        for pbn in refresh.due_blocks(
            self.blocks, exclude=self._active_blocks(), holds=self._held_pages
        ):
            # Never refresh into space pressure: reclamation must keep
            # priority over background work, or refresh could trigger
            # GC/merge storms.
            if self.blocks.free_count <= self._refresh_headroom():
                break
            copied_before = self.stats.gc_copied_pages
            latency = self._refresh_block(pbn)
            self.reliability.note_refresh(
                self.stats.gc_copied_pages - copied_before, latency
            )
            self.reliability.advance_us(latency)
            total += latency
        return total

    def _refresh_block(self, pbn: int) -> float:
        """Refresh = GC-collect the block (relocate live pages, erase)."""
        return self._collect(pbn)

    def _refresh_headroom(self) -> int:
        """Free-block floor refresh must not eat into: the GC reserve."""
        return self.gc_low_blocks

    def _held_pages(self, pbn: int) -> list[int] | None:
        """In-block indices of ``pbn``'s live pages (holds-aware triage).

        ``None`` means "unknown": the holds-aware refresh triage then
        falls back to the worst-physical-page prediction for the block.
        """
        base = pbn * self._ppb
        return [
            ppn - base
            for ppn in self.map.valid_ppns_in(self.geometry.ppn_range_of_pbn(pbn))
        ]

    def _default_victim_policy(self) -> VictimPolicy:
        """Greedy, or reliability-aware greedy when the stack asks for it."""
        reliability = self.reliability
        if reliability is not None and reliability.config.gc_risk_weight > 0.0:
            return ReliabilityAwareGreedyPolicy(
                reliability, reliability.config.gc_risk_weight
            )
        return GreedyVictimPolicy()

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------

    def _alloc_ppn(self, lpn: int, ctx: WriteContext) -> int:
        """Pick the PPN for the next copy of ``lpn`` (placement policy)."""
        raise NotImplementedError

    def _relocation_order(self, live_ppns: list[int]) -> list[int]:
        """Order in which a victim's live pages are relocated.

        Default: physical page order.  PPB overrides this to relocate
        fast-page-wanting data first, so it claims fast VB space before
        diverted slow-class copies consume it.
        """
        return live_ppns

    def _active_blocks(self) -> set[int]:
        """Blocks currently OPEN for writing (never GC victims)."""
        raise NotImplementedError

    # Optional policy hooks -------------------------------------------------

    def _on_host_read(self, lpn: int, ppn: int) -> None:
        """Called after each host read (hotness trackers hook here)."""

    def _on_host_write(self, lpn: int, ppn: int, ctx: WriteContext) -> None:
        """Called after each host write commit."""

    def _on_gc_copy(self, lpn: int, old_ppn: int, new_ppn: int) -> None:
        """Called after each GC relocation."""

    def _on_trim(self, lpn: int) -> None:
        """Called after a mapped page is discarded (trackers drop it)."""

    def _on_block_full(self, pbn: int) -> None:
        """Called when a block's last page is programmed."""

    def _on_erase(self, pbn: int) -> None:
        """Called after a victim block is erased, before it is released."""

    # ------------------------------------------------------------------
    # Introspection / verification helpers
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Cross-check map and block accounting (test support)."""
        self.map.check_consistency()
        if self.blocks.total_valid() != self.map.mapped_count:
            raise AssertionError(
                f"valid-count total {self.blocks.total_valid()} != "
                f"mapped LPNs {self.map.mapped_count}"
            )

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"{self.name} (lpns={self.num_lpns}, blocks={self.spec.total_blocks}, "
            f"gc_watermarks={self.gc_low_blocks}/{self.gc_high_blocks}, "
            f"victim={self.victim_policy.name})"
        )
