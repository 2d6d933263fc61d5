"""PPBFTL: the Progressive Performance Boosting strategy as an FTL.

Puts the pieces together on top of the shared FTL machinery
(:class:`~repro.ftl.base.BaseFTL`):

* every host write is classified — first stage by a pluggable
  identifier (size check by default), second stage by the hot area's
  two-level LRU or the cold area's frequency table — and placed into a
  virtual block of the matching area + speed class via Algorithm 1;
* every host read updates the trackers (promotions are logical only);
* garbage collection relocates each live page according to its
  *current* classification, which is where the progressive migration
  to speed-appropriate pages actually happens — PPB never spends an
  extra foreground copy on movement;
* the GC driver, victim policy and accounting are inherited unchanged
  from the baseline, which is what makes the paper's "no added GC
  overhead" comparison meaningful.

On multi-chip devices virtual blocks inherit the chip-striped free pool
(consecutive VB allocations rotate chips), and the service path is
chip-attributed through the :class:`~repro.nand.device.NandDevice` op
log — including ECC retry penalties — so the timed replay mode can
overlay chip/channel concurrency onto PPB requests exactly as it does
for the baselines.  Single-chip behaviour is unchanged, byte for byte.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.core.config import PPBConfig
from repro.core.freqtable import AccessFrequencyTable
from repro.core.hotness import Area, HotnessLevel
from repro.core.identification import SizeCheckIdentifier, make_identifier
from repro.core.lru import TwoLevelLRU
from repro.core.placement import ReliabilityAwarePlacement
from repro.core.vblists import AreaAllocator
from repro.core.virtual_block import VirtualBlockManager
from repro.errors import VirtualBlockError
from repro.ftl.base import BaseFTL, WriteContext
from repro.ftl.gc import VictimPolicy
from repro.nand.device import NandDevice
from repro.nand.spec import NandSpec

if TYPE_CHECKING:  # imported lazily to keep repro.core free of cycles
    from repro.ftl.transmap import MappingConfig
    from repro.reliability.manager import ReliabilityManager
    from repro.reliability.refresh import RefreshPolicy


class PPBFTL(BaseFTL):
    """Page-mapping FTL with the PPB placement strategy."""

    name = "ppb"

    #: PPB keeps up to four open blocks (two areas x two speed
    #: classes), so it needs a slightly deeper free reserve.
    min_gc_low_blocks = 5

    def __init__(
        self,
        device: NandDevice,
        config: PPBConfig | None = None,
        victim_policy: VictimPolicy | None = None,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
    ) -> None:
        super().__init__(device, victim_policy, reliability=reliability, refresh=refresh)
        self.config = config or PPBConfig()
        self.identifier = make_identifier(self.config.identifier, self.spec.page_size)
        self.vbmgr = VirtualBlockManager(self.spec, self.config.vb_split)
        self._lru = TwoLevelLRU(
            hot_capacity=self.config.hot_list_capacity(self.num_lpns),
            iron_capacity=self.config.iron_list_capacity(self.num_lpns),
        )
        self._freq = AccessFrequencyTable(
            capacity=self.config.freq_table_capacity(self.num_lpns),
            promote_reads=self.config.cold_promote_reads,
            aging_period=self.config.freq_aging_period,
        )
        self.allocators: dict[Area, AreaAllocator] = {
            area: AreaAllocator(
                area,
                device,
                self.blocks,
                self.vbmgr,
                discipline=self.config.allocation_discipline,
                max_pending=self.config.max_pending_vbs,
            )
            for area in (Area.HOT, Area.COLD)
        }
        #: promoted pages awaiting migration to fast pages at next GC.
        self._migration_queue: deque[int] = deque()
        # Hot-path lookup tables: placement runs per host write and the
        # tracker hooks per host read/GC copy, so the level -> allocator
        # and level -> counter-key resolutions must be dict hits, not
        # enum property walks and f-string builds.
        self._allocator_by_level = {
            level: self.allocators[level.area] for level in HotnessLevel
        }
        self._wants_fast_by_level = {
            level: level.wants_fast_pages for level in HotnessLevel
        }
        self._host_place_key = {
            level: f"ppb.host_place.{level.label}" for level in HotnessLevel
        }
        self._gc_place_key = {
            level: f"ppb.gc_place.{level.label}" for level in HotnessLevel
        }
        self._fast_half_start = self.spec.pages_per_block // 2
        self._allocator_tuple = tuple(self.allocators.values())
        #: page-size threshold of the paper's size-check identifier,
        #: inlined in _classify_write; None for the other identifiers.
        self._size_check_threshold = (
            self.identifier.page_size
            if type(self.identifier) is SizeCheckIdentifier
            else None
        )
        #: optional reliability-aware placement scorer (needs a manager
        #: and a nonzero weight; None = the paper's pure-speed PPB).
        self.placement: ReliabilityAwarePlacement | None = None
        if reliability is not None and self.config.reliability_weight > 0:
            self.placement = ReliabilityAwarePlacement(
                reliability,
                device.latency,
                vb_split=self.config.vb_split,
                weight=self.config.reliability_weight,
                horizon_s=self.config.placement_horizon_s,
                horizon_reads=self.config.placement_horizon_reads,
            )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def current_level(self, lpn: int) -> HotnessLevel:
        """The chunk's present classification (GC relocation target)."""
        level = self._lru.level_of(lpn)
        if level is not None:
            return level
        return self._freq.level_of(lpn)

    def _classify_write(self, lpn: int, nbytes: int) -> HotnessLevel:
        """Run both identification stages for a host write."""
        threshold = self._size_check_threshold
        if threshold is not None:
            hot = nbytes < threshold
        else:
            hot = self.identifier.is_hot_write(lpn, nbytes)
        if hot:
            self._freq.drop(lpn)
            level, evicted = self._lru.on_hot_write(lpn)
            for demoted in evicted:
                self._freq.on_write(demoted)  # cold area adopts it
                self.stats.bump("ppb.demoted_to_cold")
            return level
        self._lru.drop(lpn)
        self._freq.on_write(lpn)
        return HotnessLevel.ICY_COLD

    # ------------------------------------------------------------------
    # BaseFTL contract: placement
    # ------------------------------------------------------------------

    def _alloc_ppn(self, lpn: int, ctx: WriteContext) -> int:
        if ctx.is_gc:
            level = self.current_level(lpn)
            key = self._gc_place_key[level]
        else:
            level = self._classify_write(lpn, ctx.nbytes)
            key = self._host_place_key[level]
        # Inlined stats.bump (once per host write and per GC copy).
        extra = self.stats.extra
        extra[key] = extra.get(key, 0.0) + 1.0
        allocator = self._allocator_by_level[level]
        return allocator.alloc_page(self._wants_fast(level, allocator))

    def _wants_fast(self, level: HotnessLevel, allocator: AreaAllocator) -> bool:
        """The level's speed class, after the reliability-aware veto.

        Pure-speed PPB (no placement policy, or ``reliability_weight``
        0) is exactly ``level.wants_fast_pages``.  With a policy, a
        fast-wanting write may be diverted to the slow class when the
        candidate fast block's predicted RBER-at-horizon outweighs its
        speed gain.
        """
        if not self._wants_fast_by_level[level]:
            return False
        if self.placement is None:
            return True
        if self.placement.prefer_fast(
            allocator.peek_pbn(True),
            allocator.peek_pbn(False),
            hot=level.area is Area.HOT,
        ):
            return True
        self.stats.bump("ppb.reliability_diverts")
        return False

    def _owner_of(self, pbn: int) -> AreaAllocator:
        """The allocator whose pair the block belongs to."""
        for allocator in self._allocator_tuple:
            if pbn in allocator.owned:
                return allocator
        area = self.vbmgr.area_of(pbn)
        if area is not None:
            return self.allocators[area]
        raise VirtualBlockError(f"block {pbn} is not owned by any allocator")

    @classmethod
    def open_blocks(cls, spec: NandSpec) -> dict[str, int]:
        # Two areas x two speed classes; GC relocates through them too.
        return {"area blocks": 4, **super().open_blocks(spec)}

    @classmethod
    def from_sections(
        cls,
        device: NandDevice,
        ppb: PPBConfig | None = None,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
        mapping: "MappingConfig | None" = None,
    ) -> PPBFTL:
        return cls(device, config=ppb, reliability=reliability, refresh=refresh)

    def _active_blocks(self) -> set[int]:
        active: set[int] = set()
        for allocator in self._allocator_tuple:
            active |= allocator.active_pbns()
        return active

    def _relocation_order(self, live_ppns: list[int]) -> list[int]:
        """Relocate frequently-read data first (it wants the fast pages).

        Within one victim, iron-hot and cold pages get first claim on
        the fast VB space; hot and icy-cold copies follow and absorb
        whatever class has room (Algorithm 1's diverts).
        """
        return sorted(
            live_ppns,
            key=lambda ppn: not self.current_level(
                self.map.lpn_of(ppn)
            ).wants_fast_pages,
        )

    # ------------------------------------------------------------------
    # BaseFTL hooks: tracker maintenance + VB lifecycle
    # ------------------------------------------------------------------

    def _after_program(self, ppn: int) -> None:
        # ppn was just programmed, so the device already bounds-checked
        # it.  A program only matters to the VB lifecycle when it fills
        # its slice (about one in vb-size programs), so resolve the
        # slice inline and bail out early via the write pointer before
        # paying for the owner lookup + note_programmed transition.
        pbn, page = divmod(ppn, self._ppb)
        vbs = self.vbmgr.slices_of(pbn)
        if vbs is None:
            self.vbmgr.vb_of_page(pbn, page)  # raises the proper error
            return
        for vb in vbs:
            if page < vb.end_page:
                break
        write_ptr = self._write_ptr
        fill = write_ptr[pbn] if write_ptr is not None else self.device.next_page(pbn)
        if fill < vb.end_page:
            return
        self._owner_of(pbn).note_programmed(vb)

    def _on_host_write(self, lpn: int, ppn: int, ctx: WriteContext) -> None:
        self._after_program(ppn)

    def _on_gc_copy(self, lpn: int, old_ppn: int, new_ppn: int) -> None:
        self._after_program(new_ppn)

    def _on_host_read(self, lpn: int, ppn: int) -> None:
        if ppn % self._ppb >= self._fast_half_start:
            extra = self.stats.extra
            extra["ppb.reads_fast_half"] = extra.get("ppb.reads_fast_half", 0.0) + 1.0
        if lpn in self._lru:
            for demoted in self._lru.on_read(lpn):
                self._freq.on_write(demoted)  # cold area adopts it
                self.stats.bump("ppb.demoted_to_cold")
        else:
            if self._freq.on_read(lpn):
                self.stats.bump("ppb.promoted_icy_to_cold")
            if self._freq.count_of(lpn) == self.config.migrate_reads:
                self._migration_queue.append(lpn)

    def _on_trim(self, lpn: int) -> None:
        # Discarded data carries no temperature: drop the chunk from
        # both trackers so a stale hot/cold class cannot steer the
        # placement of whatever the host writes there next.
        self._lru.drop(lpn)
        self._freq.drop(lpn)

    def _on_erase(self, pbn: int) -> None:
        if self.vbmgr.is_carved(pbn):
            self._owner_of(pbn).forget_block(pbn)
        self.vbmgr.release(pbn)

    # ------------------------------------------------------------------
    # Progressive cold migration (paper Fig. 11a)
    # ------------------------------------------------------------------

    def _collect(self, victim: int) -> float:
        latency = super()._collect(victim)
        latency += self._migrate_promoted()
        return latency

    def _migrate_promoted(self) -> float:
        """Move a bounded batch of promoted cold pages onto fast pages.

        Runs piggybacked on each GC pass (the paper conducts icy -> cold
        promotion "during GC only", Fig. 6).  Each promoted page still
        sitting on a slow page is relocated once to the cold area's fast
        stream; the cost is GC-accounted and bounded by the batch size,
        so foreground writes never pay for it.
        """
        batch = self.config.gc_migration_batch
        if not batch or not self._migration_queue or self.blocks.free_count <= 2:
            return 0.0
        cold_alloc = self.allocators[Area.COLD]
        # The reliability-aware policy vetoes migration the same way it
        # vetoes host placement: no point paying a copy to move data
        # onto fast pages it would currently divert away from.
        if self.placement is not None and not self.placement.prefer_fast(
            cold_alloc.peek_pbn(True), cold_alloc.peek_pbn(False)
        ):
            return 0.0
        half = self.spec.pages_per_block // 2
        latency = 0.0
        moved = 0
        while self._migration_queue and moved < batch:
            if not cold_alloc.has_space(True):
                break
            lpn = self._migration_queue.popleft()
            ppn = self.map.ppn_of(lpn)
            if ppn < 0:
                continue
            if self.current_level(lpn) is not HotnessLevel.COLD:
                continue
            if self.geometry.page_of_ppn(ppn) >= half:
                continue  # already on a fast page
            dst = cold_alloc.alloc_page(True)
            read_us, write_us = self.device.copy_page(ppn, dst)
            self._commit_mapping(lpn, dst)
            self._note_if_full(dst)
            self._after_program(dst)
            self.stats.gc_copied_pages += 1
            self.stats.gc_read_us += read_us
            self.stats.gc_write_us += write_us
            self.stats.bump("ppb.migrations")
            latency += read_us + write_us
            moved += 1
        return latency

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def placement_report(self) -> dict[str, float]:
        """Where data went and how the lists behaved (for EXPERIMENTS.md)."""
        report = dict(sorted(self.stats.extra.items()))
        for area, allocator in self.allocators.items():
            report[f"ppb.{area.value}.diverted_writes"] = allocator.diverted_writes
            report[f"ppb.{area.value}.pairs_opened"] = allocator.pairs_opened
        if self.placement is not None:
            report["ppb.placement.fast_choices"] = self.placement.fast_choices
            report["ppb.placement.slow_diverts"] = self.placement.slow_diverts
        report["ppb.lru.promotions"] = self._lru.promotions
        report["ppb.lru.demotions_to_hot"] = self._lru.demotions_to_hot
        report["ppb.lru.evictions"] = self._lru.evictions
        report["ppb.freq.promotions"] = self._freq.promotions
        report["ppb.freq.evictions"] = self._freq.evictions
        return report

    def fast_page_read_fraction(self) -> float:
        """Fraction of host reads served from the fast half of a block.

        A speed-oblivious FTL sits near 0.5; good PPB placement pushes
        this well above it.  Diagnostic for how well placement works.
        """
        fast = self.stats.extra.get("ppb.reads_fast_half", 0.0)
        total = self.stats.host_read_pages
        return fast / total if total else 0.0

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        return (
            f"{self.name} (split={self.config.vb_split}, "
            f"identifier={self.identifier.name}, "
            f"lpns={self.num_lpns}, blocks={self.spec.total_blocks}, "
            f"gc_watermarks={self.gc_low_blocks}/{self.gc_high_blocks})"
        )
