"""Demand-paged page mapping (DFTL) on the asymmetric-speed device.

The conventional baseline — like every FTL in this repository before it
— keeps the full LPN -> PPN map in host RAM, which caps believable
device sizes far below the multi-TB geometries the paper's placement
argument targets.  This FTL demand-pages the map the way Gupta et
al.'s DFTL does:

* a bounded :class:`~repro.ftl.transmap.CachedMappingTable` (CMT)
  holds the hot mapping entries in RAM;
* the full map lives on flash in *translation pages*, located through
  the in-RAM :class:`~repro.ftl.transmap.GlobalTranslationDirectory`;
* a CMT miss reads the backing translation page from the device; a
  dirty eviction reads-modifies-writes it, batch-flushing every dirty
  entry that shares the page.

Every translation operation is a real :class:`~repro.nand.device.NandDevice`
command: it lands in the timed-mode op log, occupies a chip and a bus,
pays the asymmetric per-layer latency of whatever physical page the
translation data sits on, and — with the reliability stack attached —
ages, suffers read disturb and ECC retries, and gets refreshed like any
data page.  Translation pages fill their own active block
(:data:`~repro.ftl.blockinfo.TRANS_KLASS`), so GC meets two victim
classes and dispatches: data blocks relocate via the L2P map,
translation blocks consolidate via the directory.

Accounting: translation latencies fold into the host service times they
delay (a mapping miss is part of that read's response time), and are
also broken out in ``stats.extra`` — ``cmt.*`` for cache behaviour,
``trans.*`` for the flash traffic — which the scenario sweep report
surfaces as derived columns.  GC-driven translation flushes ride the
GC stall like every other GC write.

With a cache budget covering the full map (the default
:class:`~repro.ftl.transmap.MappingConfig`), no miss ever reaches
flash after first touch and no eviction ever happens, so the device
traffic — and therefore every user-visible number — is byte-identical
to :class:`~repro.ftl.conventional.ConventionalFTL`; the golden suite
pins that equivalence.  The ground-truth map itself is a
:class:`~repro.ftl.transmap.LazyPageMapTable`, so terabyte-scale
geometries construct without allocating gigabytes of host RAM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ftl.blockinfo import TRANS_KLASS
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.gc import VictimPolicy
from repro.ftl.mapping import UNMAPPED, PageMapTable
from repro.ftl.transmap import (
    CachedMappingTable,
    GlobalTranslationDirectory,
    LazyPageMapTable,
    MappingConfig,
)
from repro.nand.device import NandDevice
from repro.nand.spec import NandSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import PPBConfig
    from repro.reliability.manager import ReliabilityManager
    from repro.reliability.refresh import RefreshPolicy


def translation_lpn(n: int) -> int:
    """Map a translation page's TVPN to the lpn its page tag carries,
    and back: ``-1 - n`` (``~n``), its own inverse.

    Data pages are tagged with their lpn (>= 0), so a translation
    page's tag ``(translation_lpn(tvpn), version)`` can never be
    mistaken for one; ``translation_lpn(lpn)`` of such a tag's lpn
    recovers the TVPN.
    """
    return ~n


class DFTL(ConventionalFTL):
    """Page-mapping FTL whose map is itself demand-paged from flash."""

    name = "dftl"

    def __init__(
        self,
        device: NandDevice,
        victim_policy: VictimPolicy | None = None,
        mapping: MappingConfig | None = None,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
    ) -> None:
        self.mapping = mapping if mapping is not None else MappingConfig()
        super().__init__(device, victim_policy, reliability=reliability, refresh=refresh)
        cfg = self.mapping
        #: mapping entries per translation page (the TVPN granularity).
        self._epp = cfg.resolve_entries_per_page(self.spec.page_size)
        #: effective CMT budget in entries.
        self.cache_entries = cfg.resolve_cache_entries(self.num_lpns)
        self.cmt = CachedMappingTable(self.cache_entries, self._epp)
        self.gtd = GlobalTranslationDirectory(self.num_lpns, self._epp)
        #: persisted translation-page contents, TVPN -> {lpn: ppn}: the
        #: on-flash snapshot a cache miss loads from, and what the
        #: property tests resolve against the ground-truth map.
        self._tp_content: dict[int, dict[int, int]] = {}
        #: active block filling with translation pages (own klass).
        self._trans_active: int | None = None
        #: re-entrancy guard: translation programs issued *during* GC
        #: must not recurse into _ensure_space.
        self._in_collect = False
        #: mapping updates accumulated by _on_gc_copy for LPNs not in
        #: the CMT, flushed per-TVPN at the end of each data collect.
        self._gc_map_updates: dict[int, dict[int, int]] | None = None

    # ------------------------------------------------------------------
    # Map construction (the terabyte-scale hook)
    # ------------------------------------------------------------------

    def _make_map(self) -> PageMapTable:
        return LazyPageMapTable(self.num_lpns, self.spec.total_pages)

    # ------------------------------------------------------------------
    # Host API: resolve the mapping before the data access
    # ------------------------------------------------------------------

    def host_read(self, lpn: int) -> float:
        trans_us = self._resolve_mapping(lpn)
        latency = super().host_read(lpn)
        if trans_us:
            # The miss delayed this read; it is host-visible service time.
            self.stats.host_read_us += trans_us
            return latency + trans_us
        return latency

    def host_write(self, lpn: int, nbytes: int | None = None) -> float:
        trans_us = self._resolve_mapping(lpn)
        latency = super().host_write(lpn, nbytes)
        # The data program moved the page; the cached entry (resident
        # since _resolve_mapping, and never evicted mid-operation) now
        # diverges from its translation page until written back.
        self.cmt.put(lpn, self.map.l2p[lpn], dirty=True)
        if trans_us:
            self.stats.host_write_us += trans_us
            return latency + trans_us
        return latency

    def trim(self, lpn: int) -> float:
        # The mapping must be resident to invalidate it, so a trim can
        # miss the CMT and pay translation reads like any other op.
        trans_us = self._resolve_mapping(lpn)
        super().trim(lpn)
        # Persisting the invalidation is a dirty entry like any update.
        self.cmt.put(lpn, UNMAPPED, dirty=True)
        return trans_us

    # ------------------------------------------------------------------
    # The translation stack
    # ------------------------------------------------------------------

    def _resolve_mapping(self, lpn: int) -> float:
        """Make ``lpn``'s mapping CMT-resident; returns translation latency."""
        ftl_map = self.map
        if not 0 <= lpn < ftl_map.num_lpns:
            ftl_map.check_lpn(lpn)
        cmt = self.cmt
        stats = self.stats
        if cmt.lookup(lpn) is not None:
            stats.bump("cmt.hits")
            return 0.0
        stats.bump("cmt.misses")
        us = self._evict_for_room()
        tvpn = lpn // self._epp
        tp_ppn = self.gtd.ppn_of(tvpn)
        if tp_ppn != UNMAPPED:
            us += self._read_translation_page(tp_ppn)
            value = self._tp_content[tvpn].get(lpn, UNMAPPED)
        else:
            # Never persisted: the directory itself answers the miss
            # (no flash page to read — a cold-device fast path).
            value = UNMAPPED
        cmt.put(lpn, value, dirty=False)
        if us:
            reliability = self.reliability
            if reliability is not None:
                reliability.advance_us(us)
        return us

    def _evict_for_room(self) -> float:
        """Reclaim CMT space if full; returns write-back latency."""
        cmt = self.cmt
        capacity = self.cache_entries
        occupied = len(cmt)
        if occupied < capacity:
            return 0.0
        us = 0.0
        stats = self.stats
        # Pop a batch per round (amortizing miss handling), but always
        # at least enough for the incoming entry.
        to_pop = max(min(self.mapping.evict_batch, occupied), occupied - capacity + 1)
        for _ in range(to_pop):
            lpn, ppn, dirty = cmt.evict_lru()
            stats.bump("cmt.evictions")
            if dirty:
                us += self._writeback_group(lpn // self._epp, extra=((lpn, ppn),))
        return us

    def _writeback_group(self, tvpn: int, extra: tuple = ()) -> float:
        """Flush every dirty entry of one translation page in one program."""
        updates = dict(extra)
        cmt = self.cmt
        for lpn, ppn in cmt.dirty_entries_of(tvpn):
            updates[lpn] = ppn
            cmt.mark_clean(lpn)
        self.stats.bump("cmt.writeback_entries", len(updates))
        return self._program_translation_page(tvpn, updates)

    def flush_mapping(self) -> float:
        """Write back every dirty cached entry (a power-down flush)."""
        us = 0.0
        for tvpn in self.cmt.dirty_tvpns():
            us += self._writeback_group(tvpn)
        return us

    def _read_translation_page(self, ppn: int) -> float:
        """Read one translation page (a real device op, retries included)."""
        us = self.device.read_ppn(ppn)
        us += self._reliability_read_penalty(ppn)
        stats = self.stats
        stats.bump("trans.reads")
        stats.bump("trans.read_us", us)
        return us

    def _program_translation_page(self, tvpn: int, updates: dict[int, int]) -> float:
        """Persist a translation page: read-modify-write on flash."""
        us = 0.0
        gtd = self.gtd
        old_ppn = gtd.ppn_of(tvpn)
        if old_ppn != UNMAPPED:
            # The page's unchanged entries must survive the rewrite.
            us += self._read_translation_page(old_ppn)
        content = self._tp_content.setdefault(tvpn, {})
        for lpn, ppn in updates.items():
            if ppn == UNMAPPED:
                content.pop(lpn, None)
            else:
                content[lpn] = ppn
        # The allocation below can trigger GC, which may relocate (or,
        # via a data collect's own mapping flush, even re-persist) THIS
        # translation page — so the PPN to invalidate must be re-fetched
        # after the allocation, not the pre-GC one read above.  Updates
        # were applied to ``content`` first for the same reason: a
        # nested flush layers its newer PPNs on top and the program
        # below persists the merged result.
        dst, stall_us = self._alloc_trans_ppn()
        write_us = self.device.program_ppn(
            dst, translation_lpn(tvpn), self._op_sequence
        )
        pbn = dst // self._ppb
        self.blocks.note_program_valid(pbn)
        self._reliability_note_program(pbn)
        cur_ppn = gtd.ppn_of(tvpn)
        if cur_ppn != UNMAPPED:
            self.blocks.note_invalidate(cur_ppn // self._ppb)
        gtd.update(tvpn, dst)
        self._note_if_full(dst)
        stats = self.stats
        stats.bump("trans.writes")
        stats.bump("trans.write_us", write_us)
        return us + write_us + stall_us

    def _alloc_trans_ppn(self) -> tuple[int, float]:
        """Next free page of the translation active block (+ GC stall)."""
        stall = 0.0
        pbn = self._trans_active
        if pbn is None or self.device.is_block_full(pbn):
            if not self._in_collect and self.blocks.free_count <= self.gc_low_blocks:
                stall = self._ensure_space()
            pbn = self.blocks.allocate()
            self.blocks.set_klass(pbn, TRANS_KLASS)
            self._trans_active = pbn
        return pbn * self._ppb + self.device.next_page(pbn), stall

    # ------------------------------------------------------------------
    # Active blocks / GC dispatch
    # ------------------------------------------------------------------

    @classmethod
    def open_blocks(cls, spec: NandSpec) -> dict[str, int]:
        return {**super().open_blocks(spec), "translation point": 1}

    @classmethod
    def from_sections(
        cls,
        device: NandDevice,
        ppb: "PPBConfig | None" = None,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
        mapping: MappingConfig | None = None,
    ) -> DFTL:
        return cls(device, mapping=mapping, reliability=reliability, refresh=refresh)

    def _active_blocks(self) -> set[int]:
        active = super()._active_blocks()
        if self._trans_active is not None:
            active.add(self._trans_active)
        return active

    def _held_pages(self, pbn: int) -> "list[int] | None":
        # Translation pages live in the GTD, not the host map, so
        # BaseFTL's map-based enumeration would return [] and the holds
        # triage would wrongly never refresh a rotting translation
        # block.  "Unknown" keeps the worst-page prediction for them.
        if self.blocks.klass_of(pbn) == TRANS_KLASS:
            return None
        return super()._held_pages(pbn)

    def _on_block_full(self, pbn: int) -> None:
        super()._on_block_full(pbn)
        if pbn == self._trans_active:
            self._trans_active = None

    def _on_gc_copy(self, lpn: int, old_ppn: int, new_ppn: int) -> None:
        cmt = self.cmt
        if lpn in cmt:
            cmt.put(lpn, new_ppn, dirty=True)
        else:
            # Lazy copying: uncached relocations batch into per-TVPN
            # translation rewrites at the end of this collect.
            self._gc_map_updates.setdefault(lpn // self._epp, {})[lpn] = new_ppn

    def _collect(self, victim: int) -> float:
        if self.blocks.klass_of(victim) == TRANS_KLASS:
            return self._collect_translation(victim)
        self._in_collect = True
        self._gc_map_updates = {}
        try:
            latency = super()._collect(victim)
            for tvpn, updates in self._gc_map_updates.items():
                flush_us = self._program_translation_page(tvpn, updates)
                self.stats.bump("trans.gc_flush_us", flush_us)
                latency += flush_us
        finally:
            self._in_collect = False
            self._gc_map_updates = None
        return latency

    def _collect_translation(self, victim: int) -> float:
        """Consolidate a translation block: relocate live pages, erase."""
        stats = self.stats
        stats.gc_runs += 1
        latency = 0.0
        device = self.device
        gtd = self.gtd
        blocks = self.blocks
        self._in_collect = True
        try:
            for ppn in self.geometry.ppn_range_of_pbn(victim):
                tvpn = gtd.tvpn_at(ppn)
                if tvpn == UNMAPPED:
                    continue
                dst, _ = self._alloc_trans_ppn()
                read_us, write_us = device.copy_page(ppn, dst)
                gtd.update(tvpn, dst)
                pbn = dst // self._ppb
                blocks.note_program_valid(pbn)
                self._reliability_note_program(pbn)
                blocks.note_invalidate(victim)
                self._note_if_full(dst)
                stats.gc_copied_pages += 1
                stats.gc_read_us += read_us
                stats.gc_write_us += write_us
                stats.bump("trans.gc_copies")
                latency += read_us + write_us
        finally:
            self._in_collect = False
        erase_us = device.erase_pbn(victim)
        stats.erase_count += 1
        stats.erase_us += erase_us
        latency += erase_us
        blocks.note_erased(victim)
        self.victim_policy.note_block_erased(victim)
        self._reliability_note_erase(victim)
        self._on_erase(victim)
        blocks.release(victim)
        return latency

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------

    def resolve_persisted(self, lpn: int) -> int:
        """Resolve ``lpn`` the way the device would, without the
        ground-truth map: CMT first, then directory + translation page."""
        self.map.check_lpn(lpn)
        cached = self.cmt.peek(lpn)
        if cached is not None:
            return cached
        tvpn = lpn // self._epp
        if self.gtd.ppn_of(tvpn) == UNMAPPED:
            return UNMAPPED
        return self._tp_content[tvpn].get(lpn, UNMAPPED)

    def check_invariants(self) -> None:
        """Map, cache, directory and block accounting cross-checks."""
        self.map.check_consistency()
        self.cmt.check_consistency()
        self.gtd.check_consistency()
        total = self.blocks.total_valid()
        expected = self.map.mapped_count + len(self.gtd)
        if total != expected:
            raise AssertionError(
                f"valid-count total {total} != mapped LPNs "
                f"{self.map.mapped_count} + translation pages {len(self.gtd)}"
            )
        # Every cached entry must agree with the ground-truth map: the
        # CMT is updated on the spot by writes, trims and GC copies.
        l2p = self.map.l2p
        for lpn in list(self.cmt._entries):
            cached = self.cmt.peek(lpn)
            truth = l2p[lpn]
            if cached != truth:
                raise AssertionError(
                    f"CMT[{lpn}]={cached} but ground truth {truth}"
                )

    def check_mapping_persistence(self) -> None:
        """Assert CMT + directory + flash resolve *every* LPN to the
        ground truth (O(num_lpns); test support for small devices)."""
        ppn_of = self.map.ppn_of
        for lpn in range(self.num_lpns):
            persisted = self.resolve_persisted(lpn)
            truth = ppn_of(lpn)
            if persisted != truth:
                raise AssertionError(
                    f"demand-paged resolution of LPN {lpn} gives {persisted}, "
                    f"ground truth {truth}"
                )

    def describe(self) -> str:
        return (
            f"{super().describe()[:-1]}, "
            f"cmt={self.cache_entries}/{self.num_lpns} entries, "
            f"tvpns={self.gtd.num_translation_pages})"
        )
