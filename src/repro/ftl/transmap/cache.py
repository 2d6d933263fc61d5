"""The cached mapping table (CMT): bounded, LRU-ordered, dirty-tracked.

The CMT holds the hot subset of the LPN -> PPN map in host RAM.  A
lookup hit costs nothing on the device; a miss makes the FTL read the
backing translation page from flash (and possibly evict first).  Dirty
entries — mappings changed since their translation page was last
written — are tracked per *translation page group* so an eviction can
batch-flush every dirty neighbour in one page program, which is the
write-amplification lever of the DFTL design.

The cache itself never touches the device: the owning FTL interprets
evictions and dirty groups into real NAND operations.  Each method is
one whole step of the FTL's translation path (a hit, a fill after a
miss, a mapping update, an eviction, a flush batch), so a step costs
one call.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import ItemsView

from repro.errors import FtlError, MappingError


class CachedMappingTable:
    """Bounded LRU cache of mapping entries with dirty-group tracking."""

    def __init__(self, capacity: int, entries_per_page: int) -> None:
        if capacity < 1:
            raise FtlError(f"mapping cache needs capacity >= 1, got {capacity}")
        if entries_per_page < 1:
            raise FtlError(
                f"entries_per_page must be >= 1, got {entries_per_page}"
            )
        self.capacity = capacity
        self.entries_per_page = entries_per_page
        #: LPN -> PPN in LRU order (oldest first).
        self._entries: OrderedDict[int, int] = OrderedDict()
        #: TVPN -> dirty LPNs of that translation page (batch flushing);
        #: an LPN is dirty iff it is in its TVPN's group.
        self._dirty_groups: dict[int, set[int]] = {}
        self.insertions = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    @property
    def dirty_count(self) -> int:
        """Entries awaiting write-back."""
        return sum(len(group) for group in self._dirty_groups.values())

    def items(self) -> ItemsView[int, int]:
        """Cached ``(lpn, ppn)`` pairs in LRU order (oldest first)."""
        return self._entries.items()

    def peek(self, lpn: int) -> int | None:
        """The cached PPN without touching LRU order, or None."""
        return self._entries.get(lpn)

    def is_full(self) -> bool:
        """Whether a miss must evict before :meth:`insert`."""
        return len(self._entries) >= self.capacity

    # ------------------------------------------------------------------
    # Translation-path steps
    # ------------------------------------------------------------------

    def touch(self, lpn: int) -> bool:
        """A lookup: on a hit refresh ``lpn``'s LRU position and return
        True; on a miss return False and change nothing."""
        entries = self._entries
        if lpn in entries:
            entries.move_to_end(lpn)
            return True
        return False

    def insert(self, lpn: int, ppn: int) -> None:
        """Cache the mapping of an ``lpn`` that just missed (clean, most
        recent).

        Inserting into a full cache is a caller bug — the owning FTL
        must evict first so the flush traffic is accounted.
        """
        entries = self._entries
        if len(entries) >= self.capacity:
            raise FtlError(
                f"mapping cache full ({self.capacity} entries); "
                "evict before inserting"
            )
        entries[lpn] = ppn
        self.insertions += 1

    def update(self, lpn: int, ppn: int) -> bool:
        """Record a new mapping for a cached ``lpn``: store it, refresh
        its LRU position and mark it dirty.  Returns False (changing
        nothing) when ``lpn`` is not cached."""
        entries = self._entries
        if lpn not in entries:
            return False
        entries[lpn] = ppn
        entries.move_to_end(lpn)
        tvpn = lpn // self.entries_per_page
        group = self._dirty_groups.get(tvpn)
        if group is None:
            self._dirty_groups[tvpn] = {lpn}
        else:
            group.add(lpn)
        return True

    def evict_lru(self) -> tuple[int, dict[int, int]] | None:
        """Pop the least-recently-used entry.

        A clean victim returns None.  A dirty one returns its write-back
        batch ``(tvpn, updates)``: the victim's mapping first, then every
        other dirty entry of its translation page (LPN-ascending, see
        :meth:`take_dirty`), all now clean.  The cache forgets the
        victim, so losing the batch is the caller's (tested) bug.
        """
        entries = self._entries
        if not entries:
            raise FtlError("mapping cache empty; nothing to evict")
        lpn, ppn = entries.popitem(last=False)
        self.evictions += 1
        tvpn = lpn // self.entries_per_page
        group = self._dirty_groups.get(tvpn)
        if group is None or lpn not in group:
            return None
        group.discard(lpn)
        updates = {lpn: ppn}
        updates.update(self.take_dirty(tvpn))
        return tvpn, updates

    def take_dirty(self, tvpn: int) -> dict[int, int]:
        """Mark one translation page's dirty entries clean and return
        them (``lpn -> ppn``, LPN-ascending): the batch its write-back
        persists.  The entries stay cached."""
        group = self._dirty_groups.pop(tvpn, None)
        if not group:
            return {}
        entries = self._entries
        return {lpn: entries[lpn] for lpn in sorted(group)}

    def dirty_tvpns(self) -> list[int]:
        """Translation pages with at least one dirty entry, ascending."""
        return sorted(self._dirty_groups)

    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Internal invariants (test support)."""
        entries = self._entries
        if len(entries) > self.capacity:
            raise MappingError(
                f"cache holds {len(entries)} > capacity {self.capacity}"
            )
        for tvpn, lpns in self._dirty_groups.items():
            if not lpns:
                raise MappingError(f"empty dirty group for TVPN {tvpn}")
            for lpn in lpns:
                if lpn // self.entries_per_page != tvpn:
                    raise MappingError(
                        f"LPN {lpn} filed under wrong TVPN {tvpn}"
                    )
                if lpn not in entries:
                    raise MappingError(f"dirty LPN {lpn} is not cached")
        if self.insertions - self.evictions != len(entries):
            raise MappingError(
                f"{self.insertions} insertions - {self.evictions} evictions "
                f"!= {len(entries)} resident entries"
            )
