"""Page-level logical-to-physical mapping.

Backed by two typed columns, ``array('q')``: ``l2p[lpn]`` holds the PPN
of the newest copy of a logical page (or -1), ``p2l[ppn]`` holds the
LPN stored at a physical page *if that copy is still valid* (or -1).
The two arrays are exact inverses over valid entries — an invariant the
property-based tests assert after every random workload.

A column stores each entry in place as a machine int: 8 bytes a slot,
mapped or not.  A Python list also spends 8 bytes a slot on the pointer,
plus a separate ``int`` object (32 bytes with allocator rounding) for
every entry outside the small-int cache, so a warm-filled list map cost
about 85 bytes per mapped page and the columns about 21.  Reading a
column entry boxes it into a fresh ``int``: about 30 ns an index against
7 ns for a list (x86_64, CPython 3.11), and the replay touches a handful
of entries per host operation.  A numpy scalar index, which boxes an
``np.int64``, costs about 75 ns.  :meth:`valid_ppns_in` slices a column
once per *block*, not per page, and :meth:`check_consistency` walks
``l2p`` once and counts the rest in C, holding nothing per mapped page.
"""

from __future__ import annotations

from array import array

from repro.errors import ConfigError, MappingError

#: Sentinel for "unmapped" in both directions.
UNMAPPED = -1

#: Largest combined table size (l2p + p2l entries) the dense full map
#: will allocate.  2**26 entries (about 0.5 TB of 16 KB pages) cost
#: 512 MiB of host RAM as ``array('q')`` columns, whether or not a page
#: is mapped; anything past it must use the demand-paged mapper, which
#: allocates nothing up front.
FULL_MAP_MAX_ENTRIES = 1 << 26


class PageMapTable:
    """Bidirectional LPN <-> PPN map with validity tracking."""

    def __init__(self, num_lpns: int, num_ppns: int) -> None:
        if num_lpns < 1 or num_ppns < 1:
            raise MappingError(
                f"need positive table sizes, got lpns={num_lpns}, ppns={num_ppns}"
            )
        if num_lpns + num_ppns > FULL_MAP_MAX_ENTRIES:
            raise ConfigError(
                f"a full in-RAM page map for this geometry would allocate "
                f"{num_lpns + num_ppns} entries (limit {FULL_MAP_MAX_ENTRIES}); "
                f'use the demand-paged mapper instead: set ftl = "dftl" and '
                f"size its cache with the mapping knobs "
                f"(mapping.cache_entries or mapping.cache_ratio)"
            )
        self.num_lpns = num_lpns
        self.num_ppns = num_ppns
        self.l2p = array("q", [UNMAPPED]) * num_lpns
        self.p2l = array("q", [UNMAPPED]) * num_ppns
        self.mapped_count = 0

    # ------------------------------------------------------------------

    def check_lpn(self, lpn: int) -> None:
        """Raise :class:`MappingError` for an out-of-range LPN."""
        if not 0 <= lpn < self.num_lpns:
            raise MappingError(f"LPN {lpn} out of range [0, {self.num_lpns})")

    def ppn_of(self, lpn: int) -> int:
        """Current PPN of a logical page, or -1 if unmapped."""
        self.check_lpn(lpn)
        return self.l2p[lpn]

    def lpn_of(self, ppn: int) -> int:
        """LPN whose *valid* copy lives at ``ppn``, or -1."""
        if not 0 <= ppn < self.num_ppns:
            raise MappingError(f"PPN {ppn} out of range [0, {self.num_ppns})")
        return self.p2l[ppn]

    def is_valid_ppn(self, ppn: int) -> bool:
        """Whether the physical page holds the newest copy of some LPN."""
        return self.lpn_of(ppn) != UNMAPPED

    # ------------------------------------------------------------------

    def remap(self, lpn: int, new_ppn: int) -> int:
        """Point ``lpn`` at ``new_ppn``; returns the invalidated old PPN or -1.

        The caller is responsible for decrementing the old block's valid
        count (the map has no block knowledge by design).
        """
        self.check_lpn(lpn)
        if not 0 <= new_ppn < self.num_ppns:
            raise MappingError(f"PPN {new_ppn} out of range [0, {self.num_ppns})")
        p2l = self.p2l
        existing = p2l[new_ppn]
        if existing != UNMAPPED:
            raise MappingError(
                f"PPN {new_ppn} already holds valid data for LPN {existing}"
            )
        l2p = self.l2p
        old_ppn = l2p[lpn]
        if old_ppn != UNMAPPED:
            p2l[old_ppn] = UNMAPPED
        else:
            self.mapped_count += 1
        l2p[lpn] = new_ppn
        p2l[new_ppn] = lpn
        return old_ppn

    def unmap(self, lpn: int) -> int:
        """Drop the mapping for ``lpn`` (TRIM); returns the old PPN or -1."""
        self.check_lpn(lpn)
        old_ppn = self.l2p[lpn]
        if old_ppn != UNMAPPED:
            self.l2p[lpn] = UNMAPPED
            self.p2l[old_ppn] = UNMAPPED
            self.mapped_count -= 1
        return old_ppn

    def clear_ppn(self, ppn: int) -> None:
        """Assert-only guard: erasing ``ppn``'s block must not lose data.

        The reverse entry of an *invalid* page is already ``UNMAPPED``
        (both :meth:`remap` and :meth:`unmap` clear it when the copy is
        superseded), so there is nothing to forget here; callers erasing
        a block may invoke this per page purely as a cheap safety net.
        Clearing a page that still holds the newest copy of an LPN would
        silently lose data, so that is the one thing this refuses.
        """
        if self.is_valid_ppn(ppn):
            raise MappingError(f"refusing to clear PPN {ppn}: still holds valid data")

    # ------------------------------------------------------------------

    def valid_ppns_in(self, ppn_range: range) -> list[int]:
        """Valid PPNs within a range (used by GC to find live pages)."""
        start = ppn_range.start
        chunk = self.p2l[start : ppn_range.stop]
        return [start + o for o, lpn in enumerate(chunk) if lpn != UNMAPPED]

    def check_consistency(self) -> None:
        """Assert l2p/p2l are mutual inverses (test support, O(pages))."""
        p2l = self.p2l
        for lpn, ppn in enumerate(self.l2p):
            if ppn != UNMAPPED and p2l[ppn] != lpn:
                raise MappingError(f"l2p[{lpn}]={ppn} but p2l[{ppn}]={p2l[ppn]}")
        mapped = len(self.l2p) - self.l2p.count(UNMAPPED)
        valid = len(p2l) - p2l.count(UNMAPPED)
        if valid != mapped:
            raise MappingError(f"{mapped} mapped LPNs but {valid} valid PPNs")
        if self.mapped_count != mapped:
            raise MappingError(
                f"mapped_count={self.mapped_count} but {mapped} mapped LPNs"
            )
