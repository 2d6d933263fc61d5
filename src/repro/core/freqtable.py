"""The cold area's access-frequency table (paper Fig. 11a).

Each cold-classified chunk gets an entry logging its read re-access
count.  Chunks read at least ``promote_reads`` times classify as COLD
(write-once-read-many — they earn fast pages at their next relocation);
the rest stay ICY_COLD.  The paper keeps the table sorted by frequency;
a threshold on the count is the O(1) equivalent and is what we do.

Two pressure valves keep the table honest:

* **capacity eviction** — when full, a batch of about 1.5% of the
  capacity with the lowest counts is dropped, oldest entry first among
  equal counts (its data degrades to icy-cold by default);
* **aging** — counts are halved every ``aging_period`` recorded events,
  so data that stops being read drifts back toward icy-cold ("demote if
  not modified"/"demote if full", Fig. 6).
"""

from __future__ import annotations

from itertools import compress, islice

from repro.errors import ConfigError
from repro.core.hotness import HotnessLevel


class AccessFrequencyTable:
    """Bounded LPN -> read-count table with threshold classification.

    Alongside the counts the table keeps their histogram (count ->
    number of entries holding it), updated on every change, so an
    eviction finds its cut-off count without scanning the table.
    """

    def __init__(
        self,
        capacity: int,
        promote_reads: int = 1,
        aging_period: int = 100_000,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if promote_reads < 1:
            raise ConfigError(f"promote_reads must be >= 1, got {promote_reads}")
        self.capacity = capacity
        self.promote_reads = promote_reads
        self.aging_period = aging_period
        self._counts: dict[int, int] = {}
        self._histogram: dict[int, int] = {}
        self._events_since_aging = 0
        # Counters for reports.
        self.promotions = 0
        self.evictions = 0
        self.agings = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def level_of(self, lpn: int) -> HotnessLevel:
        """COLD once read enough, ICY_COLD otherwise (including untracked)."""
        if self._counts.get(lpn, 0) >= self.promote_reads:
            return HotnessLevel.COLD
        return HotnessLevel.ICY_COLD

    def count_of(self, lpn: int) -> int:
        """Current logged read count (0 if untracked)."""
        return self._counts.get(lpn, 0)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def on_write(self, lpn: int) -> None:
        """A cold-classified write arrived: (re)register with zero reads.

        Fresh cold data starts icy-cold; only subsequent reads promote
        it (the paper stores new cold data in the icy-cold area first).
        """
        counts = self._counts
        histogram = self._histogram
        old = counts.get(lpn)
        if old is not None:
            self._forget(old)
        histogram[0] = histogram.get(0, 0) + 1
        counts[lpn] = 0
        if len(counts) > self.capacity:
            self._enforce_capacity()
        if self.aging_period:
            self._events_since_aging += 1
            if self._events_since_aging >= self.aging_period:
                self._age()

    def on_read(self, lpn: int) -> bool:
        """Log one read; returns True if this read promoted icy -> cold."""
        counts = self._counts
        histogram = self._histogram
        old = counts.get(lpn)
        if old is None:
            count = 1
        else:
            self._forget(old)
            count = old + 1
        histogram[count] = histogram.get(count, 0) + 1
        counts[lpn] = count
        promoted = count == self.promote_reads
        if promoted:
            self.promotions += 1
        if len(counts) > self.capacity:
            self._enforce_capacity()
        if self.aging_period:
            self._events_since_aging += 1
            if self._events_since_aging >= self.aging_period:
                self._age()
        return promoted

    def drop(self, lpn: int) -> None:
        """Remove a chunk (reclassified hot, or trimmed)."""
        count = self._counts.pop(lpn, None)
        if count is not None:
            self._forget(count)

    # ------------------------------------------------------------------
    # Pressure valves
    # ------------------------------------------------------------------

    def _enforce_capacity(self) -> None:
        """Evict the ``batch`` lowest counts, oldest first among equals.

        Evicting in batches of ~1.5% of the capacity amortizes the
        eviction to O(1) per insert.  The victims are exactly the first
        ``batch`` entries of a stable sort by count: every entry below a
        cut-off count, then the oldest entries at the cut-off.  The
        histogram gives the cut-off and how many entries lie below it,
        so each of the two passes over the table, in insertion order,
        stops at its last victim.
        """
        counts = self._counts
        if len(counts) <= self.capacity:
            return
        batch = max(1, self.capacity // 64, len(counts) - self.capacity)
        histogram = self._histogram
        below = 0  # entries with a count under the cut-off, all evicted
        for cut in sorted(histogram):
            if below + histogram[cut] >= batch:
                break
            below += histogram.pop(cut)
        ties = batch - below  # the oldest entries at the cut-off
        victims = list(islice(compress(counts, map(cut.__gt__, counts.values())), below))
        victims += islice(compress(counts, map(cut.__eq__, counts.values())), ties)
        for lpn in victims:
            del counts[lpn]
        self._forget(cut, ties)
        self.evictions += batch

    def _forget(self, count: int, entries: int = 1) -> None:
        """Take ``entries`` entries holding ``count`` out of the histogram."""
        histogram = self._histogram
        left = histogram[count] - entries
        if left:
            histogram[count] = left
        else:
            del histogram[count]

    def _age(self) -> None:
        """Halve every count (the callers gate on the aging period)."""
        self._counts = {lpn: c >> 1 for lpn, c in self._counts.items()}
        halved: dict[int, int] = {}
        for count, entries in self._histogram.items():
            halved[count >> 1] = halved.get(count >> 1, 0) + entries
        self._histogram = halved
        self._events_since_aging = 0
        self.agings += 1
