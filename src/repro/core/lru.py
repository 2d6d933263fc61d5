"""The hot area's two-level LRU tracker (paper Fig. 10a).

Hot-classified data enters the *hot list*; a read while resident
promotes the entry to the *iron-hot list* ("promote if read").  When
the iron-hot list overflows, its least-recently-used entry is demoted
back to the head of the hot list ("demote if full"); when the hot list
overflows, its LRU entry is demoted out of the hot area entirely — the
caller moves it to the cold area's frequency table ("move to cold area
if full").

The tracker holds *classifications only*.  Physical data movement is
progressive: it happens when the page is next updated or relocated by
GC, never as an extra foreground copy — that is the core of the PPB
strategy's "no added GC overhead" claim.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError
from repro.core.hotness import HotnessLevel


class TwoLevelLRU:
    """Hot/iron-hot classification with LRU demotion cascades."""

    def __init__(self, hot_capacity: int, iron_capacity: int) -> None:
        if hot_capacity < 1 or iron_capacity < 1:
            raise ConfigError(
                f"capacities must be >= 1, got hot={hot_capacity}, iron={iron_capacity}"
            )
        self.hot_capacity = hot_capacity
        self.iron_capacity = iron_capacity
        self._hot: OrderedDict[int, None] = OrderedDict()
        self._iron: OrderedDict[int, None] = OrderedDict()
        # Counters for reports.
        self.promotions = 0
        self.demotions_to_hot = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def level_of(self, lpn: int) -> HotnessLevel | None:
        """IRON_HOT / HOT if tracked here, else None."""
        if lpn in self._iron:
            return HotnessLevel.IRON_HOT
        if lpn in self._hot:
            return HotnessLevel.HOT
        return None

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._iron or lpn in self._hot

    def __len__(self) -> int:
        return len(self._iron) + len(self._hot)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def on_write(self, lpn: int) -> list[int]:
        """A hot-classified write arrived; returns LPNs evicted to cold.

        A new chunk goes to the head of the hot list (Fig. 10a); a
        rewrite of a tracked chunk refreshes its recency in place.
        """
        return self.on_hot_write(lpn)[1]

    def on_hot_write(self, lpn: int) -> tuple[HotnessLevel, list[int]]:
        """:meth:`on_write` fused with the level query the caller needs.

        One membership check decides both the write's target level (an
        iron-hot chunk being updated stays iron-hot) and the list
        transition — the per-host-write path uses this to avoid probing
        the iron list twice.
        """
        iron = self._iron
        if lpn in iron:
            iron.move_to_end(lpn)
            return HotnessLevel.IRON_HOT, []
        hot = self._hot
        hot[lpn] = None
        hot.move_to_end(lpn)
        if len(hot) <= self.hot_capacity:
            return HotnessLevel.HOT, []
        return HotnessLevel.HOT, self._shrink_hot()

    def on_read(self, lpn: int) -> list[int]:
        """A read hit a tracked chunk; promote hot -> iron-hot.

        Returns LPNs evicted to the cold area by the demotion cascade
        (iron overflow pushes into hot, hot overflow pushes out).
        """
        if lpn in self._iron:
            self._iron.move_to_end(lpn)
            return []
        if lpn not in self._hot:
            return []
        del self._hot[lpn]
        self._iron[lpn] = None
        self.promotions += 1
        evicted: list[int] = []
        while len(self._iron) > self.iron_capacity:
            demoted, _ = self._iron.popitem(last=False)
            self._hot[demoted] = None
            self._hot.move_to_end(demoted)
            self.demotions_to_hot += 1
        evicted.extend(self._shrink_hot())
        return evicted

    def drop(self, lpn: int) -> None:
        """Remove a chunk (reclassified to cold by a later write, or trimmed)."""
        self._iron.pop(lpn, None)
        self._hot.pop(lpn, None)

    def _shrink_hot(self) -> list[int]:
        evicted: list[int] = []
        while len(self._hot) > self.hot_capacity:
            lpn, _ = self._hot.popitem(last=False)
            evicted.append(lpn)
            self.evictions += 1
        return evicted
