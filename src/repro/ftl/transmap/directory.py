"""The global translation directory (GTD).

Maps each translation virtual page (TVPN — a fixed-size slice of the
LPN space) to the physical page its current copy occupies.  Small
enough to pin in host RAM even for terabyte devices (one entry per
``entries_per_page`` logical pages), it is the root of the demand-paged
mapping: a cache miss walks GTD -> translation page -> data page.

The reverse map (PPN -> TVPN) exists for the translation-block GC
path, which must ask "whose translation page is this?" for every live
page of a victim block.
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.ftl.mapping import UNMAPPED


class GlobalTranslationDirectory:
    """TVPN <-> PPN directory with the reverse view GC needs."""

    def __init__(self, num_lpns: int, entries_per_page: int) -> None:
        if num_lpns < 1:
            raise MappingError(f"need num_lpns >= 1, got {num_lpns}")
        if entries_per_page < 1:
            raise MappingError(
                f"entries_per_page must be >= 1, got {entries_per_page}"
            )
        self.entries_per_page = entries_per_page
        #: translation pages needed to cover the LPN space.
        self.num_translation_pages = -(-num_lpns // entries_per_page)
        self._ppn_of: dict[int, int] = {}
        self._tvpn_of: dict[int, int] = {}

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Translation pages currently persisted on flash."""
        return len(self._ppn_of)

    def ppn_of(self, tvpn: int) -> int:
        """Where the translation page lives on flash, or -1 if never written.

        Only a TVPN with no copy is range-checked: one with a copy
        passed the check when :meth:`update` recorded it.
        """
        ppn = self._ppn_of.get(tvpn)
        if ppn is None:
            self._check(tvpn)
            return UNMAPPED
        return ppn

    def tvpn_at(self, ppn: int) -> int:
        """Which translation page's current copy occupies ``ppn``, or -1."""
        return self._tvpn_of.get(ppn, UNMAPPED)

    def update(self, tvpn: int, ppn: int) -> None:
        """Record a new copy of a translation page, dropping the old one's
        reverse entry."""
        self._check(tvpn)
        existing = self._tvpn_of.get(ppn)
        if existing is not None and existing != tvpn:
            raise MappingError(
                f"PPN {ppn} already holds translation page {existing}"
            )
        old = self._ppn_of.get(tvpn, UNMAPPED)
        if old != UNMAPPED:
            del self._tvpn_of[old]
        self._ppn_of[tvpn] = ppn
        self._tvpn_of[ppn] = tvpn

    def _check(self, tvpn: int) -> None:
        if not 0 <= tvpn < self.num_translation_pages:
            raise MappingError(
                f"TVPN {tvpn} out of range [0, {self.num_translation_pages})"
            )

    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert the forward and reverse maps are exact inverses."""
        if len(self._ppn_of) != len(self._tvpn_of):
            raise MappingError(
                f"{len(self._ppn_of)} directory entries but "
                f"{len(self._tvpn_of)} reverse entries"
            )
        for tvpn, ppn in self._ppn_of.items():
            if self._tvpn_of.get(ppn) != tvpn:
                raise MappingError(
                    f"GTD[{tvpn}]={ppn} but reverse[{ppn}]="
                    f"{self._tvpn_of.get(ppn)}"
                )
