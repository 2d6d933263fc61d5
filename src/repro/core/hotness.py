"""The four data hotness levels and their placement semantics.

Section 3.2 of the paper refines the classic hot/cold split into four
levels by *read* re-access frequency:

=========  =========================  =====================  ==========
Level      Behaviour                  Example                Placement
=========  =========================  =====================  ==========
IRON_HOT   frequently read + written  file-system metadata   hot block, fast pages
HOT        frequently written         temp/cache files       hot block, slow pages
COLD       write-once-read-many       videos, pictures       cold block, fast pages
ICY_COLD   write-once-read-few        backups                cold block, slow pages
=========  =========================  =====================  ==========

Hot and iron-hot data share *hot blocks*; cold and icy-cold data share
*cold blocks* — never mixed, so GC always finds blocks that are either
mostly-invalid (hot) or mostly-valid (cold), preserving its efficiency.
Within a block, the frequently-*read* level of each area (iron-hot,
cold) gets the fast pages.
"""

from __future__ import annotations

import enum


class Area(enum.Enum):
    """Which block population a piece of data belongs to."""

    HOT = "hot"
    COLD = "cold"


class HotnessLevel(enum.IntEnum):
    """The paper's four-level classification, ordered coldest first."""

    ICY_COLD = 0
    COLD = 1
    HOT = 2
    IRON_HOT = 3

    @property
    def area(self) -> Area:
        """Hot blocks host HOT/IRON_HOT; cold blocks host COLD/ICY_COLD."""
        return _AREA_OF[self]

    @property
    def wants_fast_pages(self) -> bool:
        """Frequently-read levels earn the fast (bottom-layer) pages.

        Iron-hot data is read constantly; cold data is write-once but
        *read-many*.  Hot (write-mostly) and icy-cold (read-few) data
        can live on slow pages without hurting anything.
        """
        return _WANTS_FAST[self]

    @property
    def label(self) -> str:
        """Human-readable name used in reports."""
        return _LABEL_OF[self]


# Per-call lookup tables for the properties above: classification runs
# once per host write, so the properties must not rebuild containers.
_AREA_OF = {
    HotnessLevel.ICY_COLD: Area.COLD,
    HotnessLevel.COLD: Area.COLD,
    HotnessLevel.HOT: Area.HOT,
    HotnessLevel.IRON_HOT: Area.HOT,
}
_WANTS_FAST = {
    HotnessLevel.ICY_COLD: False,
    HotnessLevel.COLD: True,
    HotnessLevel.HOT: False,
    HotnessLevel.IRON_HOT: True,
}
_LABEL_OF = {
    HotnessLevel.ICY_COLD: "icy-cold",
    HotnessLevel.COLD: "cold",
    HotnessLevel.HOT: "hot",
    HotnessLevel.IRON_HOT: "iron-hot",
}
