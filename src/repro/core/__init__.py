"""The paper's contribution: the Progressive Performance Boosting strategy.

PPB exploits the asymmetric page access speed of 3D charge-trap NAND by
placing data of four hotness levels on pages of matching speed, without
hurting garbage collection:

* :mod:`repro.core.hotness` — the four levels (iron-hot / hot / cold /
  icy-cold) and their mapping to areas and speed classes.
* :mod:`repro.core.identification` — pluggable first-stage hot/cold
  identifiers (the paper's size-check case study plus two alternatives).
* :mod:`repro.core.lru` — the hot area's two-level LRU tracker.
* :mod:`repro.core.freqtable` — the cold area's access-frequency table.
* :mod:`repro.core.virtual_block` — virtual blocks carved from physical
  blocks by page speed, with the paper's lifecycle constraints.
* :mod:`repro.core.vblists` — the five VB lists and the Algorithm 1
  allocation discipline (divert on one-side-full, new pair only when
  both sides are full).
* :mod:`repro.core.placement` — the reliability-aware placement policy
  that prices fast pages' predicted RBER-at-horizon against their speed
  gain (``PPBConfig.reliability_weight``).
* :mod:`repro.core.ppb_ftl` — :class:`PPBFTL`, the full strategy on top
  of the shared FTL machinery.
"""

from repro.core.config import PPBConfig
from repro.core.placement import ReliabilityAwarePlacement
from repro.core.hotness import Area, HotnessLevel
from repro.core.identification import (
    FirstStageIdentifier,
    MultiHashIdentifier,
    SizeCheckIdentifier,
    TwoLevelLruIdentifier,
    make_identifier,
)
from repro.core.lru import TwoLevelLRU
from repro.core.freqtable import AccessFrequencyTable
from repro.core.virtual_block import VBState, VirtualBlock, VirtualBlockManager
from repro.core.vblists import AreaAllocator
from repro.core.ppb_ftl import PPBFTL

__all__ = [
    "PPBConfig",
    "Area",
    "HotnessLevel",
    "FirstStageIdentifier",
    "SizeCheckIdentifier",
    "TwoLevelLruIdentifier",
    "MultiHashIdentifier",
    "make_identifier",
    "TwoLevelLRU",
    "AccessFrequencyTable",
    "VBState",
    "VirtualBlock",
    "VirtualBlockManager",
    "AreaAllocator",
    "ReliabilityAwarePlacement",
    "PPBFTL",
]
