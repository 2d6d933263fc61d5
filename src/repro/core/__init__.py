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
