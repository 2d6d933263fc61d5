"""Flash translation layer substrate.

Provides :class:`~repro.ftl.base.BaseFTL`, the machinery every FTL in
this reproduction shares, and the two speed-oblivious baselines built
on it:

* :class:`~repro.ftl.conventional.ConventionalFTL` — page-mapping FTL
  with greedy garbage collection; the paper's "conventional FTL design"
  baseline.
* :class:`~repro.ftl.fast.FastFTL` — the hybrid log-buffer FTL of Lee
  et al. (TECS'07), cited by the paper as representative prior work; an
  additional baseline.

The paper's contribution, the PPB strategy, lives in :mod:`repro.core`
and builds on the same base classes.
"""

from repro.ftl.base import BaseFTL, WriteContext
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.fast import FastFTL
from repro.ftl.gc import GreedyVictimPolicy, CostBenefitVictimPolicy, RandomVictimPolicy
from repro.ftl.mapping import PageMapTable
from repro.ftl.blockinfo import BlockManager, BlockState
from repro.ftl.stats import FtlStats
from repro.ftl.wear import WearLeveler

__all__ = [
    "BaseFTL",
    "WriteContext",
    "ConventionalFTL",
    "FastFTL",
    "GreedyVictimPolicy",
    "CostBenefitVictimPolicy",
    "RandomVictimPolicy",
    "PageMapTable",
    "BlockManager",
    "BlockState",
    "FtlStats",
    "WearLeveler",
]
