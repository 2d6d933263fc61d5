"""Flash translation layer substrate.

Provides :class:`~repro.ftl.base.BaseFTL`, the machinery every FTL in
this reproduction shares, and the three speed-oblivious baselines
built on it:

* :class:`~repro.ftl.conventional.ConventionalFTL` — page-mapping FTL
  with greedy garbage collection; the paper's "conventional FTL design"
  baseline.
* :class:`~repro.ftl.fast.FastFTL` — the hybrid log-buffer FTL of Lee
  et al. (TECS'07), cited by the paper as representative prior work; an
  additional baseline.
* :class:`~repro.ftl.dftl.DFTL` — demand-paged page mapping (Gupta et
  al., ASPLOS'09) whose LPN -> PPN map is cached in RAM and paged to
  flash through :mod:`repro.ftl.transmap`.

The paper's contribution, the PPB strategy, lives in :mod:`repro.core`
and builds on the same base classes.
"""
