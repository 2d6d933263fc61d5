"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.figures` builds the specs of each paper artifact and
renders paper-style reports; :mod:`repro.bench.reporting` runs and
renders them in batches.  Every figure replays through one memoizing
:class:`~repro.scenario.memo.ReplayRunner`, so no identical replay runs
twice (Figs. 13 and 16 use the same runs, for example).
"""
