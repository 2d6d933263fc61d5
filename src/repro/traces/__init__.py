"""Trace infrastructure: I/O records, MSR Cambridge parsing, synthesis.

The paper replays two MSR Cambridge enterprise traces ("media server"
and "web/SQL server").  Those traces are not redistributable, so this
package provides both:

* :mod:`repro.traces.msr` — a parser/writer for the genuine MSRC CSV
  format, so the real traces drop in unchanged when available; and
* :mod:`repro.traces.workloads` — seeded synthetic generators that
  reproduce the published characteristics of those workloads (request
  size mix, read/write ratio, sequentiality, and re-access skew — the
  properties PPB's gain actually depends on).
"""
