"""Discrete-event simulation engine and SSD front end.

The paper's experiments run on a trace-driven flash simulator; this
package is ours.  :mod:`repro.sim.engine` is a small callback-calendar
DES kernel (simpy is not available offline); :mod:`repro.sim.ssd` is
the host-facing device: it splits byte-addressed requests into page
operations against an FTL and accounts service time, either as plain
trace-ordered sums (what the paper's latency totals are) or through the
DES kernel with arrival timestamps and queueing.
"""
