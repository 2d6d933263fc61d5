"""Reliability modeling for 3D charge-trap NAND: process variation,
retention, ECC read-retry, and refresh.

The paper exploits the *latency* asymmetry of tapered vertical channels;
the same feature-size taper drives a *reliability* asymmetry.  Cells at
the bottom of the channel (narrow opening, strong field) program and
read faster but experience a stronger tunnel-oxide field, so their raw
bit error rate (RBER) is higher; and all cells lose charge over
retention time, fastest right after programming ("early retention
loss", Luo et al., arXiv:1807.05140).

This package turns those mechanisms into a pluggable latency/lifetime
model that composes with the existing simulator:

:mod:`repro.reliability.variation`
    Per-layer RBER multipliers from the same channel-radius taper as
    :mod:`repro.nand.physics`, plus block-to-block lognormal process
    variation.  A ``uniform`` profile is the null model: all
    multipliers 1.0, so existing latency-only results are untouched.
:mod:`repro.reliability.retention`
    Retention-driven RBER growth with the fast/slow two-phase decay of
    early retention loss, and a P/E-cycling wear-out factor.
:mod:`repro.reliability.disturb`
    Read-disturb accumulation: per-block RBER growth with reads since
    the last erase, reset by every erase, and a second refresh trigger
    alongside retention age.
:mod:`repro.reliability.ecc`
    An ECC + read-retry model mapping instantaneous RBER to the number
    of re-sensing retry steps (extra read latency) and, past the retry
    budget, uncorrectable-read events.
:mod:`repro.reliability.manager`
    The stateful composition: per-block program timestamps and P/E
    counts driven by the simulation clock, queried on every host read
    to produce the retry latency penalty.  This is what
    :class:`repro.ftl.base.BaseFTL` hooks when reliability is enabled.
:mod:`repro.reliability.refresh`
    A retention-aware refresh policy: blocks whose predicted worst-page
    retry count exceeds a budget are migrated (rewritten elsewhere and
    erased), resetting their retention clock.  Pluggable into any
    :class:`~repro.ftl.base.BaseFTL` subclass (all four FTLs).
    With ``refresh_triage = "holds"`` the due test re-runs against the
    pages a block actually *holds* (live data), sparing blocks whose
    rot sits entirely on dead pages.
:mod:`repro.reliability.state`
    STAR-style state-aware error skew: per-page RBER spread from the
    program-level (cell state) population, damped by an on-chip
    state-aware randomizer.  Uniform skew is the exact null model.
:mod:`repro.reliability.faults`
    Deterministic fault injection: a counter-based stream of forced
    uncorrectable reads and full ECC-ladder storms, reproducible under
    any worker count and byte-identical to baseline at rate 0.

The sweeps over this package are scenario files:
``examples/scenarios/reliability_sweep.toml`` (speed ratio x retention
age x refresh) and ``examples/scenarios/placement_frontier.toml`` (the
reliability-aware placement frontier), run with ``repro scenario run``.
"""

from __future__ import annotations

from repro.reliability.disturb import ReadDisturbModel
from repro.reliability.ecc import EccModel
from repro.reliability.faults import FAULT_TARGETS, FaultInjector, FaultSpec
from repro.reliability.manager import (
    ReliabilityConfig,
    ReliabilityManager,
    ReliabilityStats,
)
from repro.reliability.refresh import RefreshPolicy
from repro.reliability.retention import RetentionModel
from repro.reliability.state import StateAwareModel
from repro.reliability.variation import VARIATION_PROFILES, VariationModel

__all__ = [
    "EccModel",
    "FAULT_TARGETS",
    "FaultInjector",
    "FaultSpec",
    "ReadDisturbModel",
    "RefreshPolicy",
    "ReliabilityConfig",
    "ReliabilityManager",
    "ReliabilityStats",
    "RetentionModel",
    "StateAwareModel",
    "VARIATION_PROFILES",
    "VariationModel",
]
