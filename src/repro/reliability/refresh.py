"""Retention-aware refresh: rewrite at-risk cold blocks before they rot.

Data that is written once and then only read (exactly the cold data the
PPB strategy parks on slow pages) never gets the implicit "refresh" of
being rewritten, so its retention age — and with it the per-read retry
cost — grows without bound.  The remedy, as in Luo et al.'s refresh
schemes, is to periodically migrate blocks whose predicted error rate
approaches the ECC's comfort zone: relocate the live pages, erase the
block, and let the retention clock restart.

:class:`RefreshPolicy` is the *selection* half: every
``check_interval`` host operations the FTL asks it for due blocks — FULL
blocks whose worst-page predicted retry count exceeds the budget — and
refreshes at most ``max_blocks_per_check`` of them per check (bounding
the background work any single host op can trigger).  A block enters a
scan through either of two gates: it is *old* enough for retention to
matter (``min_age_s``), or it has absorbed enough reads for read
disturb to matter (``disturb_reads``, the second refresh trigger; see
:mod:`repro.reliability.disturb`).  The *mechanics* half reuses the
FTL's own relocation path through the
:meth:`repro.ftl.base.BaseFTL._refresh_block` hook — GC collection for
the page-mapping designs, merges for FAST — so
refresh inherits every data-integrity invariant those paths' tests
already prove, and PPB's classification hooks naturally re-place
refreshed data on speed-appropriate pages.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.ftl.blockinfo import BlockManager
from repro.reliability.manager import ReliabilityConfig, ReliabilityManager

#: the holds callback: in-block page indices with live data, or None
#: when the FTL cannot enumerate them (falls back to worst-page).
HoldsFn = Callable[[int], "Iterable[int] | None"]


class RefreshPolicy:
    """Selects which blocks to refresh, and when to look."""

    name = "retention-refresh"

    def __init__(
        self,
        manager: ReliabilityManager,
        config: ReliabilityConfig | None = None,
    ) -> None:
        self.manager = manager
        cfg = config or manager.config
        #: refresh a block when its worst page would need more than this
        #: many retry steps.
        self.retry_budget = cfg.refresh_retry_budget
        #: host ops between refresh scans.
        self.check_interval = cfg.refresh_check_interval
        #: cap on blocks refreshed per scan (bounds the background stall).
        self.max_blocks_per_check = cfg.refresh_max_blocks_per_check
        #: ignore blocks younger than this (they cannot be at risk yet)
        #: unless read disturb lets them in through the second gate.
        self.min_age_s = cfg.refresh_min_age_s
        #: reads past which a block qualifies regardless of age (the
        #: read-disturb trigger; 0 disables the gate).
        self.disturb_reads = cfg.refresh_disturb_reads
        #: triage basis: "worst" physical page, or the pages a block
        #: actually "holds" (valid-page retry prediction).
        self.triage = cfg.refresh_triage
        #: op sequence of the last scan (cadence is crossing-based, not
        #: exact-multiple, so ops that bypass the refresh hook — trims,
        #: unmapped reads — can never suppress a scan, only delay it to
        #: the next hooked op).
        self._last_check_op = 0

    # ------------------------------------------------------------------

    def is_check_due(self, op_sequence: int) -> bool:
        """Whether the FTL should scan for refresh work at this op."""
        if op_sequence - self._last_check_op < self.check_interval:
            return False
        self._last_check_op = op_sequence
        return True

    def due_blocks(
        self,
        blocks: BlockManager,
        exclude: set[int] | None = None,
        holds: HoldsFn | None = None,
    ) -> list[int]:
        """At-risk FULL blocks, most urgent first, capped per check.

        With ``refresh_triage = "holds"`` and a ``holds`` callback, a
        block whose *worst physical page* is past the budget but whose
        worst *live* page is not gets skipped — its rotting pages hold
        no data anyone will read — and the skip (block + live pages
        spared a copy) is tallied in the manager's stats extras.
        """
        candidates = blocks.victim_candidates(exclude)
        if not candidates.size:
            return []
        manager = self.manager
        # With a non-negative budget, a block inside its zero-retry safe
        # window can never be due (steps == 0); the O(1) deadline check
        # runs first — before the scan gates — so a null-config scan
        # stays one cached float comparison per block instead of
        # re-deriving predicted_block_retries for already-safe blocks.
        fast_skip = self.retry_budget >= 0
        holds_triage = self.triage == "holds" and holds is not None
        urgencies: list[tuple[int, int]] = []
        for pbn in candidates.tolist():
            if fast_skip and manager.worst_page_is_safe(pbn):
                continue
            if not self._in_scan(pbn):
                continue
            steps, uncorrectable = manager.predicted_block_retries(pbn)
            if not (uncorrectable or steps > self.retry_budget):
                continue
            if holds_triage:
                held = holds(pbn)
                if held is not None:
                    held = list(held)
                    steps, uncorrectable = manager.predicted_holds_retries(pbn, held)
                    if not (uncorrectable or steps > self.retry_budget):
                        self._note_triage_skip(pbn, len(held))
                        continue
            urgencies.append((steps, pbn))
        if not urgencies:
            return []
        urgencies.sort(key=lambda pair: (-pair[0], pair[1]))
        return [pbn for _, pbn in urgencies[: self.max_blocks_per_check]]

    def _note_triage_skip(self, pbn: int, held_pages: int) -> None:
        """Tally one block the holds triage spared from refreshing."""
        extra = self.manager.stats.extra
        extra["triage.skipped_blocks"] = extra.get("triage.skipped_blocks", 0.0) + 1.0
        extra["triage.saved_pages"] = extra.get("triage.saved_pages", 0.0) + float(
            held_pages
        )

    def _in_scan(self, pbn: int) -> bool:
        """Whether either refresh gate (age, read disturb) admits ``pbn``."""
        if self.manager.age_of(pbn) >= self.min_age_s:
            return True
        return bool(
            self.disturb_reads and self.manager.reads_of(pbn) >= self.disturb_reads
        )

    def describe(self) -> str:
        """One-line summary for logs."""
        disturb = (
            f", disturb>={self.disturb_reads} reads" if self.disturb_reads else ""
        )
        triage = f", triage={self.triage}" if self.triage != "worst" else ""
        return (
            f"RefreshPolicy(budget={self.retry_budget} retries, "
            f"every {self.check_interval} ops, "
            f"<= {self.max_blocks_per_check} blocks/check, "
            f"min_age={self.min_age_s / 3600.0:.1f}h{disturb}{triage})"
        )
