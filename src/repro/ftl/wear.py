"""Static wear leveling.

The paper explicitly scopes wear leveling out ("many excellent
wear-leveling designs can be easily integrated", Section 4.1); this
module provides one such integration so the claim can be demonstrated:
a classic threshold-based static wear leveler that occasionally swaps a
cold, rarely-erased block into circulation.

It plugs into any :class:`~repro.ftl.base.BaseFTL` subclass via the
victim-selection path: when the device's wear spread exceeds the
threshold, the next GC round reclaims the *least-erased* FULL block
instead of the greedy choice, forcing its long-lived data to move and
returning the young block to the hot allocation pool.
"""

from __future__ import annotations

import numpy as np

from repro.ftl.blockinfo import BlockManager
from repro.ftl.gc import VictimPolicy
from repro.nand.device import NandDevice


class WearLeveler(VictimPolicy):
    """Victim-policy decorator adding threshold-triggered static leveling."""

    name = "wear-leveling"

    def __init__(
        self,
        inner: VictimPolicy,
        device: NandDevice,
        threshold: int = 8,
    ) -> None:
        self.inner = inner
        self.device = device
        self.threshold = threshold
        self.interventions = 0
        self.name = f"{inner.name}+wl"

    # -- delegation ------------------------------------------------------

    def note_block_written(self, pbn: int, now: float) -> None:
        self.inner.note_block_written(pbn, now)

    def note_block_erased(self, pbn: int) -> None:
        self.inner.note_block_erased(pbn)

    # -- selection ---------------------------------------------------------

    def select(
        self,
        blocks: BlockManager,
        exclude: set[int] | None = None,
        now: float = 0.0,
    ) -> int | None:
        if self.device.wear_spread() > self.threshold:
            candidates = blocks.victim_candidates(exclude)
            if candidates.size:
                erase_count = self.device.erase_count
                counts = [erase_count(pbn) for pbn in candidates.tolist()]
                self.interventions += 1
                return int(candidates[int(np.argmin(counts))])
        return self.inner.select(blocks, exclude, now)
