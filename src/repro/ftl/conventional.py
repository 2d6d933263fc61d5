"""The paper's baseline: a speed-oblivious page-mapping FTL.

"Current FTL designs ... assume all pages have the same access speed"
(Section 2.2).  This FTL keeps one active block that host writes and GC
relocations share, fills it strictly in page order, and reclaims space
with greedy (min-valid) victim selection.  It never looks at page
position, so hot data lands on fast and slow pages uniformly — and hot
and cold data mix freely within blocks, which is exactly the Fig. 3
situation that motivates PPB.

On multi-chip devices the inherited chip-striped free pool rotates the
active block across chips as blocks fill, and every device command the
service path issues is chip-attributed through the
:class:`~repro.nand.device.NandDevice` op log — which is what the timed
replay mode uses to overlay chip/channel concurrency onto this FTL's
requests.  Single-chip behaviour is unchanged, byte for byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ftl.base import BaseFTL
from repro.nand.device import NandDevice
from repro.nand.spec import NandSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reliability.manager import ReliabilityManager
    from repro.reliability.refresh import RefreshPolicy


class ConventionalFTL(BaseFTL):
    """Page-mapping FTL with greedy GC and no speed awareness."""

    name = "conventional"

    def __init__(
        self,
        device: NandDevice,
        reliability: "ReliabilityManager | None" = None,
        refresh: "RefreshPolicy | None" = None,
    ) -> None:
        super().__init__(device, reliability=reliability, refresh=refresh)
        self._host_active: int | None = None
        self._gc_active: int | None = None
        # Multi-plane devices keep one append point per (chip, plane)
        # and rotate host writes through them, so concurrent requests
        # land on different planes and the timed replay can overlap the
        # array times.  Single-plane devices keep the single active
        # block, byte for byte.
        if self._planes > 1:
            ways = self.blocks.num_groups
            self._host_slots: "list[int | None] | None" = [None] * ways
            self._host_cursor = 0
        else:
            self._host_slots = None

    @classmethod
    def open_blocks(cls, spec: NandSpec) -> dict[str, int]:
        if spec.planes_per_chip == 1:
            # One active block that host writes and GC copies share.
            return {"append point": 1, **super().open_blocks(spec)}
        return {
            "host append points": spec.num_chips * spec.planes_per_chip,
            "GC point": 1,
            **super().open_blocks(spec),
        }

    # ------------------------------------------------------------------
    # Placement: next free page of the stream's active block
    # ------------------------------------------------------------------

    def _alloc_ppn(self, lpn: int, nbytes: int, is_gc: bool) -> int:
        if self._host_slots is not None:
            # Only host writes stripe.  GC relocations keep one bounded
            # append point: striping them could open one block per
            # (chip, plane) group right at the low watermark and
            # exhaust the pool mid-collect.
            if not is_gc:
                return self._alloc_striped()
            pbn = self._ensure_active("_gc_active")
        else:
            pbn = self._ensure_active("_host_active")
        return pbn * self._ppb + self._write_ptr[pbn]

    def _alloc_striped(self) -> int:
        """Rotate the host append point across (chip, plane) slots."""
        slots = self._host_slots
        slot = self._host_cursor
        self._host_cursor = (slot + 1) % len(slots)
        pbn = slots[slot]
        if pbn is None or self._write_ptr[pbn] == self._ppb:
            pbn = self.blocks.allocate_in_group(slot)
            slots[slot] = pbn
        return pbn * self._ppb + self._write_ptr[pbn]

    def _ensure_active(self, attr: str) -> int:
        """Return the stream's active block, opening a new one if needed."""
        pbn: int | None = getattr(self, attr)
        if pbn is None or self._write_ptr[pbn] == self._ppb:
            pbn = self.blocks.allocate()
            setattr(self, attr, pbn)
        return pbn

    def _active_blocks(self) -> set[int]:
        active = set()
        if self._host_slots is not None:
            for pbn in self._host_slots:
                if pbn is not None:
                    active.add(pbn)
        if self._host_active is not None:
            active.add(self._host_active)
        if self._gc_active is not None:
            active.add(self._gc_active)
        return active

    def _on_block_full(self, pbn: int) -> None:
        if self._host_slots is not None:
            for i, open_pbn in enumerate(self._host_slots):
                if open_pbn == pbn:
                    self._host_slots[i] = None
        if pbn == self._host_active:
            self._host_active = None
        if pbn == self._gc_active:
            self._gc_active = None
