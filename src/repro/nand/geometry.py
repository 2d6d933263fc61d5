"""Flat NAND address arithmetic.

The FTL layers address pages with a flat *physical page number* (PPN) and
blocks with a flat *physical block number* (PBN).  This module maps
those flat numbers to a page's block, page index and chip, and a chip
to its channel.

Layout: PPNs are block-major — all pages of PBN 0, then all pages of
PBN 1, ... — so ``ppn // pages_per_block == pbn`` and
``ppn % pages_per_block`` is the page index inside the block (which also
determines the gate stack layer and therefore the access speed).
"""

from __future__ import annotations

from repro.errors import AddressError
from repro.nand.spec import NandSpec


class Geometry:
    """Address arithmetic for a :class:`~repro.nand.spec.NandSpec` device."""

    def __init__(self, spec: NandSpec) -> None:
        self.spec = spec
        self.pages_per_block = spec.pages_per_block
        self.blocks_per_chip = spec.blocks_per_chip
        self.num_chips = spec.num_chips
        self.num_channels = spec.num_channels
        self.total_blocks = spec.total_blocks
        self.total_pages = spec.total_pages
        #: pages per chip, for the flat chip-of-PPN arithmetic.
        self.pages_per_chip = spec.blocks_per_chip * spec.pages_per_block

    # -- Flat helpers (hot path: inline range check, arithmetic only) ---

    def pbn_of_ppn(self, ppn: int) -> int:
        """Physical block number that contains ``ppn``."""
        if not 0 <= ppn < self.total_pages:
            self.check_ppn(ppn)
        return ppn // self.pages_per_block

    def page_of_ppn(self, ppn: int) -> int:
        """Page index inside the block for ``ppn`` (drives access speed)."""
        if not 0 <= ppn < self.total_pages:
            self.check_ppn(ppn)
        return ppn % self.pages_per_block

    def first_ppn_of_pbn(self, pbn: int) -> int:
        """PPN of page 0 of the given block."""
        if not 0 <= pbn < self.total_blocks:
            self.check_pbn(pbn)
        return pbn * self.pages_per_block

    def ppn_range_of_pbn(self, pbn: int) -> range:
        """All PPNs of a block, in programming order."""
        start = self.first_ppn_of_pbn(pbn)
        return range(start, start + self.pages_per_block)

    # -- Channel topology -----------------------------------------------

    def chip_of_ppn(self, ppn: int) -> int:
        """Chip owning ``ppn`` (flat arithmetic, range-checked)."""
        if not 0 <= ppn < self.total_pages:
            self.check_ppn(ppn)
        return ppn // self.pages_per_chip

    def channel_of_chip(self, chip: int) -> int:
        """Host-interface channel chip ``chip`` is wired to.

        Chips interleave across channels (chip ``c`` sits on channel
        ``c % num_channels``), the conventional multi-channel NAND
        wiring: consecutive chips land on different buses, so striped
        data spreads bus load as well as array load.
        """
        if not 0 <= chip < self.num_chips:
            raise AddressError(f"chip {chip} out of range [0, {self.num_chips})")
        return chip % self.num_channels

    # -- Validation -----------------------------------------------------

    def check_ppn(self, ppn: int) -> None:
        """Raise :class:`AddressError` if ``ppn`` is out of range."""
        if not 0 <= ppn < self.total_pages:
            raise AddressError(f"PPN {ppn} out of range [0, {self.total_pages})")

    def check_pbn(self, pbn: int) -> None:
        """Raise :class:`AddressError` if ``pbn`` is out of range."""
        if not 0 <= pbn < self.total_blocks:
            raise AddressError(f"PBN {pbn} out of range [0, {self.total_blocks})")
