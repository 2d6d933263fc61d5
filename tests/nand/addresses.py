"""Structured NAND addresses for tests.

The simulator addresses pages and blocks by flat number only; tests
that want "page ``p`` of block ``b`` on chip ``c``" build the flat
number here.  PPNs are block-major and PBNs chip-major (see
:mod:`repro.nand.geometry`).
"""

from __future__ import annotations

from repro.nand.geometry import Geometry


def pbn_at(geometry: Geometry, chip: int, block: int) -> int:
    """Flat PBN of in-chip block ``block`` on ``chip``."""
    assert 0 <= chip < geometry.num_chips and 0 <= block < geometry.blocks_per_chip
    return chip * geometry.blocks_per_chip + block


def ppn_at(geometry: Geometry, chip: int, block: int, page: int) -> int:
    """Flat PPN of page ``page`` of in-chip block ``block`` on ``chip``."""
    assert 0 <= page < geometry.pages_per_block
    return pbn_at(geometry, chip, block) * geometry.pages_per_block + page
