"""Sparse, allocation-free backing for :class:`PageMapTable`.

A 4 TB device at 16 KB pages has ~270 million logical pages; the dense
``array('q')`` columns of :class:`~repro.ftl.mapping.PageMapTable`
would pin gigabytes (8 bytes a slot) before the first write.
:class:`LazyPageMapTable` keeps the exact same observable behaviour —
including the ``map.l2p[lpn]`` / ``map.p2l[ppn]`` direct indexing the
replay hot path uses — but stores only the mapped entries, in dicts
that read :data:`UNMAPPED` for absent keys and drop keys assigned
:data:`UNMAPPED`.

Memory is proportional to *mapped* pages, so a terabyte-scale DFTL run
that touches a bounded working set stays small, and construction is
O(1) regardless of geometry.  DFTL uses it only past
:data:`~repro.ftl.mapping.FULL_MAP_MAX_ENTRIES`, where the dense table
refuses to allocate; below that limit the dense columns are faster
(each remap is three array stores, not three Python-level
``__setitem__`` calls) and smaller once about a tenth of the logical
pages are mapped (about 170 bytes per mapped page here, against 16 per
logical page there).
"""

from __future__ import annotations

from repro.errors import MappingError
from repro.ftl.mapping import UNMAPPED, PageMapTable


class _SparseArray(dict):
    """A dict posing as a dense column of ``n`` :data:`UNMAPPED` entries.

    Reading a missing index yields :data:`UNMAPPED` (without inserting
    it); writing :data:`UNMAPPED` deletes the key.  Only the operations
    the mapping code performs are emulated — no slicing, no ``len``
    semantics of the dense column.
    """

    __slots__ = ()

    def __missing__(self, key: int) -> int:
        return UNMAPPED

    def __setitem__(self, key: int, value: int) -> None:
        if value == UNMAPPED:
            dict.pop(self, key, None)
        else:
            dict.__setitem__(self, key, value)


class LazyPageMapTable(PageMapTable):
    """A :class:`PageMapTable` that allocates nothing up front.

    Subclasses override only construction and the two bulk helpers that
    assumed dense columns; every scalar operation (``remap``, ``unmap``,
    ``ppn_of`` ... and the hot-path direct indexing) is inherited
    unchanged and works through :class:`_SparseArray`.
    """

    def __init__(self, num_lpns: int, num_ppns: int) -> None:
        # Deliberately not super().__init__: the base allocates the
        # dense columns (and guards against doing so at this scale).
        if num_lpns < 1 or num_ppns < 1:
            raise MappingError(
                f"need positive table sizes, got lpns={num_lpns}, ppns={num_ppns}"
            )
        self.num_lpns = num_lpns
        self.num_ppns = num_ppns
        self.l2p = _SparseArray()
        self.p2l = _SparseArray()
        self.mapped_count = 0

    # ------------------------------------------------------------------

    def valid_ppns_in(self, ppn_range: range) -> list[int]:
        """Valid PPNs within a range (membership scan, O(range))."""
        p2l = self.p2l
        return [ppn for ppn in ppn_range if ppn in p2l]

    def check_consistency(self) -> None:
        """Assert l2p/p2l are mutual inverses (O(mapped), not O(pages))."""
        p2l = self.p2l
        l2p = self.l2p
        for lpn, ppn in l2p.items():
            if p2l.get(ppn) != lpn:
                raise MappingError(
                    f"l2p[{lpn}]={ppn} but p2l[{ppn}]={p2l.get(ppn)}"
                )
        if len(p2l) != len(l2p):
            raise MappingError(
                f"{len(l2p)} mapped LPNs but {len(p2l)} valid PPNs"
            )
        if self.mapped_count != len(l2p):
            raise MappingError(
                f"mapped_count={self.mapped_count} but {len(l2p)} mapped LPNs"
            )
