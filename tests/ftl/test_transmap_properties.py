"""Property tests: the demand-paged map resolves like the ground truth.

Hypothesis drives random read/write/trim sequences through a DFTL whose
cache is deliberately starved (8 entries, 4-entry translation pages,
batch-of-2 eviction) on a 10-block device, so misses, dirty
write-backs, data and translation-block GC and the full-map shadow all
interleave — then asserts that CMT +
directory + on-flash translation pages resolve **every** LPN to exactly
what the ground-truth map says.  That is the data-integrity property of
the whole design: an eviction that lost a dirty entry, a GC copy that
missed a directory update, or a stale translation-page snapshot would
all surface here as a wrong resolution.

DFTL builds its ground-truth map from the geometry: the dense
:class:`~repro.ftl.mapping.PageMapTable` on every device under the
full-map limit (so on every tiny one), the sparse
:class:`~repro.ftl.transmap.LazyPageMapTable` past it.  ``LazyDFTL``
forces the sparse one, so both properties run on both backends, and a
lockstep test drives one stream through both and compares their whole
state after every operation.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ftl.dftl import DFTL
from repro.ftl.mapping import PageMapTable, UNMAPPED
from repro.ftl.transmap import LazyPageMapTable, MappingConfig
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec

#: starved mapping cache: every machinery path exercised within ~100 ops.
STARVED = MappingConfig(cache_entries=8, entries_per_page=4, evict_batch=2)

#: few enough blocks that a few hundred ops collect data and translation
#: blocks (``tiny_spec()``'s 64 blocks need far more programs than 250
#: ops make before GC starts).
SMALL = tiny_spec(blocks_per_chip=10)

#: (op, lpn) over a small LPN range so collisions and re-dirtying happen.
OP = st.tuples(
    st.sampled_from(["w", "r", "t"]),
    st.integers(min_value=0, max_value=63),
)
OPS = st.lists(OP, min_size=1, max_size=250)
#: long enough that a draw collects blocks on ``SMALL`` (120 uniform
#: random ops did in each of 100 seeded streams).
LONG_OPS = st.lists(OP, min_size=120, max_size=300)

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class LazyDFTL(DFTL):
    """A DFTL on the sparse ground-truth map whatever its geometry."""

    def _make_map(self) -> PageMapTable:
        return LazyPageMapTable(self.num_lpns, self.spec.total_pages)


def _apply(ftl, op: str, lpn: int) -> float:
    """Run one drawn op; returns its latency."""
    lpn = lpn % ftl.num_lpns
    if op == "w":
        return ftl.host_write(lpn)
    if op == "r":
        return ftl.host_read(lpn)
    return ftl.trim(lpn)


def _drive(ftl, ops) -> int:
    """Apply the op sequence; returns how many ops resolved a mapping."""
    for op, lpn in ops:
        _apply(ftl, op, lpn)
    return len(ops)


def _state(ftl) -> dict:
    """Everything two backends must agree on after each operation."""
    cmt = ftl.cmt
    device = ftl.device
    return {
        "l2p": [ftl.map.l2p[lpn] for lpn in range(ftl.num_lpns)],
        "cmt": list(cmt.items()),
        "dirty": {tvpn: sorted(lpns) for tvpn, lpns in cmt._dirty_groups.items()},
        "gtd": [ftl.gtd.ppn_of(t) for t in range(ftl.gtd.num_translation_pages)],
        "extra": list(ftl.stats.extra.items()),
        "stats": ftl.stats.snapshot(),
        "tags": [device.tag(ppn) for ppn in range(ftl.spec.total_pages)],
    }


class TestBackends:
    def test_tiny_dftl_holds_the_dense_map(self):
        ftl = DFTL(NandDevice(tiny_spec()), mapping=STARVED)
        assert type(ftl.map) is PageMapTable
        assert isinstance(LazyDFTL(NandDevice(tiny_spec())).map, LazyPageMapTable)

    @given(ops=LONG_OPS)
    @settings(**_SETTINGS)
    def test_dense_and_lazy_run_in_lockstep(self, ops):
        dense = DFTL(NandDevice(SMALL), mapping=STARVED)
        lazy = LazyDFTL(NandDevice(SMALL), mapping=STARVED)
        for op, lpn in ops:
            assert _apply(dense, op, lpn) == _apply(lazy, op, lpn), (op, lpn)
            assert _state(dense) == _state(lazy), (op, lpn)
        dense.flush_mapping()
        lazy.flush_mapping()
        assert _state(dense) == _state(lazy)


def _check_resolution(dftl_cls: type[DFTL], ops) -> None:
    ftl = dftl_cls(NandDevice(SMALL), mapping=STARVED)
    resolved = _drive(ftl, ops)
    ftl.check_invariants()
    # the headline property: demand-paged resolution == shadow map,
    # for all LPNs (cached, persisted-only, and never-written)
    ftl.check_mapping_persistence()
    # counter consistency: every op resolved exactly once
    extra = ftl.stats.extra
    assert extra.get("cmt.hits", 0) + extra.get("cmt.misses", 0) == resolved
    cmt = ftl.cmt
    assert cmt.insertions - cmt.evictions == len(cmt.items())
    assert len(cmt.items()) <= ftl.cache_entries


def _check_flush(dftl_cls: type[DFTL], ops) -> None:
    ftl = dftl_cls(NandDevice(SMALL), mapping=STARVED)
    _drive(ftl, ops)
    ftl.flush_mapping()
    assert ftl.cmt.dirty_count == 0
    # after a flush the flash structures alone carry the map: every
    # mapped LPN must be recoverable without consulting the CMT
    for lpn in range(ftl.num_lpns):
        tvpn = lpn // ftl._epp
        tp_ppn = ftl.gtd.ppn_of(tvpn)
        persisted = (
            UNMAPPED
            if tp_ppn == UNMAPPED
            else ftl._tp_content[tvpn].get(lpn, UNMAPPED)
        )
        assert persisted == ftl.map.ppn_of(lpn), f"LPN {lpn} lost at power-down"
    ftl.check_invariants()


class TestDemandPagedResolution:
    """The properties on the dense ground-truth map."""

    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_every_lpn_resolves_to_ground_truth(self, ops):
        _check_resolution(DFTL, ops)

    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_flush_leaves_flash_self_sufficient(self, ops):
        _check_flush(DFTL, ops)


class TestDemandPagedResolutionLazy:
    """The same properties on the sparse ground-truth map."""

    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_every_lpn_resolves_to_ground_truth(self, ops):
        _check_resolution(LazyDFTL, ops)

    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_flush_leaves_flash_self_sufficient(self, ops):
        _check_flush(LazyDFTL, ops)


class TestLazyMapShadow:
    """LazyPageMapTable behaves exactly like the dense table."""

    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),  # True = remap, False = unmap
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(**_SETTINGS)
    def test_random_remap_unmap_equivalence(self, ops):
        dense = PageMapTable(32, 64)
        lazy = LazyPageMapTable(32, 64)
        for is_remap, lpn, ppn in ops:
            if is_remap:
                if dense.is_valid_ppn(ppn):
                    continue  # both tables would reject the collision
                assert dense.remap(lpn, ppn) == lazy.remap(lpn, ppn)
            else:
                assert dense.unmap(lpn) == lazy.unmap(lpn)
        assert dense.mapped_count == lazy.mapped_count
        for lpn in range(32):
            assert dense.ppn_of(lpn) == lazy.ppn_of(lpn)
        for ppn in range(64):
            assert dense.lpn_of(ppn) == lazy.lpn_of(ppn)
        span = range(0, 64)
        assert dense.valid_ppns_in(span) == sorted(lazy.valid_ppns_in(span))
        dense.check_consistency()
        lazy.check_consistency()
