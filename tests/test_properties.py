"""Property-based tests: every FTL against a dict-model oracle.

Hypothesis drives random operation sequences (writes of varying size,
reads, trims) against each FTL on a miniature device and checks, after
every sequence:

* read-your-writes: the mapped physical page carries the tag of the
  *latest* write of that LPN (GC never serves stale data);
* mapping bijectivity and valid-count conservation;
* the device never runs out of space under bounded logical load.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import PPBConfig
from repro.core.ppb_ftl import PPBFTL
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.fast import FastFTL
from repro.ftl.mapping import UNMAPPED
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec

#: (op, lpn, size_class) — size_class 0 = small (hot), 1 = bulk (cold).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["w", "r", "t"]),
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=300,
)

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _drive(ftl, ops) -> dict[int, int]:
    """Apply an op sequence; returns the oracle {lpn: latest_seq}."""
    spec = ftl.spec
    oracle: dict[int, int] = {}
    for op, lpn, size_class in ops:
        lpn = lpn % ftl.num_lpns
        if op == "w":
            nbytes = 512 if size_class == 0 else spec.page_size * 4
            ftl.host_write(lpn, nbytes=nbytes)
            oracle[lpn] = ftl._op_sequence
        elif op == "r":
            ftl.host_read(lpn)
        else:
            ftl.trim(lpn)
            oracle.pop(lpn, None)
    return oracle


def _verify(ftl, oracle: dict[int, int]) -> None:
    ftl.check_invariants()
    for lpn, seq in oracle.items():
        ppn = ftl.map.ppn_of(lpn)
        assert ppn >= 0, f"lpn {lpn} lost its mapping"
        assert ftl.device.tag(ppn) == (lpn, seq), f"stale data for lpn {lpn}"
    # LPNs never written (or trimmed) must be unmapped.
    for lpn in range(ftl.num_lpns):
        if lpn not in oracle:
            assert ftl.map.ppn_of(lpn) == -1 or lpn in oracle


class TestConventionalProperties:
    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_oracle(self, ops):
        ftl = ConventionalFTL(NandDevice(tiny_spec()))
        oracle = _drive(ftl, ops)
        _verify(ftl, oracle)


class TestFastProperties:
    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_oracle(self, ops):
        ftl = FastFTL(NandDevice(tiny_spec()))
        oracle = _drive(ftl, ops)
        _verify(ftl, oracle)


class TestPPBProperties:
    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_oracle(self, ops):
        ftl = PPBFTL(NandDevice(tiny_spec()))
        oracle = _drive(ftl, ops)
        _verify(ftl, oracle)

    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_oracle_strict_discipline(self, ops):
        config = PPBConfig(allocation_discipline="strict")
        ftl = PPBFTL(NandDevice(tiny_spec()), config=config)
        oracle = _drive(ftl, ops)
        _verify(ftl, oracle)

    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_area_separation_always_holds(self, ops):
        ftl = PPBFTL(NandDevice(tiny_spec()))
        _drive(ftl, ops)
        for pbn in range(ftl.spec.total_blocks):
            if ftl.vbmgr.is_carved(pbn):
                areas = {vb.area for vb in ftl.vbmgr.vbs_of(pbn)}
                assert len(areas) == 1

    @given(ops=OPS)
    @settings(**_SETTINGS)
    def test_vb_write_pointer_never_escapes(self, ops):
        """Programs stay inside ALLOCATED VBs, honoring the lifecycle."""
        ftl = PPBFTL(NandDevice(tiny_spec()))
        _drive(ftl, ops)
        from repro.core.virtual_block import VBState

        for pbn in range(ftl.spec.total_blocks):
            if not ftl.vbmgr.is_carved(pbn):
                continue
            next_page = ftl.device.write_ptr[pbn]
            vbs = ftl.vbmgr.vbs_of(pbn)
            for vb in vbs:
                if vb.state is VBState.FREE:
                    assert next_page <= vb.start_page
                if vb.state is VBState.USED:
                    assert next_page >= vb.end_page


class TestCrossFtlEquivalence:
    """All FTLs must externally behave identically (data-wise)."""

    @given(ops=OPS)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_visible_state(self, ops):
        ftls = [
            ConventionalFTL(NandDevice(tiny_spec())),
            FastFTL(NandDevice(tiny_spec())),
            PPBFTL(NandDevice(tiny_spec())),
        ]
        oracles = [_drive(ftl, ops) for ftl in ftls]
        assert oracles[0] == oracles[1] == oracles[2]
        mapped = [
            {lpn for lpn in range(ftl.num_lpns) if ftl.map.ppn_of(lpn) != UNMAPPED}
            for ftl in ftls
        ]
        assert mapped[0] == mapped[1] == mapped[2]
