"""FastFTL under the reliability stack (hosted through BaseFTL).

Two anchor properties, mirroring the BaseFTL ones:

* detached equivalence — a FastFTL with the *null* reliability config
  attached replays byte-for-byte like one with no stack at all;
* refresh-through-merges never loses data — the oracle survives random
  op streams that drive switch, partial and full merges while the
  refresh engine churns aged blocks underneath.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ftl.fast import FastFTL
from repro.ftl.base import BaseFTL
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec
from repro.reliability.manager import ReliabilityConfig, ReliabilityManager
from repro.reliability.refresh import RefreshPolicy

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drive(ftl, seed: int, ops: int = 6_000) -> None:
    """Mixed sequential/random churn (drives all three merge kinds)."""
    spec = ftl.spec
    rng = np.random.default_rng(seed)
    for _ in range(ops):
        r = rng.random()
        if r < 0.15:
            lbn = int(rng.integers(0, ftl.num_lbns))
            run = int(rng.integers(1, spec.pages_per_block + 1))
            for off in range(run):
                lpn = lbn * spec.pages_per_block + off
                if lpn >= ftl.num_lpns:
                    break
                ftl.host_write(lpn)
        elif r < 0.60:
            ftl.host_write(int(rng.integers(0, ftl.num_lpns)))
        else:
            ftl.host_read(int(rng.integers(0, ftl.num_lpns)))


class TestProtocol:
    def test_fast_satisfies_reliable_ftl(self):
        ftl = FastFTL(NandDevice(tiny_spec()))
        assert isinstance(ftl, BaseFTL)
        assert ftl.reliability is None
        assert ftl.refresh is None


class TestNullConfigEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_null_stack_is_byte_identical(self, seed):
        outcomes = []
        for attach in (False, True):
            device = NandDevice(tiny_spec())
            if attach:
                manager = ReliabilityManager(device, ReliabilityConfig.null())
                ftl = FastFTL(
                    device, reliability=manager, refresh=RefreshPolicy(manager)
                )
            else:
                ftl = FastFTL(device)
            drive(ftl, seed)
            ftl.check_invariants()
            outcomes.append(
                (
                    ftl.stats.host_read_us,
                    ftl.stats.host_write_us,
                    ftl.stats.erase_count,
                    ftl.stats.gc_copied_pages,
                    dict(ftl.stats.extra),
                    [ftl.map.ppn_of(lpn) for lpn in range(ftl.num_lpns)],
                )
            )
        assert outcomes[0] == outcomes[1]


#: (op, lpn) random op streams over a small logical space.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["w", "r", "t", "s"]),
        st.integers(min_value=0, max_value=127),
    ),
    min_size=1,
    max_size=120,
)


class TestRefreshNeverLosesData:
    @given(ops=OPS, age_days=st.integers(min_value=1, max_value=365))
    @settings(**_SETTINGS)
    def test_oracle_survives_merge_refresh_churn(self, ops, age_days):
        device = NandDevice(tiny_spec())
        manager = ReliabilityManager(
            device,
            ReliabilityConfig(refresh_check_interval=1, refresh_min_age_s=60.0),
        )
        ftl = FastFTL(device, reliability=manager, refresh=RefreshPolicy(manager))
        # Precondition: fill a third of the space, then shelf-age it so
        # refresh has real work to do during the op stream.
        for lpn in range(ftl.num_lpns // 3):
            ftl.host_write(lpn)
        manager.age_all(age_days * 86400.0)
        oracle = set(range(ftl.num_lpns // 3))
        pages = ftl.pages_per_block
        for op, lpn in ops:
            lpn = lpn % ftl.num_lpns
            if op == "w":
                ftl.host_write(lpn)
                oracle.add(lpn)
            elif op == "s":
                # short sequential run from a block boundary: exercises
                # the sequential log (switch/partial merges)
                base = (lpn // pages) * pages
                for off in range(min(4, pages)):
                    if base + off >= ftl.num_lpns:
                        break
                    ftl.host_write(base + off)
                    oracle.add(base + off)
            elif op == "r":
                ftl.host_read(lpn)
            else:
                ftl.trim(lpn)
                oracle.discard(lpn)
        ftl.check_invariants()
        for lpn in oracle:
            ppn = ftl.map.ppn_of(lpn)
            assert ppn >= 0, f"lpn {lpn} lost its mapping"
            tag = ftl.device.tag(ppn)
            assert tag is not None and tag[0] == lpn, (
                f"lpn {lpn} maps to a page tagged {tag}"
            )

    def test_refresh_actually_fires_under_fast(self):
        device = NandDevice(tiny_spec())
        manager = ReliabilityManager(
            device,
            ReliabilityConfig(refresh_check_interval=8, refresh_min_age_s=60.0),
        )
        ftl = FastFTL(device, reliability=manager, refresh=RefreshPolicy(manager))
        for lpn in range(ftl.num_lpns // 2):
            ftl.host_write(lpn)
        manager.age_all(90 * 86400.0)
        for lpn in range(0, ftl.num_lpns // 2, 3):
            ftl.host_read(lpn)
        assert manager.stats.refresh_runs > 0
        assert manager.stats.refresh_copied_pages > 0
        ftl.check_invariants()

    def test_refresh_resets_retention_clock(self):
        """A refreshed data block's content ends up on young blocks."""
        device = NandDevice(tiny_spec())
        manager = ReliabilityManager(
            device,
            ReliabilityConfig(refresh_check_interval=1, refresh_min_age_s=60.0),
        )
        ftl = FastFTL(device, reliability=manager, refresh=RefreshPolicy(manager))
        for lpn in range(ftl.num_lpns // 2):
            ftl.host_write(lpn)
        manager.age_all(365 * 86400.0)
        # Read until the refresh engine has cycled the aged blocks out.
        for _ in range(30):
            for lpn in range(0, ftl.num_lpns // 2, 7):
                ftl.host_read(lpn)
            if manager.stats.refresh_runs and all(
                manager.age_of(ftl.geometry.pbn_of_ppn(ftl.map.ppn_of(lpn)))
                < 365 * 86400.0
                for lpn in range(ftl.num_lpns // 2)
            ):
                break
        assert manager.stats.refresh_runs > 0
        aged_left = sum(
            1
            for lpn in range(ftl.num_lpns // 2)
            if manager.age_of(ftl.geometry.pbn_of_ppn(ftl.map.ppn_of(lpn)))
            >= 365 * 86400.0
        )
        assert aged_left < ftl.num_lpns // 2
