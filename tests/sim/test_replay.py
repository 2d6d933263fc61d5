"""Tests for the FTL registry and replaying a prebuilt trace."""

import numpy as np
import pytest

from repro.core.config import PPBConfig
from repro.errors import ConfigError
from repro.ftl.base import BaseFTL
from repro.ftl.mapping import UNMAPPED
from repro.ftl.transmap import MappingConfig
from repro.nand.spec import tiny_spec
from repro.nand.device import NandDevice
from repro.reliability.manager import ReliabilityManager
from repro.reliability.refresh import RefreshPolicy
from repro.scenario.run import execute_scenario
from repro.scenario.spec import ScenarioSpec
from repro.sim.replay import FTL_CLASSES, make_ftl
from repro.traces.workloads import UniformWorkload


@pytest.fixture(scope="module")
def small_trace():
    return UniformWorkload(
        num_requests=3000, footprint_bytes=64 * 2**20, request_bytes=2048
    ).generate()


class TestMakeFtl:
    def test_all_kinds(self):
        device = NandDevice(tiny_spec())
        assert make_ftl("conventional", device).name == "conventional"
        device = NandDevice(tiny_spec())
        assert make_ftl("fast", device).name == "fast"
        device = NandDevice(tiny_spec())
        assert make_ftl("ppb", device).name == "ppb"

    def test_ppb_config_passed_through(self):
        device = NandDevice(tiny_spec())
        ftl = make_ftl("ppb", device, PPBConfig(vb_split=4))
        assert ftl.config.vb_split == 4

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_ftl("bogus", NandDevice(tiny_spec()))


class TestRegistryContract:
    """Every registered FTL is a BaseFTL, is built from any scenario's
    sections, and returns the last-written version of each page."""

    @pytest.mark.parametrize("kind", sorted(FTL_CLASSES))
    def test_registered_design_keeps_its_data(self, kind):
        assert issubclass(FTL_CLASSES[kind], BaseFTL)
        device = NandDevice(tiny_spec())
        manager = ReliabilityManager(device)
        ftl = make_ftl(kind, device, PPBConfig(), manager, RefreshPolicy(manager), MappingConfig())
        assert type(ftl) is FTL_CLASSES[kind]
        rng = np.random.default_rng(11)
        oracle: dict[int, int] = {}
        for _ in range(4000):
            lpn = int(rng.integers(0, ftl.num_lpns))
            r = rng.random()
            if r < 0.55:
                ftl.host_write(lpn)
                oracle[lpn] = ftl._op_sequence
            elif r < 0.65:
                ftl.trim(lpn)
                oracle.pop(lpn, None)
            else:
                ftl.host_read(lpn)
        ftl.check_invariants()
        for lpn in range(ftl.num_lpns):
            ppn = ftl.map.ppn_of(lpn)
            if lpn in oracle:
                assert device.tag(ppn) == (lpn, oracle[lpn])
            else:
                assert ppn == UNMAPPED


def _replay(trace, ftl, warm_fill_fraction=0.9):
    """Replay a prebuilt trace on a fresh ``tiny_spec`` device."""
    spec = ScenarioSpec(
        device=tiny_spec(), ftl=ftl, warm_fill_fraction=warm_fill_fraction
    )
    return execute_scenario(spec, trace)


class TestReplayTrace:
    """A prebuilt trace replays end to end through ``execute_scenario``."""

    @pytest.mark.parametrize("kind", ["conventional", "fast", "ppb", "dftl"])
    def test_end_to_end(self, small_trace, kind):
        result = _replay(small_trace, kind)
        assert result.num_requests == len(small_trace)
        assert result.read_us >= 0
        assert result.write_us > 0

    def test_warm_fill_ages_device(self, small_trace):
        aged = _replay(small_trace, "conventional", warm_fill_fraction=0.9)
        fresh = _replay(small_trace, "conventional", warm_fill_fraction=0.0)
        # the aged device has to garbage collect more
        assert aged.erase_count >= fresh.erase_count

    def test_deterministic(self, small_trace):
        a = _replay(small_trace, "ppb")
        b = _replay(small_trace, "ppb")
        assert a.read_us == b.read_us
        assert a.write_us == b.write_us
        assert a.erase_count == b.erase_count
