"""Tests for the conventional page-mapping baseline, including the
dict-model oracle that proves GC never loses or stales data."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigError, MappingError
from repro.ftl.conventional import ConventionalFTL
from repro.ftl.mapping import UNMAPPED
from repro.nand.device import NandDevice
from repro.nand.spec import sim_spec, tiny_spec
from repro.scenario import ScenarioSpec


@pytest.fixture
def ftl() -> ConventionalFTL:
    return ConventionalFTL(NandDevice(tiny_spec()))


class TestBasicIO:
    def test_write_then_read(self, ftl):
        write_latency = ftl.host_write(0)
        read_latency = ftl.host_read(0)
        assert write_latency > 0
        assert read_latency > 0
        assert ftl.stats.host_write_pages == 1
        assert ftl.stats.host_read_pages == 1

    def test_unmapped_read_is_free(self, ftl):
        assert ftl.host_read(5) == 0.0
        assert ftl.stats.unmapped_reads == 1
        assert ftl.stats.host_read_pages == 0

    def test_overwrite_invalidates_old(self, ftl):
        ftl.host_write(0)
        first_ppn = ftl.map.ppn_of(0)
        ftl.host_write(0)
        assert ftl.map.ppn_of(0) != first_ppn
        assert not ftl.map.is_valid_ppn(first_ppn)

    def test_out_of_range_lpn(self, ftl):
        with pytest.raises(MappingError):
            ftl.host_write(ftl.num_lpns)

    def test_trim(self, ftl):
        ftl.host_write(0)
        ftl.trim(0)
        assert ftl.map.ppn_of(0) == UNMAPPED
        assert ftl.stats.trimmed_pages == 1
        assert ftl.host_read(0) == 0.0

    def test_sequential_fill_no_gc(self, ftl):
        for lpn in range(ftl.num_lpns // 2):
            ftl.host_write(lpn)
        assert ftl.stats.erase_count == 0
        ftl.check_invariants()


class TestGarbageCollection:
    def test_gc_triggers_under_churn(self, ftl):
        rng = np.random.default_rng(0)
        for _ in range(ftl.num_lpns * 4):
            ftl.host_write(int(rng.integers(0, ftl.num_lpns)))
        assert ftl.stats.erase_count > 0
        assert ftl.stats.gc_copied_pages >= 0
        ftl.check_invariants()

    def test_free_pool_never_exhausted(self, ftl):
        rng = np.random.default_rng(1)
        for _ in range(ftl.num_lpns * 6):
            ftl.host_write(int(rng.integers(0, ftl.num_lpns)))
            assert ftl.blocks.free_count > 0

    def test_write_amplification_reasonable(self, ftl):
        rng = np.random.default_rng(2)
        for _ in range(ftl.num_lpns * 4):
            ftl.host_write(int(rng.integers(0, ftl.num_lpns)))
        assert 1.0 <= ftl.stats.write_amplification < 30.0

    def test_gc_latency_returned_to_triggering_write(self, ftl):
        rng = np.random.default_rng(3)
        saw_stall = False
        for _ in range(ftl.num_lpns * 4):
            latency = ftl.host_write(int(rng.integers(0, ftl.num_lpns)))
            if latency > ftl.device.latency.program_total_us[0] * 2:
                saw_stall = True
        assert saw_stall


class TestOracle:
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_no_data_loss_under_churn(self, seed):
        ftl = ConventionalFTL(NandDevice(tiny_spec()))
        rng = np.random.default_rng(seed)
        oracle: dict[int, int] = {}
        for _ in range(15_000):
            lpn = int(rng.integers(0, ftl.num_lpns))
            if rng.random() < 0.6:
                ftl.host_write(lpn)
                oracle[lpn] = ftl._op_sequence
            elif lpn in oracle:
                ftl.host_read(lpn)
        ftl.check_invariants()
        for lpn, seq in oracle.items():
            ppn = ftl.map.ppn_of(lpn)
            assert ftl.device.tag(ppn) == (lpn, seq), f"stale data for lpn {lpn}"

    def test_trim_interleaved_with_churn(self):
        ftl = ConventionalFTL(NandDevice(tiny_spec()))
        rng = np.random.default_rng(11)
        oracle: dict[int, int] = {}
        for _ in range(10_000):
            lpn = int(rng.integers(0, ftl.num_lpns))
            r = rng.random()
            if r < 0.5:
                ftl.host_write(lpn)
                oracle[lpn] = ftl._op_sequence
            elif r < 0.6:
                ftl.trim(lpn)
                oracle.pop(lpn, None)
            elif lpn in oracle:
                ftl.host_read(lpn)
        ftl.check_invariants()
        for lpn, seq in oracle.items():
            assert ftl.device.tag(ftl.map.ppn_of(lpn)) == (lpn, seq)


class TestPlaneStriping:
    """Multi-plane devices stripe writes across per-plane append points."""

    def _ftl(self, planes=2):
        return ConventionalFTL(NandDevice(tiny_spec(num_chips=2, planes_per_chip=planes)))

    def test_consecutive_writes_spread_across_planes(self):
        ftl = self._ftl()
        groups = ftl.blocks.num_groups  # chips x planes = 4
        for lpn in range(groups):
            ftl.host_write(lpn)
        spec = ftl.spec
        planes = {
            ftl.map.ppn_of(lpn) // spec.pages_per_block
            % spec.blocks_per_chip
            % spec.planes_per_chip
            for lpn in range(groups)
        }
        chips = {
            ftl.device.geometry.chip_of_ppn(ftl.map.ppn_of(lpn))
            for lpn in range(groups)
        }
        # 4 consecutive writes on a 2-chip/2-plane device touch every
        # chip and every plane: that is what the closed-loop engine
        # overlaps.
        assert planes == {0, 1}
        assert chips == {0, 1}

    def test_fused_gc_erases_under_churn(self):
        ftl = self._ftl()
        # Sequential overwrite churn leaves fully-invalid FULL blocks on
        # every plane, so GC victims find sibling-plane riders.
        for round_ in range(4):
            for lpn in range(ftl.num_lpns):
                ftl.host_write(lpn)
        ftl.check_invariants()
        assert ftl.stats.extra.get("gc.fused_erases", 0) > 0
        # Fused accounting stays exact: the FTL's erase count equals the
        # device's per-block wear, summed.
        assert ftl.stats.erase_count == sum(ftl.device.erase_counts)

    def test_single_plane_has_no_fused_erases(self):
        ftl = self._ftl(planes=1)
        for round_ in range(4):
            for lpn in range(ftl.num_lpns):
                ftl.host_write(lpn)
        ftl.check_invariants()
        assert ftl.stats.erase_count > 0
        assert "gc.fused_erases" not in ftl.stats.extra

    def test_oracle_holds_on_multi_plane_device(self):
        ftl = self._ftl()
        rng = np.random.default_rng(7)
        oracle: dict[int, int] = {}
        for _ in range(ftl.num_lpns * 4):
            lpn = int(rng.integers(0, ftl.num_lpns))
            ftl.host_write(lpn)
            oracle[lpn] = ftl._op_sequence
        ftl.check_invariants()
        for lpn, seq in oracle.items():
            ppn = ftl.map.ppn_of(lpn)
            assert ftl.device.tag(ppn) == (lpn, seq), f"stale data for lpn {lpn}"


#: 16 host append points (4 chips x 4 planes) on a 64-block device leave
#: GC nothing to gain: at one free block every victim is fully valid, and
#: collecting one frees exactly the block its copies use.
STARVED_DEVICE = sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2, planes_per_chip=4)

#: The scenario the spec rejects, assembled by hand past that check, so
#: the GC loop itself must give up instead of spinning.
STARVED_GC_SCRIPT = """
import sys

from repro.errors import OutOfSpaceError
from repro.ftl.conventional import ConventionalFTL
from repro.nand.device import NandDevice
from repro.nand.spec import sim_spec
from repro.sim.ssd import SSD
from repro.traces.workloads import WebSqlWorkload

spec = sim_spec(blocks_per_chip=16, num_chips=4, num_channels=2, planes_per_chip=4)
ssd = SSD(ConventionalFTL(NandDevice(spec)))
footprint = int(spec.logical_bytes * 0.8)
trace = WebSqlWorkload(num_requests=200, footprint_bytes=footprint, seed=0).generate()
ssd.warm_fill(0.8)
try:
    ssd.replay(trace.fit_to(ssd.capacity_bytes), mode=sys.argv[1])
except OutOfSpaceError as exc:
    print(type(exc).__name__)
else:
    print("completed")
"""


class TestGcTermination:
    @pytest.mark.parametrize("mode", ["sequential", "timed"])
    def test_starved_spec_is_rejected_at_construction(self, mode):
        with pytest.raises(ConfigError, match=r"^device\.planes_per_chip: "):
            ScenarioSpec(
                workload="web-sql", num_requests=200, seed=0, mode=mode, device=STARVED_DEVICE
            )

    @pytest.mark.parametrize("mode", ["sequential", "timed"])
    def test_starved_gc_raises_instead_of_spinning(self, mode):
        """The collection loop must make net progress or give up."""
        paths = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run(
            [sys.executable, "-c", STARVED_GC_SCRIPT, mode],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "OutOfSpaceError"
