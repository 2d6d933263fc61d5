"""Plane geometry and multi-plane command fusion.

The plane model is pure convention plus two fused commands:

* in-chip block ``b`` sits on plane ``b % planes_per_chip`` (the
  interleaved numbering real parts use), so consecutive blocks are
  sibling-plane blocks;
* a fused program shares one array time across the addressed planes
  while the page-register loads serialize;
* a fused erase runs every plane's erase in parallel — one latency,
  every block's wear counted.
"""

import pytest

from repro.errors import AddressError, ConfigError, ProgramOrderError, ReadFreePageError
from repro.nand.device import NandDevice
from repro.ftl.blockinfo import plane_groups
from repro.nand.spec import NandSpec, tiny_spec

from tests.nand.addresses import ppn_at


class TestSpecValidation:
    @pytest.mark.parametrize("planes", [0, -1])
    def test_rejects_non_positive_planes(self, planes):
        with pytest.raises(ConfigError, match="planes_per_chip"):
            NandSpec(planes_per_chip=planes)

    def test_rejects_planes_not_dividing_blocks(self):
        with pytest.raises(ConfigError, match="planes_per_chip"):
            NandSpec(blocks_per_chip=66, planes_per_chip=4)

    def test_blocks_per_plane(self):
        spec = tiny_spec(planes_per_chip=4)
        assert spec.blocks_per_plane == spec.blocks_per_chip // 4

    def test_describe_mentions_planes_only_when_parallel(self):
        assert "plane" not in tiny_spec().describe().lower()
        assert "plane" in tiny_spec(planes_per_chip=2).describe().lower()


def _logged_planes(spec: NandSpec, page: int = 0) -> "list[tuple[int, int]]":
    """``(chip, plane)`` the op log bills for a program of ``page`` of
    every block, in PBN order."""
    device = NandDevice(spec)
    geometry = device.geometry
    log = device.begin_oplog()
    for pbn in range(geometry.total_blocks):
        device.program_ppn(geometry.first_ppn_of_pbn(pbn) + page)
    return [(chip, plane) for chip, plane, _, _ in log]


class TestPlaneGeometry:
    SPEC = tiny_spec(num_chips=2, planes_per_chip=2)

    def test_interleaved_block_numbering(self):
        # In-chip block b sits on plane b % planes, on every chip, in
        # the op log and in the FTLs' free-pool groups alike.
        bpc = self.SPEC.blocks_per_chip
        expected = [(pbn // bpc, pbn % bpc % 2) for pbn in range(2 * bpc)]
        assert _logged_planes(self.SPEC) == expected
        assert expected[:4] == [(0, 0), (0, 1), (0, 0), (0, 1)]
        groups = plane_groups(self.SPEC.total_blocks, bpc, 2)
        assert [divmod(group, 2) for group in groups] == expected

    def test_plane_of_ppn_matches_its_block(self):
        last = self.SPEC.pages_per_block - 1
        assert _logged_planes(self.SPEC, page=last) == _logged_planes(self.SPEC)

    def test_single_plane_devices_are_all_plane_zero(self):
        spec = tiny_spec(num_chips=2)
        assert {plane for _, plane in _logged_planes(spec)} == {0}
        assert plane_groups(spec.total_blocks, spec.blocks_per_chip, 1) is None


def _ppns(device: NandDevice, blocks, page: int) -> "list[int]":
    return [ppn_at(device.geometry, 0, block, page) for block in blocks]


class TestChipMultiProgram:
    @pytest.fixture
    def chip(self) -> NandDevice:
        return NandDevice(tiny_spec(planes_per_chip=2))

    def test_shares_one_array_time(self, chip):
        # Without transfers, the fused program costs exactly one plane's
        # array time — that is the whole point of the command.
        chip.begin_oplog()
        chip.program_multi_ppn(_ppns(chip, [0, 1], 0))
        ops = chip.end_oplog()
        assert [op[2] for op in ops] == [chip.latency.program_array_us[0]] * 2

    def test_transfers_serialize(self, chip):
        single = NandDevice(tiny_spec(planes_per_chip=2))
        total = single.program_ppn(0)  # array + one transfer
        array = chip.latency.program_array_us[0]
        fused = chip.program_multi_ppn(_ppns(chip, [0, 1], 0))
        assert fused == pytest.approx(array + 2 * (total - array))

    def test_programs_every_plane(self, chip):
        ppns = _ppns(chip, [0, 1], 0)
        chip.program_multi_ppn(ppns, tags=[(1, 2), (3, 4)])
        assert chip.write_ptr[0] == chip.write_ptr[1] == 1
        assert [chip.tag(ppn) for ppn in ppns] == [(1, 2), (3, 4)]

    def test_same_plane_blocks_rejected(self, chip):
        # Blocks 0 and 2 both sit on plane 0 of a 2-plane chip.
        with pytest.raises(AddressError, match="distinct planes"):
            chip.program_multi_ppn(_ppns(chip, [0, 2], 0))

    def test_zero_blocks_rejected(self, chip):
        with pytest.raises(AddressError):
            chip.program_multi_ppn([])

    def test_program_order_enforced_per_block(self, chip):
        chip.program_ppn(_ppns(chip, [0], 0)[0])
        chip.program_ppn(_ppns(chip, [0], 1)[0])
        with pytest.raises(ProgramOrderError):
            chip.program_multi_ppn(_ppns(chip, [0, 1], 0))
        assert chip.write_ptr[1] == 0  # nothing programmed on a refusal


class TestChipMultiErase:
    @pytest.fixture
    def chip(self) -> NandDevice:
        return NandDevice(tiny_spec(planes_per_chip=2))

    def test_one_latency_every_block_reset(self, chip):
        chip.program_ppn(_ppns(chip, [0], 0)[0])
        chip.program_ppn(_ppns(chip, [1], 0)[0])
        alone = NandDevice(tiny_spec(planes_per_chip=2)).erase_pbn(0)
        fused = chip.erase_multi_pbn([0, 1])
        assert fused == alone
        assert chip.write_ptr[0] == chip.write_ptr[1] == 0
        for ppn in _ppns(chip, [0, 1], 0):
            with pytest.raises(ReadFreePageError):
                chip.read_ppn(ppn)
        assert chip.erase_count(0) == 1 and chip.erase_count(1) == 1
        assert sum(chip.erase_counts) == 2

    def test_same_plane_blocks_rejected(self, chip):
        with pytest.raises(AddressError, match="distinct planes"):
            chip.erase_multi_pbn([1, 3])


class TestDeviceMultiPlaneOps:
    @pytest.fixture
    def device(self) -> NandDevice:
        return NandDevice(tiny_spec(num_chips=2, planes_per_chip=2))

    def test_program_logs_one_segment_per_plane(self, device):
        device.begin_oplog()
        latency = device.program_multi_ppn(
            [ppn_at(device.geometry, 0, 0, 0), ppn_at(device.geometry, 0, 1, 0)]
        )
        ops = device.end_oplog()
        assert latency > 0
        assert len(ops) == 2
        (c0, p0, a0, t0), (c1, p1, a1, t1) = ops
        assert (c0, c1) == (0, 0)
        assert {p0, p1} == {0, 1}  # one segment per sibling plane
        assert a0 == a1 > 0  # the shared array time
        assert t0 == t1 > 0  # each plane pays its own transfer

    def test_erase_logs_shared_array_no_transfer(self, device):
        device.program_multi_ppn(
            [ppn_at(device.geometry, 0, 0, 0), ppn_at(device.geometry, 0, 1, 0)]
        )
        device.begin_oplog()
        latency = device.erase_multi_pbn([0, 1])
        ops = device.end_oplog()
        assert [op for op in ops] == [(0, 0, latency, 0.0), (0, 1, latency, 0.0)]

    def test_differing_page_indices_rejected(self, device):
        device.program_ppn(ppn_at(device.geometry, 0, 1, 0))
        with pytest.raises(AddressError, match="one page index"):
            device.program_multi_ppn(
                [
                    ppn_at(device.geometry, 0, 0, 0),
                    ppn_at(device.geometry, 0, 1, 1),
                ]
            )

    def test_cross_chip_siblings_rejected(self, device):
        bpc = device.spec.blocks_per_chip
        with pytest.raises(AddressError, match="one chip"):
            device.erase_multi_pbn([0, bpc + 1])
