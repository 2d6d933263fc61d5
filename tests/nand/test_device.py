"""Tests for the device's flat address space, state and op log."""

import pickle

import pytest

from repro.errors import ProgramOrderError, ReadFreePageError
from repro.ftl.conventional import ConventionalFTL
from repro.nand.device import NandDevice
from repro.nand.spec import tiny_spec

from tests.nand.addresses import ppn_at


class TestFlatAddressing:
    def test_program_read_first_page(self, device):
        device.program_ppn(0, lpn=5, version=1)
        assert device.read_ppn(0) > 0
        assert device.tag(0) == (5, 1)

    def test_cross_chip_routing(self):
        device = NandDevice(tiny_spec(num_chips=2))
        second_chip_ppn = ppn_at(device.geometry, 1, 0, 0)
        device.begin_oplog()
        device.program_ppn(second_chip_ppn)
        ((chip, *_),) = device.end_oplog()
        assert chip == 1
        assert device.write_ptr[device.spec.blocks_per_chip] == 1

    def test_block_fill_and_full(self, device):
        pbn = 3
        for ppn in device.geometry.ppn_range_of_pbn(pbn):
            device.program_ppn(ppn)
        assert device.write_ptr[pbn] == device.spec.pages_per_block
        with pytest.raises(ProgramOrderError):
            device.program_ppn(device.geometry.ppn_range_of_pbn(pbn)[-1])

    def test_erase_by_pbn(self, device):
        device.program_ppn(0)
        device.erase_pbn(0)
        with pytest.raises(ReadFreePageError):
            device.read_ppn(0)
        assert device.erase_count(0) == 1

    def test_order_enforced_through_facade(self, device):
        device.program_ppn(1 * device.spec.pages_per_block + 0)
        with pytest.raises(ProgramOrderError):
            device.program_ppn(1 * device.spec.pages_per_block + 0)


class TestWritePointerArray:
    """One flat-PBN write-pointer list, shared by the device and the FTL."""

    def test_chips_write_their_slice(self):
        device = NandDevice(tiny_spec(num_chips=2))
        pbn = device.spec.blocks_per_chip + 1  # chip 1, block 1
        device.program_ppn(ppn_at(device.geometry, 1, 1, 2))
        assert device.write_ptr[pbn] == 3
        assert device.write_ptr.count(0) == device.spec.total_blocks - 1

    def test_pickle_round_trip_keeps_one_shared_list(self):
        """Results cross the worker pool pickled; the clone's FTL must
        still share the clone device's one list, and blank blocks their
        one bitmap."""
        ftl = ConventionalFTL(NandDevice(tiny_spec(num_chips=2)))
        clone = pickle.loads(pickle.dumps(ftl))
        device = clone.device
        assert clone._write_ptr is device.write_ptr
        assert all(bitmap is device._blank for bitmap in device.programmed)
        pbn = device.spec.blocks_per_chip + 1
        device.program_ppn(ppn_at(device.geometry, 1, 1, 0))
        assert device.write_ptr[pbn] == 1
        assert clone._write_ptr[pbn] == 1
        assert ftl.device.write_ptr[pbn] == 0


class TestTagContract:
    def test_cross_chip_copy_carries_its_tag(self):
        device = NandDevice(tiny_spec(num_chips=2))
        device.program_ppn(0, lpn=8, version=13)
        device.program_ppn(1)
        dst = ppn_at(device.geometry, 1, 0, 0)
        device.copy_page(0, dst)
        device.copy_page(1, dst + 1)
        assert device.tag(dst) == (8, 13)
        assert device.tag(dst + 1) is None

    def test_same_chip_copy_carries_its_tag(self, device):
        device.program_ppn(0, lpn=8, version=13)
        dst = ppn_at(device.geometry, 0, 1, 0)
        device.copy_page(0, dst)
        assert device.tag(dst) == (8, 13)

    def test_multi_program_stores_each_planes_tag(self):
        device = NandDevice(tiny_spec(planes_per_chip=2))
        ppns = [ppn_at(device.geometry, 0, block, 0) for block in (0, 1)]
        device.program_multi_ppn(ppns, tags=[(4, 10), (6, 11)])
        assert [device.tag(ppn) for ppn in ppns] == [(4, 10), (6, 11)]

    def test_multi_erase_clears_every_siblings_tags(self):
        device = NandDevice(tiny_spec(planes_per_chip=2))
        ppns = [ppn_at(device.geometry, 0, block, 0) for block in (0, 1)]
        device.program_multi_ppn(ppns, tags=[(4, 10), (6, 11)])
        device.erase_multi_pbn([0, 1])
        device.program_multi_ppn(ppns)
        assert [device.tag(ppn) for ppn in ppns] == [None, None]


class TestAggregates:
    def test_total_erases(self, device):
        device.erase_pbn(0)
        device.erase_pbn(1)
        device.erase_pbn(0)
        assert sum(device.erase_counts) == 3

    def test_wear_spread(self, device):
        assert device.wear_spread() == 0
        device.erase_pbn(0)
        device.erase_pbn(0)
        device.erase_pbn(0)
        assert device.wear_spread() == 3

    def test_wear_spread_is_device_wide(self):
        """Every block of chip 0 erased once, chip 1 untouched: each
        chip alone is level, the device is not."""
        device = NandDevice(tiny_spec(num_chips=2))
        for pbn in range(device.spec.blocks_per_chip):
            device.erase_pbn(pbn)
        assert device.wear_spread() == 1


class TestOpLog:
    """The timed-mode service report: every command chip-attributed."""

    def test_commands_logged_with_array_transfer_split(self):
        spec = tiny_spec(num_chips=2)
        device = NandDevice(spec)
        page_transfer = device.latency.transfer_us()
        log = device.begin_oplog()
        device.program_ppn(0, lpn=5, version=1)
        device.read_ppn(0)
        ops = device.end_oplog()
        assert device.oplog is None  # disarmed
        assert ops is log and len(ops) == 2
        (p_chip, p_plane, p_array, p_transfer), (r_chip, r_plane, r_array, r_transfer) = ops
        assert p_chip == r_chip == 0
        assert p_plane == r_plane == 0
        assert p_array == device.latency.program_array_us[0]
        assert r_array == device.latency.read_array_us[0]
        assert p_transfer == r_transfer == page_transfer

    def test_internal_moves_have_no_bus_share(self):
        spec = tiny_spec(num_chips=2)
        device = NandDevice(spec)
        device.program_ppn(0, lpn=2, version=3)
        cross_chip_dst = ppn_at(device.geometry, 1, 0, 0)
        device.begin_oplog()
        device.copy_page(0, cross_chip_dst)
        erase_pbn = 0
        device.erase_pbn(erase_pbn)
        ops = device.end_oplog()
        assert [op[0] for op in ops] == [0, 1, 0]  # src, dst, erased chip
        assert all(op[3] == 0.0 for op in ops)  # copyback/erase skip the bus
        assert ops[2][2] == spec.erase_us

    def test_retry_reports_its_bus_share(self):
        spec = tiny_spec()
        device = NandDevice(spec)
        transfer = device.latency.transfer_us()
        array = device.latency.read_array_us[0]
        steps = 3
        retry_us = steps * (array + transfer)
        device.begin_oplog()
        device.note_retry(0, retry_us)
        ((chip, plane, array_us, transfer_us),) = device.end_oplog()
        assert chip == 0
        assert plane == 0
        # The split recovers steps * array / steps * transfer exactly
        # (up to float association).
        assert transfer_us == pytest.approx(steps * transfer, rel=1e-12)
        assert array_us == pytest.approx(steps * array, rel=1e-12)

    def test_unarmed_log_costs_nothing_and_records_nothing(self):
        device = NandDevice(tiny_spec())
        device.program_ppn(0)
        device.note_retry(0, 100.0)
        assert device.oplog is None
        assert device.end_oplog() == []
