"""Tests for the device specification (Table 1 parameters)."""

import pytest

from repro.errors import ConfigError
from repro.nand.spec import NandSpec, sim_spec, table1_spec, tiny_spec


class TestTable1Spec:
    def test_capacity_is_64_gib(self):
        spec = table1_spec()
        assert abs(spec.physical_bytes / 2**30 - 64.0) < 0.5

    def test_page_size_16k(self):
        assert table1_spec().page_size == 16 * 1024

    def test_pages_per_block_384(self):
        assert table1_spec().pages_per_block == 384

    def test_latencies_match_table1(self):
        spec = table1_spec()
        assert spec.read_us == 49.0
        assert spec.program_us == 600.0
        assert spec.erase_us == 4000.0

    def test_override(self):
        spec = table1_spec(speed_ratio=5.0)
        assert spec.speed_ratio == 5.0
        assert spec.pages_per_block == 384


class TestDerivedGeometry:
    def test_total_blocks(self):
        spec = tiny_spec()
        assert spec.total_blocks == 64

    def test_total_pages(self):
        spec = tiny_spec()
        assert spec.total_pages == 64 * 16

    def test_logical_pages_subtract_op(self):
        spec = tiny_spec()
        assert spec.logical_pages == int(64 * 16 * (1 - 0.125))

    def test_logical_less_than_physical(self):
        for factory in (tiny_spec, sim_spec, table1_spec):
            spec = factory()
            assert spec.logical_pages < spec.total_pages

    def test_multichip_scales_blocks(self):
        spec = tiny_spec(num_chips=4)
        assert spec.total_blocks == 4 * 64


class TestLayerMapping:
    def test_first_page_top_layer(self):
        spec = tiny_spec()
        assert spec.layer_of_page(0) == 0

    def test_last_page_bottom_layer(self):
        spec = tiny_spec()
        assert spec.layer_of_page(spec.pages_per_block - 1) == spec.num_layers - 1

    def test_monotone_nondecreasing(self):
        spec = table1_spec()
        layers = [spec.layer_of_page(p) for p in range(spec.pages_per_block)]
        assert layers == sorted(layers)

    def test_all_layers_used(self):
        spec = table1_spec()
        layers = {spec.layer_of_page(p) for p in range(spec.pages_per_block)}
        assert layers == set(range(spec.num_layers))

    def test_out_of_range_page_rejected(self):
        spec = tiny_spec()
        with pytest.raises(ConfigError):
            spec.layer_of_page(spec.pages_per_block)


class TestTransferTime:
    def test_one_page_transfer(self):
        spec = table1_spec()
        expected_us = 16 * 1024 / (533 * 1024 * 1024) * 1e6
        assert abs(spec.transfer_us() - expected_us) < 1e-9

    def test_transfer_scales_linearly(self):
        spec = table1_spec()
        assert abs(spec.transfer_us(2 * spec.page_size) - 2 * spec.transfer_us()) < 1e-9


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page_size": 0},
            {"page_size": 1000},  # not a multiple of 512
            {"pages_per_block": 1},
            {"blocks_per_chip": 1},
            {"num_chips": 0},
            {"num_channels": 0},
            {"num_chips": 4, "num_channels": 3},  # channels must divide chips
            {"num_channels": 2},  # 2 channels cannot serve 1 chip
            {"num_layers": 0},
            {"speed_ratio": 0.5},
            {"latency_profile": "bogus"},
            {"op_ratio": -0.1},
            {"op_ratio": 0.6},
            {"read_us": 0},
            {"program_us": -1},
            {"erase_us": 0},
            {"transfer_mb_per_s": 0},
            {"program_asymmetry": 1.5},
            {"program_asymmetry": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            NandSpec(**kwargs)

    def test_num_layers_cannot_exceed_pages(self):
        with pytest.raises(ConfigError):
            NandSpec(pages_per_block=8, num_layers=16)

    def test_describe_mentions_table1_items(self):
        text = table1_spec().describe()
        assert "16 KiB" in text
        assert "384" in text
        assert "49 us" in text


class TestChannelTopology:
    def test_single_channel_default(self):
        spec = NandSpec()
        assert spec.num_channels == 1

    def test_describe_mentions_topology_only_when_parallel(self):
        assert "Chips / channels" not in NandSpec().describe()
        assert "4 / 2" in NandSpec(num_chips=4, num_channels=2).describe()
