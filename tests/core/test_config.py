"""Tests for PPB configuration validation and capacity derivation."""

import pytest

from repro.core.config import PPBConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_paper_defaults(self):
        config = PPBConfig()
        assert config.vb_split == 2
        assert config.identifier == "size_check"
        assert config.allocation_discipline == "pipelined"

    def test_capacities_scale_with_device(self):
        config = PPBConfig()
        assert config.hot_list_capacity(100_000) == 3000
        assert config.iron_list_capacity(100_000) == 2000
        assert config.freq_table_capacity(100_000) == 25_000

    def test_minimum_capacities_on_tiny_devices(self):
        config = PPBConfig()
        assert config.hot_list_capacity(10) == config.min_list_entries
        assert config.iron_list_capacity(10) == config.min_list_entries
        assert config.freq_table_capacity(10) == config.min_list_entries


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vb_split": 1},
            {"identifier": "nope"},
            {"allocation_discipline": "nope"},
            {"max_pending_vbs": 0},
            {"hot_list_fraction": 0.0},
            {"iron_list_fraction": 1.5},
            {"freq_table_fraction": -0.1},
            {"cold_promote_reads": 0},
            {"freq_aging_period": -1},
            {"gc_migration_batch": -1},
            {"migrate_reads": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PPBConfig(**kwargs)

    def test_migrate_threshold_must_cover_promote(self):
        with pytest.raises(ConfigError):
            PPBConfig(cold_promote_reads=3, migrate_reads=2)

    def test_frozen(self):
        config = PPBConfig()
        with pytest.raises(Exception):
            config.vb_split = 4  # type: ignore[misc]
