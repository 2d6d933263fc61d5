"""Tests for the host-facing FTL accounting."""

import pytest

from repro.ftl.stats import FtlStats


class TestLatencyPools:
    def test_gc_us_sums_components(self):
        stats = FtlStats(gc_read_us=10.0, gc_write_us=20.0, erase_us=5.0)
        assert stats.gc_us == 35.0

    def test_means(self):
        stats = FtlStats(
            host_read_pages=4, host_read_us=40.0,
            host_write_pages=2, host_write_us=30.0,
        )
        assert stats.mean_read_us == 10.0
        assert stats.mean_write_us == 15.0

    def test_means_zero_safe(self):
        stats = FtlStats()
        assert stats.mean_read_us == 0.0
        assert stats.mean_write_us == 0.0


class TestWriteAmplification:
    def test_idle_is_one(self):
        assert FtlStats().write_amplification == 1.0

    def test_copies_amplify(self):
        stats = FtlStats(host_write_pages=100, gc_copied_pages=50)
        assert stats.write_amplification == pytest.approx(1.5)


class TestExtras:
    def test_bump_accumulates(self):
        stats = FtlStats()
        stats.bump("x")
        stats.bump("x", 2.5)
        assert stats.extra["x"] == 3.5

    def test_snapshot_includes_extras(self):
        stats = FtlStats()
        stats.bump("ppb.migrations", 7)
        snap = stats.snapshot()
        assert snap["extra.ppb.migrations"] == 7
        assert "write_amplification" in snap
