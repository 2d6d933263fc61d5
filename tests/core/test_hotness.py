"""Tests for the four-level hotness semantics (paper Section 3.2)."""

from repro.core.hotness import Area, HotnessLevel


class TestAreas:
    def test_hot_levels_live_in_hot_blocks(self):
        assert HotnessLevel.IRON_HOT.area is Area.HOT
        assert HotnessLevel.HOT.area is Area.HOT

    def test_cold_levels_live_in_cold_blocks(self):
        assert HotnessLevel.COLD.area is Area.COLD
        assert HotnessLevel.ICY_COLD.area is Area.COLD

    def test_no_level_mixes_areas(self):
        # every level maps to exactly one area -> GC never sees mixed blocks
        for level in HotnessLevel:
            assert level.area in (Area.HOT, Area.COLD)


class TestSpeedAssignment:
    def test_frequently_read_levels_want_fast_pages(self):
        assert HotnessLevel.IRON_HOT.wants_fast_pages
        assert HotnessLevel.COLD.wants_fast_pages

    def test_rarely_read_levels_take_slow_pages(self):
        assert not HotnessLevel.HOT.wants_fast_pages
        assert not HotnessLevel.ICY_COLD.wants_fast_pages

    def test_each_area_has_one_fast_one_slow_level(self):
        for area in Area:
            levels = [level for level in HotnessLevel if level.area is area]
            assert sorted(level.wants_fast_pages for level in levels) == [False, True]

    def test_labels(self):
        assert HotnessLevel.IRON_HOT.label == "iron-hot"
        assert HotnessLevel.ICY_COLD.label == "icy-cold"

    def test_ordering_coldest_first(self):
        assert (
            HotnessLevel.ICY_COLD
            < HotnessLevel.COLD
            < HotnessLevel.HOT
            < HotnessLevel.IRON_HOT
        )
