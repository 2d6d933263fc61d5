"""Units for the demand-paged mapping pieces: CMT, GTD, lazy map, guards."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, FtlError, MappingError
from repro.ftl.mapping import FULL_MAP_MAX_ENTRIES, UNMAPPED, PageMapTable
from repro.ftl.transmap import (
    CachedMappingTable,
    GlobalTranslationDirectory,
    LazyPageMapTable,
    MappingConfig,
)


class TestMappingConfig:
    def test_defaults_cover_the_full_map(self):
        cfg = MappingConfig()
        assert cfg.resolve_cache_entries(1000) == 1000
        assert cfg.resolve_entries_per_page(16 * 1024) == 2048

    def test_explicit_knobs_win_over_derivation(self):
        cfg = MappingConfig(cache_entries=64, entries_per_page=16)
        assert cfg.resolve_cache_entries(1_000_000) == 64
        assert cfg.resolve_entries_per_page(16 * 1024) == 16

    def test_ratio_derives_entries(self):
        cfg = MappingConfig(cache_ratio=0.25)
        assert cfg.resolve_cache_entries(1000) == 250
        # never rounds down to an unusable zero-entry cache
        assert MappingConfig(cache_ratio=0.001).resolve_cache_entries(10) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cache_entries=-1),
            dict(cache_ratio=0.0),
            dict(cache_ratio=1.5),
            dict(entries_per_page=-4),
            dict(entry_bytes=0),
            dict(evict_batch=0),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MappingConfig(**kwargs)


class TestCachedMappingTable:
    def test_touch_refreshes_lru(self):
        cmt = CachedMappingTable(capacity=2, entries_per_page=4)
        assert not cmt.touch(1)  # a miss changes nothing
        assert not cmt.items()
        cmt.insert(1, 100)
        cmt.insert(2, 200)
        assert cmt.touch(1)  # refreshes 1; 2 is now LRU
        assert list(cmt.items()) == [(2, 200), (1, 100)]
        assert cmt.evict_lru() is None  # 2 was clean
        assert cmt.peek(2) is None and cmt.peek(1) == 100

    def test_cached_unmapped_is_a_hit_not_a_miss(self):
        cmt = CachedMappingTable(capacity=2, entries_per_page=4)
        cmt.insert(5, UNMAPPED)
        assert cmt.touch(5)
        assert cmt.peek(5) == UNMAPPED  # distinct from the None miss
        assert cmt.peek(6) is None

    def test_insert_into_full_cache_is_a_caller_bug(self):
        cmt = CachedMappingTable(capacity=1, entries_per_page=4)
        assert not cmt.is_full()
        cmt.insert(1, 100)
        assert cmt.is_full()
        with pytest.raises(FtlError, match="full"):
            cmt.insert(2, 200)
        # updating a resident entry is always allowed
        assert cmt.update(1, 101)
        assert cmt.peek(1) == 101

    def test_update_of_uncached_entry_changes_nothing(self):
        cmt = CachedMappingTable(capacity=2, entries_per_page=4)
        cmt.insert(1, 100)
        assert not cmt.update(2, 200)
        assert cmt.peek(2) is None and cmt.dirty_count == 0
        cmt.check_consistency()

    def test_update_refreshes_lru_and_marks_dirty(self):
        cmt = CachedMappingTable(capacity=3, entries_per_page=4)
        for lpn in (1, 2, 3):
            cmt.insert(lpn, 100 + lpn)
        assert cmt.update(1, 111)
        assert cmt.update(1, 112)  # re-dirtying counts once
        assert list(cmt.items()) == [(2, 102), (3, 103), (1, 112)]
        assert cmt.dirty_count == 1 and cmt.dirty_tvpns() == [0]
        cmt.check_consistency()

    def test_evict_empty_rejected(self):
        cmt = CachedMappingTable(capacity=1, entries_per_page=4)
        with pytest.raises(FtlError, match="empty"):
            cmt.evict_lru()

    def test_dirty_groups_batch_by_translation_page(self):
        cmt = CachedMappingTable(capacity=8, entries_per_page=4)
        for lpn in (0, 1, 5, 2, 3):
            cmt.insert(lpn, lpn)
        for lpn in (0, 1, 5, 2):
            cmt.update(lpn, 100 + lpn)
        assert cmt.dirty_tvpns() == [0, 1]
        assert cmt.dirty_count == 4
        assert cmt.take_dirty(0) == {0: 100, 1: 101, 2: 102}
        assert cmt.take_dirty(0) == {}  # now clean, still cached
        assert cmt.dirty_tvpns() == [1] and cmt.peek(0) == 100
        assert cmt.take_dirty(1) == {5: 105}
        assert cmt.dirty_count == 0
        cmt.check_consistency()

    def test_evicting_dirty_entry_hands_it_to_the_caller(self):
        cmt = CachedMappingTable(capacity=4, entries_per_page=4)
        for lpn in (3, 2, 1, 6):
            cmt.insert(lpn, lpn)
        for lpn in (3, 1, 2, 6):
            cmt.update(lpn, 100 + lpn)
        # LRU order is now 3, 1, 2, 6: the victim leads its batch, then
        # the other dirty entries of TVPN 0 in LPN order
        tvpn, updates = cmt.evict_lru()
        assert tvpn == 0
        assert list(updates.items()) == [(3, 103), (1, 101), (2, 102)]
        # the cache has forgotten the victim; its page-mates stay, clean
        assert cmt.peek(3) is None
        assert (cmt.peek(1), cmt.peek(2)) == (101, 102)
        assert cmt.dirty_tvpns() == [1] and cmt.dirty_count == 1
        assert cmt.evict_lru() is None  # 1 was cleaned by the batch
        cmt.check_consistency()

    def test_counter_arithmetic(self):
        cmt = CachedMappingTable(capacity=4, entries_per_page=4)
        for lpn in range(4):
            cmt.insert(lpn, lpn)
        cmt.evict_lru()
        assert cmt.insertions - cmt.evictions == len(cmt.items()) == 3
        cmt.check_consistency()

    @pytest.mark.parametrize("kwargs", [dict(capacity=0), dict(entries_per_page=0)])
    def test_bad_construction(self, kwargs):
        defaults = dict(capacity=4, entries_per_page=4)
        defaults.update(kwargs)
        with pytest.raises(FtlError):
            CachedMappingTable(**defaults)


class TestGlobalTranslationDirectory:
    def test_update_and_reverse(self):
        gtd = GlobalTranslationDirectory(num_lpns=16, entries_per_page=4)
        assert gtd.num_translation_pages == 4
        assert gtd.ppn_of(2) == UNMAPPED
        gtd.update(2, 50)
        assert gtd.ppn_of(2) == 50
        assert gtd.tvpn_at(50) == 2
        gtd.update(2, 60)  # relocation frees the old copy's reverse entry
        assert gtd.ppn_of(2) == 60
        assert gtd.tvpn_at(60) == 2
        assert gtd.tvpn_at(50) == UNMAPPED
        assert len(gtd) == 1
        gtd.check_consistency()

    def test_ppn_collision_rejected(self):
        gtd = GlobalTranslationDirectory(num_lpns=16, entries_per_page=4)
        gtd.update(0, 7)
        with pytest.raises(MappingError, match="already holds"):
            gtd.update(1, 7)

    def test_tvpn_range_checked(self):
        gtd = GlobalTranslationDirectory(num_lpns=16, entries_per_page=4)
        with pytest.raises(MappingError, match="out of range"):
            gtd.ppn_of(4)
        with pytest.raises(MappingError, match="out of range"):
            gtd.update(-1, 0)
        gtd.update(3, 9)
        assert gtd.ppn_of(3) == 9  # a persisted TVPN skips the check

    def test_partial_last_page(self):
        gtd = GlobalTranslationDirectory(num_lpns=10, entries_per_page=4)
        assert gtd.num_translation_pages == 3  # ceil(10 / 4)
        gtd.update(2, 0)  # LPN 9's page is the last, partial one
        with pytest.raises(MappingError, match="out of range"):
            gtd.update(3, 1)


class TestLazyPageMapTable:
    def test_huge_geometry_constructs_without_allocation(self):
        # A dense table at this size would be gigabytes; lazy is O(1).
        table = LazyPageMapTable(1 << 32, 1 << 32)
        assert table.mapped_count == 0
        assert table.ppn_of(1 << 31) == UNMAPPED
        table.remap(1 << 31, 42)
        assert table.ppn_of(1 << 31) == 42
        assert table.lpn_of(42) == 1 << 31
        table.check_consistency()

    def test_matches_dense_table_under_random_ops(self, rng):
        dense = PageMapTable(64, 128)
        lazy = LazyPageMapTable(64, 128)
        used_ppns: set[int] = set()
        for _ in range(300):
            lpn = int(rng.integers(0, 64))
            if rng.random() < 0.25:
                assert dense.unmap(lpn) == lazy.unmap(lpn)
            else:
                free = [p for p in range(128) if not dense.is_valid_ppn(p)]
                ppn = int(rng.choice(free))
                used_ppns.add(ppn)
                assert dense.remap(lpn, ppn) == lazy.remap(lpn, ppn)
        assert dense.mapped_count == lazy.mapped_count
        for lpn in range(64):
            assert dense.ppn_of(lpn) == lazy.ppn_of(lpn)
        for ppn in range(128):
            assert dense.lpn_of(ppn) == lazy.lpn_of(ppn)
        for start in range(0, 128, 16):
            span = range(start, start + 16)
            assert dense.valid_ppns_in(span) == sorted(lazy.valid_ppns_in(span))
        lazy.check_consistency()

    def test_sparse_arrays_never_store_unmapped(self):
        lazy = LazyPageMapTable(8, 16)
        lazy.remap(3, 5)
        lazy.unmap(3)
        # the backing dicts shrink back to empty — no tombstones
        assert len(lazy.l2p) == 0 and len(lazy.p2l) == 0

    def test_errors_match_dense_semantics(self):
        lazy = LazyPageMapTable(8, 16)
        with pytest.raises(MappingError):
            lazy.ppn_of(8)
        with pytest.raises(MappingError):
            lazy.remap(0, 16)
        lazy.remap(0, 3)
        with pytest.raises(MappingError, match="already holds"):
            lazy.remap(1, 3)
        with pytest.raises(MappingError):
            lazy.clear_ppn(3)


class TestFullMapGuard:
    def test_dense_table_rejects_pathological_allocation(self):
        with pytest.raises(ConfigError, match="dftl"):
            PageMapTable(FULL_MAP_MAX_ENTRIES, 1)

    def test_guard_names_the_mapping_knobs(self):
        with pytest.raises(ConfigError, match="mapping.cache_entries"):
            PageMapTable(FULL_MAP_MAX_ENTRIES // 2 + 1, FULL_MAP_MAX_ENTRIES // 2 + 1)
