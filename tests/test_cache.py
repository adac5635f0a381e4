"""Unit tests for the set-associative cache model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.soc.cache import SetAssociativeCache, flush_cost_cycles
from repro.units import KB


def make_cache(size=4 * KB, line=64, ways=4):
    return SetAssociativeCache("test", size_bytes=size, line_bytes=line, ways=ways)


class TestGeometry:
    def test_sets_times_ways_matches_capacity(self):
        cache = make_cache(size=4 * KB, line=64, ways=4)
        assert cache.num_sets * cache.ways * cache.line_bytes == 4 * KB

    def test_ways_clamped_to_capacity(self):
        cache = SetAssociativeCache("tiny", size_bytes=128, line_bytes=64, ways=16)
        assert cache.ways <= 2

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache("bad", size_bytes=0, line_bytes=64, ways=4)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache("bad", size_bytes=32, line_bytes=64, ways=4)

    def test_line_address_alignment(self):
        cache = make_cache()
        assert cache.line_address(130) == 128
        assert cache.line_address(64) == 64

    def test_lines_in_range(self):
        cache = make_cache()
        assert list(cache.lines_in_range(0, 128)) == [0, 64]
        assert list(cache.lines_in_range(10, 1)) == [0]
        assert list(cache.lines_in_range(0, 0)) == []


class TestAccess:
    def test_miss_then_hit(self):
        cache = make_cache()
        hit, evicted, dirty = cache.access_line(0, write=False)
        assert not hit and evicted is None
        hit, _, _ = cache.access_line(0, write=False)
        assert hit
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_write_marks_dirty(self):
        cache = make_cache()
        cache.access_line(0, write=True)
        assert cache.is_dirty(0)

    def test_read_does_not_mark_dirty(self):
        cache = make_cache()
        cache.access_line(0, write=False)
        assert not cache.is_dirty(0)

    def test_no_allocate_on_miss(self):
        cache = make_cache()
        cache.access_line(0, write=False, allocate=False)
        assert not cache.contains(0)

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache("lru", size_bytes=256, line_bytes=64, ways=2)
        # Two lines mapping to the same set (set count = 2).
        set_stride = cache.num_sets * cache.line_bytes
        a, b, c = 0, set_stride, 2 * set_stride
        cache.access_line(a, write=False)
        cache.access_line(b, write=False)
        cache.access_line(a, write=False)  # refresh a
        _, evicted, _ = cache.access_line(c, write=False)
        assert evicted == b

    def test_dirty_eviction_reports_writeback(self):
        cache = SetAssociativeCache("wb", size_bytes=256, line_bytes=64, ways=2)
        set_stride = cache.num_sets * cache.line_bytes
        cache.access_line(0, write=True)
        cache.access_line(set_stride, write=True)
        _, evicted, dirty = cache.access_line(2 * set_stride, write=True)
        assert evicted == 0
        assert dirty
        assert cache.stats.writebacks == 1

    def test_access_range_counts(self):
        cache = make_cache()
        result = cache.access_range(0, 1024, write=False)
        assert result.lines == 16
        assert result.misses == 16
        again = cache.access_range(0, 1024, write=False)
        assert again.hits == 16


class TestInstallAndFlush:
    def test_install_range_populates_without_stats(self):
        cache = make_cache()
        installed = cache.install_range(0, 1024, dirty=True)
        assert installed == 16
        assert cache.stats.misses == 0
        assert cache.contains(0)

    def test_flush_all_counts_writebacks_and_invalidations(self):
        cache = make_cache()
        cache.install_range(0, 512, dirty=True)
        cache.install_range(512, 512, dirty=False)
        writebacks, invalidations = cache.flush_all()
        assert invalidations == 16
        assert writebacks == 8
        assert cache.num_valid == 0

    def test_flush_range_only_touches_range(self):
        cache = make_cache()
        cache.install_range(0, 1024, dirty=True)
        writebacks, invalidations = cache.flush_range(0, 512)
        assert writebacks == 8
        assert invalidations == 8
        assert cache.contains(512)
        assert not cache.contains(0)

    def test_flush_empty_cache_is_noop(self):
        cache = make_cache()
        assert cache.flush_all() == (0, 0)

    def test_flush_cost_model(self):
        assert flush_cost_cycles(0, 0, 100.0, 2.0) == pytest.approx(100.0)
        assert flush_cost_cycles(4, 10, 100.0, 2.0) == pytest.approx(120.0)


class TestRecallAndOccupancy:
    def test_recall_line_removes_and_reports_dirty(self):
        cache = make_cache()
        cache.access_line(0, write=True)
        assert cache.recall_line(0)
        assert not cache.contains(0)
        assert cache.stats.recalls == 1

    def test_recall_clean_line(self):
        cache = make_cache()
        cache.access_line(0, write=False)
        assert not cache.recall_line(0)

    def test_invalidate_absent_line(self):
        cache = make_cache()
        assert not cache.invalidate_line(0)

    def test_occupancy_tracking(self):
        cache = make_cache(size=1 * KB)
        cache.install_range(0, 512, dirty=True)
        assert cache.occupancy_bytes() == 512
        assert cache.dirty_lines() == 8

    def test_resident_lines_within(self):
        cache = make_cache()
        cache.install_range(0, 256, dirty=False)
        resident = cache.resident_lines_within(64, 128)
        assert sorted(resident) == [64, 128]
        assert cache.resident_lines_within(4096, 128) == []
        assert cache.resident_lines_within(0, 0) == []

    def test_resident_lines_within_order_is_set_then_lru(self):
        # 4 sets of 2 ways: lines 7 and 3 share set 3 (7 is LRU), line 4 is in set 0.
        cache = make_cache(size=8 * 64, ways=2)
        for line_index in (7, 4, 3):
            cache.install_range(line_index * 64, 64)
        assert cache.resident_lines_within(3 * 64, 3 * 64) == [4 * 64, 3 * 64]
        assert cache.resident_lines_within(5 * 64, 2 * 64) == []
        assert cache.resident_lines_within(0, 8 * 64) == [4 * 64, 7 * 64, 3 * 64]

    def test_resident_lines_in_range_count(self):
        cache = make_cache()
        cache.install_range(0, 256, dirty=False)
        assert cache.resident_lines_in_range(0, 256) == 4

    def test_clear_resets_everything(self):
        cache = make_cache()
        cache.access_range(0, 512, write=True)
        cache.clear()
        assert cache.num_valid == 0
        assert cache.stats.accesses == 0

    def test_capacity_never_exceeded(self):
        cache = make_cache(size=1 * KB, line=64, ways=4)
        cache.access_range(0, 16 * KB, write=True)
        assert cache.num_valid <= 16
