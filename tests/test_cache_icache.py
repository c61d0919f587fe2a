"""Tests for the instruction-cache simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.cache import CacheGeometry
from repro.sim import (
    APP,
    KERNEL,
    collapse_consecutive,
    direct_mapped_misses,
    expand_line_runs,
    lru_result,
)
from repro.ir import KERNEL_BASE


def spans(*pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    counts = np.array([p[1] for p in pairs], dtype=np.int64)
    return starts, counts


class TestGeometry:
    def test_num_sets(self):
        assert CacheGeometry(64 * 1024, 128, 1).num_sets == 512
        assert CacheGeometry(64 * 1024, 128, 4).num_sets == 128

    def test_invalid_geometry_rejected(self):
        with pytest.raises(SimulationError):
            CacheGeometry(1000, 128, 1)

    def test_str(self):
        assert "64KB" in str(CacheGeometry(64 * 1024, 128, 2))


class TestExpandLineRuns:
    def test_single_span_one_line(self):
        starts, counts = spans((0, 4))
        lines, lo, hi, span = expand_line_runs(starts, counts, 64)
        assert lines.tolist() == [0]
        assert lo.tolist() == [0]
        assert hi.tolist() == [3]

    def test_span_crossing_lines(self):
        # 20 instructions from byte 32: bytes 32..112 over 64B lines.
        starts, counts = spans((32, 20))
        lines, lo, hi, span = expand_line_runs(starts, counts, 64)
        assert lines.tolist() == [0, 1]
        assert lo.tolist() == [8, 0]
        assert hi.tolist() == [15, 11]

    def test_zero_count_spans_dropped(self):
        starts, counts = spans((0, 0), (64, 2))
        lines, lo, hi, span = expand_line_runs(starts, counts, 64)
        assert lines.tolist() == [1]
        assert span.tolist() == [1]

    def test_span_indices_preserved(self):
        starts, counts = spans((0, 2), (128, 2))
        _, _, _, span = expand_line_runs(starts, counts, 64)
        assert span.tolist() == [0, 1]

    def test_collapse_consecutive(self):
        lines = np.array([1, 1, 2, 2, 2, 1])
        keep = collapse_consecutive(lines)
        assert lines[keep].tolist() == [1, 2, 1]


class TestDirectMapped:
    def test_cold_misses_only(self):
        geom = CacheGeometry(1024, 64, 1)
        starts, counts = spans((0, 16), (0, 16))
        assert direct_mapped_misses(starts, counts, geom) == 1

    def test_conflict_thrash(self):
        geom = CacheGeometry(1024, 64, 1)
        # Two lines 1024 bytes apart map to the same set.
        starts, counts = spans(*([(0, 4), (1024, 4)] * 5))
        assert direct_mapped_misses(starts, counts, geom) == 10

    def test_distinct_sets_no_conflict(self):
        geom = CacheGeometry(1024, 64, 1)
        starts, counts = spans(*([(0, 4), (64, 4)] * 5))
        assert direct_mapped_misses(starts, counts, geom) == 2

    def test_requires_direct_mapped(self):
        geom = CacheGeometry(1024, 64, 2)
        with pytest.raises(SimulationError):
            direct_mapped_misses(*spans((0, 4)), geometry=geom)

    def test_agrees_with_lru_sim_when_assoc_1(self):
        geom = CacheGeometry(512, 64, 1)
        rng = np.random.default_rng(9)
        starts = rng.integers(0, 4096, size=400) * 4
        counts = rng.integers(1, 20, size=400)
        dm = direct_mapped_misses(starts, counts, geom)
        lru = lru_result([(starts, counts)], geom).misses
        assert dm == lru


class TestLruSim:
    def test_associativity_avoids_thrash(self):
        dm = CacheGeometry(1024, 64, 1)
        w2 = CacheGeometry(1024, 64, 2)
        starts, counts = spans(*([(0, 4), (1024, 4)] * 5))
        assert lru_result([(starts, counts)], dm).misses == 10
        assert lru_result([(starts, counts)], w2).misses == 2

    def test_lru_eviction_order(self):
        geom = CacheGeometry(128, 64, 2)  # one set, two ways
        # a, b, c -> c evicts a; then a misses again.
        starts, counts = spans((0, 4), (1024, 4), (2048, 4), (0, 4))
        assert lru_result([(starts, counts)], geom).misses == 4

    def test_lru_hit_refreshes(self):
        geom = CacheGeometry(128, 64, 2)
        # a, b, a, c -> c evicts b; a still resident.
        starts, counts = spans((0, 4), (1024, 4), (0, 4), (2048, 4), (0, 4))
        assert lru_result([(starts, counts)], geom).misses == 3

    def test_space_attribution(self):
        geom = CacheGeometry(1024, 64, 1)
        starts, counts = spans((0, 4), (KERNEL_BASE, 4))
        result = lru_result([(starts, counts)], geom)
        assert result.misses_app == 1
        assert result.misses_kernel == 1

    def test_interference_matrix(self):
        geom = CacheGeometry(128, 64, 1)  # 2 sets
        # App line then kernel line in the same set, alternating.
        k = KERNEL_BASE  # multiple of 128 -> same set as address 0
        starts, counts = spans((0, 4), (k, 4), (0, 4), (k, 4))
        result = lru_result([(starts, counts)], geom)
        matrix = result.interference
        # Only the very first access finds the set empty.
        assert matrix.cold == {APP: 1, KERNEL: 0}
        assert matrix.counts[APP][KERNEL] == 1
        assert matrix.counts[KERNEL][APP] == 2
        assert matrix.misses(APP) == 2
        assert matrix.misses(KERNEL) == 2

    def test_multi_stream_merge(self):
        geom = CacheGeometry(1024, 64, 1)
        s1 = spans((0, 16))
        s2 = spans((0, 16))
        result = lru_result([s1, s2], geom)
        assert result.misses == 2  # private caches: each misses once

    def test_empty_streams_rejected(self):
        with pytest.raises(SimulationError):
            lru_result([], CacheGeometry(1024, 64, 1))


class TestDetailedStats:
    def test_word_usage_full_line(self):
        geom = CacheGeometry(128, 128, 1)  # single frame of 32 words
        starts, counts = spans((0, 32), (1 << 20, 1))  # full use then evict
        locality = lru_result([(starts, counts)], geom, detail=True).locality
        assert locality.unique_words[32] == 1

    def test_word_usage_partial_line(self):
        geom = CacheGeometry(128, 128, 1)
        starts, counts = spans((0, 8), (1 << 20, 1))
        locality = lru_result([(starts, counts)], geom, detail=True).locality
        assert locality.unique_words[8] == 1

    def test_reuse_counts(self):
        geom = CacheGeometry(128, 128, 1)
        # Fetch words 0..7 three times, then evict.
        starts, counts = spans((0, 8), (0, 8), (0, 8), (1 << 20, 1))
        locality = lru_result([(starts, counts)], geom, detail=True).locality
        assert locality.word_reuse[3] == 8   # 8 words used 3x
        assert locality.word_reuse[0] == 24 + 31  # unused words of both lines

    def test_unused_fraction(self):
        geom = CacheGeometry(128, 128, 1)
        starts, counts = spans((0, 16), (1 << 20, 1))
        locality = lru_result([(starts, counts)], geom, detail=True).locality
        assert locality.words_loaded == 64
        assert locality.words_used == 17
        assert locality.unused_fraction == pytest.approx(1 - 17 / 64)

    def test_lifetime_buckets(self):
        geom = CacheGeometry(128, 128, 1)
        starts, counts = spans((0, 4), (1 << 20, 1))
        locality = lru_result([(starts, counts)], geom, detail=True).locality
        assert locality.lifetimes.sum() == 2

    def test_detail_misses_match_plain(self):
        geom = CacheGeometry(512, 64, 2)
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 2048, size=300) * 4
        counts = rng.integers(1, 12, size=300)
        plain = lru_result([(starts, counts)], geom, detail=False)
        detailed = lru_result([(starts, counts)], geom, detail=True)
        assert plain.misses == detailed.misses


class TestCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=6), st.data())
    def test_lru_inclusion_bigger_cache_fewer_misses(self, shift, data):
        """With LRU and fixed line size/assoc-per-set scaling by sets,
        doubling the sets never increases misses (set-refinement holds
        for power-of-two set counts under address-modulo indexing)."""
        n = data.draw(st.integers(min_value=10, max_value=120))
        addr = data.draw(
            st.lists(st.integers(min_value=0, max_value=255), min_size=n, max_size=n)
        )
        starts = np.array(addr, dtype=np.int64) * 64
        counts = np.ones(n, dtype=np.int64)
        small = CacheGeometry(1024, 64, 1)
        big = CacheGeometry(2048, 64, 1)
        m_small = lru_result([(starts, counts)], small).misses
        m_big = lru_result([(starts, counts)], big).misses
        assert m_big <= m_small

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_full_assoc_lru_monotone_in_size(self, data):
        n = data.draw(st.integers(min_value=10, max_value=100))
        addr = data.draw(
            st.lists(st.integers(min_value=0, max_value=63), min_size=n, max_size=n)
        )
        starts = np.array(addr, dtype=np.int64) * 64
        counts = np.ones(n, dtype=np.int64)
        small = CacheGeometry(256, 64, 4)   # fully assoc, 4 lines
        big = CacheGeometry(512, 64, 8)     # fully assoc, 8 lines
        m_small = lru_result([(starts, counts)], small).misses
        m_big = lru_result([(starts, counts)], big).misses
        assert m_big <= m_small

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_misses_bounded_by_accesses(self, data):
        n = data.draw(st.integers(min_value=1, max_value=80))
        addr = data.draw(
            st.lists(st.integers(min_value=0, max_value=500), min_size=n, max_size=n)
        )
        starts = np.array(addr, dtype=np.int64) * 4
        counts = np.ones(n, dtype=np.int64)
        geom = CacheGeometry(512, 64, 2)
        result = lru_result([(starts, counts)], geom)
        assert 0 <= result.misses <= result.accesses
