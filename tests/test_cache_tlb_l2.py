"""Tests for the iTLB, L1D and shared L2 simulators."""

import numpy as np
import pytest

from repro.cache import CacheGeometry
from repro.sim import (
    PAGE_BYTES,
    dcache_result,
    itlb_result,
    l2_result,
    simulate_l1i_misses,
)
from repro.sim.l2 import FirstTouchMapper
from repro.errors import SimulationError
from repro.ir import DATA_BASE


def spans(*pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    counts = np.array([p[1] for p in pairs], dtype=np.int64)
    return starts, counts


class TestItlb:
    def test_cold_misses(self):
        streams = [spans((0, 4), (PAGE_BYTES, 4))]
        result = itlb_result(streams, entries=4)
        assert result.misses == 2
        assert result.unique_pages == 2

    def test_hits_within_page(self):
        streams = [spans((0, 4), (256, 4), (512, 4))]
        result = itlb_result(streams, entries=4)
        assert result.misses == 1

    def test_lru_capacity(self):
        pages = [0, 1, 2, 0, 1, 2]  # 3 pages in a 2-entry TLB: all miss
        streams = [spans(*[(p * PAGE_BYTES, 4) for p in pages])]
        result = itlb_result(streams, entries=2)
        assert result.misses == 6

    def test_lru_retains_recent(self):
        pages = [0, 1, 0, 2, 0]  # 0 stays hot in a 2-entry TLB
        streams = [spans(*[(p * PAGE_BYTES, 4) for p in pages])]
        result = itlb_result(streams, entries=2)
        assert result.misses == 3  # 0, 1, 2 cold; both 0-reuses hit

    def test_page_crossing_span(self):
        streams = [spans((PAGE_BYTES - 8, 6))]
        result = itlb_result(streams, entries=4)
        assert result.misses == 2

    def test_bad_entries_rejected(self):
        with pytest.raises(SimulationError):
            itlb_result([spans((0, 4))], entries=0)

    def test_per_cpu_private(self):
        streams = [spans((0, 4)), spans((0, 4))]
        result = itlb_result(streams, entries=4)
        assert result.misses == 2


class TestDcache:
    def test_basic_hit_miss(self):
        geom = CacheGeometry(256, 64, 2)
        addresses = np.array([0, 0, 64, 0], dtype=np.int64)
        result = dcache_result(addresses, geom)
        assert result.misses == 2
        assert result.accesses == 4

    def test_miss_stream_positions(self):
        geom = CacheGeometry(128, 64, 1)
        addresses = np.array([0, 4096, 0], dtype=np.int64)
        positions = np.array([10, 20, 30], dtype=np.int64)
        result = dcache_result(addresses, geom, positions)
        assert result.miss_positions.tolist() == [10, 20, 30]
        assert result.miss_addresses.tolist() == [0, 4096, 0]


class TestL1iMissStream:
    def test_positions_index_spans(self):
        geom = CacheGeometry(128, 64, 1)
        starts, counts = spans((0, 4), (4096, 4), (0, 4))
        addresses, positions = simulate_l1i_misses(starts, counts, geom)
        assert addresses.tolist() == [0, 4096, 0]
        assert positions.tolist() == [0, 1, 2]

    def test_hits_not_in_stream(self):
        geom = CacheGeometry(1024, 64, 2)
        starts, counts = spans((0, 4), (0, 4))
        addresses, _ = simulate_l1i_misses(starts, counts, geom)
        assert len(addresses) == 1


class TestFirstTouchMapper:
    def test_first_touch_sequential_frames(self):
        mapper = FirstTouchMapper()
        addrs = np.array([5 * PAGE_BYTES + 8, 9 * PAGE_BYTES, 5 * PAGE_BYTES],
                         dtype=np.int64)
        phys = mapper.translate(addrs)
        assert phys.tolist() == [8, PAGE_BYTES, 0]

    def test_offsets_preserved(self):
        mapper = FirstTouchMapper()
        phys = mapper.translate(np.array([123456789], dtype=np.int64))
        assert int(phys[0]) % PAGE_BYTES == 123456789 % PAGE_BYTES


class TestSharedL2:
    def test_instr_data_split(self):
        geom = CacheGeometry(1024, 64, 2)
        refs = np.array([0, DATA_BASE], dtype=np.int64)
        pos = np.array([0, 1], dtype=np.int64)
        result = l2_result([(refs, pos)], geom)
        assert result.misses_instr == 1
        assert result.misses_data == 1

    def test_hits_across_cpus(self):
        geom = CacheGeometry(1024, 64, 2)
        a = (np.array([0], dtype=np.int64), np.array([0], dtype=np.int64))
        b = (np.array([0], dtype=np.int64), np.array([1], dtype=np.int64))
        result = l2_result([a, b], geom)
        assert result.misses == 1  # shared cache: second CPU hits

    def test_position_interleaving(self):
        geom = CacheGeometry(128, 64, 1)  # 2 sets
        # CPU0 touches line A at positions 0 and 2; CPU1 touches a
        # conflicting line at position 1 -> A evicted in between.
        conflict = 4096  # same set as 0 after identity-ish mapping
        a = (np.array([0, 0], dtype=np.int64), np.array([0, 2], dtype=np.int64))
        b = (np.array([conflict], dtype=np.int64), np.array([1], dtype=np.int64))
        result = l2_result([a, b], geom, physical=False)
        assert result.misses == 3

    def test_physical_mapping_defuses_virtual_aliasing(self):
        # Two addresses exactly one cache-stride apart alias virtually;
        # first-touch physical mapping places them in adjacent frames.
        geom = CacheGeometry(2 * PAGE_BYTES, 64, 1)
        a1, a2 = 0, 2 * PAGE_BYTES
        refs = np.array([a1, a2] * 4, dtype=np.int64)
        pos = np.arange(8, dtype=np.int64)
        virtual = l2_result([(refs, pos)], geom, physical=False)
        physical = l2_result([(refs, pos)], geom, physical=True)
        assert virtual.misses == 8
        assert physical.misses == 2

    def test_empty_streams(self):
        result = l2_result([], CacheGeometry(1024, 64, 2))
        assert result.accesses == 0
