"""Tests for victim cache, temporal ordering, and branch statistics."""

import numpy as np
import pytest

from repro.errors import LayoutError, SimulationError
from repro.analysis import branch_stats, merge_branch_stats
from repro.cache import CacheGeometry
from repro.sim import lru_result, simulate_victim_cache
from repro.ir import Binary, Procedure, Terminator, baseline_layout
from repro.layout import build_trg, temporal_order


def spans(*pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    counts = np.array([p[1] for p in pairs], dtype=np.int64)
    return starts, counts


class TestVictimCache:
    GEOM = CacheGeometry(1024, 64, 1)

    def test_absorbs_two_way_conflict(self):
        # Two lines thrashing one DM set: a victim cache fixes it.
        starts, counts = spans(*([(0, 4), (1024, 4)] * 20))
        result = simulate_victim_cache(starts, counts, self.GEOM, 4)
        assert result.raw_misses == 40
        assert result.misses == 2  # only the two cold misses remain

    def test_capacity_misses_not_absorbed(self):
        # A cyclic sweep over 4x the cache with a small victim buffer.
        lines = [(i * 64, 16) for i in range(64)] * 4
        starts, counts = spans(*lines)
        result = simulate_victim_cache(starts, counts, self.GEOM, 4)
        assert result.conflict_fraction < 0.35

    def test_more_entries_absorb_more(self):
        starts, counts = spans(*([(0, 4), (1024, 4), (2048, 4)] * 20))
        small = simulate_victim_cache(starts, counts, self.GEOM, 1)
        big = simulate_victim_cache(starts, counts, self.GEOM, 8)
        assert big.victim_hits >= small.victim_hits

    def test_zero_entries_rejected(self):
        with pytest.raises(SimulationError):
            simulate_victim_cache(*spans((0, 4)), geometry=self.GEOM,
                                  victim_entries=0)

    def test_raw_misses_match_plain_cache(self):
        rng = np.random.default_rng(8)
        starts = (rng.integers(0, 2000, size=300) * 64).astype(np.int64)
        counts = np.full(300, 8, dtype=np.int64)
        plain = lru_result([(starts, counts)], self.GEOM).misses
        victim = simulate_victim_cache(starts, counts, self.GEOM, 4)
        assert victim.raw_misses == plain


def _temporal_fixture():
    binary = Binary()
    for name in ("a", "b", "c", "d"):
        proc = Procedure(name)
        proc.add_block("x", 16, Terminator.RETURN)
        binary.add_procedure(proc)
    binary.seal()
    units = baseline_layout(binary)
    bid = {n: binary.proc(n).entry.bid for n in "abcd"}
    return binary, units, bid


class TestTemporalOrdering:
    def test_trg_weights_cooccurrence(self):
        binary, units, bid = _temporal_fixture()
        # a and b alternate tightly; c appears once; d never.
        stream = np.array([bid["a"], bid["b"]] * 10 + [bid["c"]], dtype=np.int64)
        graph = build_trg(binary, units, [stream], window=4)
        assert graph.weight(0, 1) > graph.weight(0, 2)
        assert graph.weight(0, 3) == 0

    def test_window_limits_reach(self):
        binary, units, bid = _temporal_fixture()
        stream = np.array(
            [bid["a"], bid["b"], bid["c"], bid["d"]], dtype=np.int64
        )
        tight = build_trg(binary, units, [stream], window=1)
        # With window 1, only adjacent entries connect.
        assert tight.weight(0, 2) == 0
        assert tight.weight(0, 1) > 0

    def test_consecutive_repeats_collapse(self):
        binary, units, bid = _temporal_fixture()
        stream = np.array([bid["a"]] * 50 + [bid["b"]], dtype=np.int64)
        graph = build_trg(binary, units, [stream], window=8)
        assert graph.weight(0, 1) == 1

    def test_temporal_order_places_affine_units_adjacent(self):
        binary, units, bid = _temporal_fixture()
        stream = np.array([bid["a"], bid["c"]] * 30, dtype=np.int64)
        counts = np.zeros(binary.num_blocks, dtype=np.int64)
        counts[bid["a"]] = 30
        counts[bid["c"]] = 30
        layout = temporal_order(binary, units, [stream], counts, window=4)
        order = layout.names()
        assert abs(order.index("a") - order.index("c")) == 1

    def test_bad_window_rejected(self):
        binary, units, _ = _temporal_fixture()
        with pytest.raises(LayoutError):
            build_trg(binary, units, [], window=0)


class TestBranchStats:
    def test_no_breaks_in_straight_run(self):
        stats = branch_stats(*spans((0, 4), (16, 4), (32, 4)))
        assert stats.breaks == 0
        assert stats.transitions == 2

    def test_breaks_counted(self):
        stats = branch_stats(*spans((0, 4), (100, 4), (116, 4), (0, 4)))
        assert stats.breaks == 2
        assert stats.break_fraction == pytest.approx(2 / 3)

    def test_merge(self):
        a = branch_stats(*spans((0, 4), (100, 4)))
        b = branch_stats(*spans((0, 4), (16, 4)))
        merged = merge_branch_stats([a, b])
        assert merged.breaks == 1
        assert merged.transitions == 2
        assert merged.instructions == 16

    def test_empty(self):
        stats = branch_stats(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert stats.break_fraction == 0.0
