"""Tests for the extension modules: stream buffers, cache-line
coloring, and joint app+kernel placement."""

import numpy as np
import pytest

from repro.errors import LayoutError, SimulationError
from repro.cache import CacheGeometry, simulate_stream_buffers
from repro.ir import (
    Binary,
    CodeUnit,
    Procedure,
    Terminator,
    UnitCallGraph,
    assign_addresses,
    baseline_layout,
)
from repro.layout import choose_kernel_offset, color_layout


def spans(*pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    counts = np.array([p[1] for p in pairs], dtype=np.int64)
    return starts, counts


class TestStreamBuffers:
    GEOM = CacheGeometry(1024, 64, 1)

    def test_sequential_misses_covered(self):
        # A long sequential sweep: after the first miss per buffer
        # restart, subsequent lines hit the stream buffer.
        starts, counts = spans((16 * 1024, 256))
        result = simulate_stream_buffers(starts, counts, self.GEOM, depth=8)
        assert result.raw_misses == 16
        assert result.stream_hits > 0
        assert result.misses < result.raw_misses

    def test_random_misses_not_covered(self):
        rng = np.random.default_rng(4)
        addresses = rng.integers(0, 4096, size=200) * 1024  # far apart
        starts = addresses.astype(np.int64)
        counts = np.full(200, 4, dtype=np.int64)
        result = simulate_stream_buffers(starts, counts, self.GEOM)
        assert result.coverage < 0.2

    def test_depth_limits_run(self):
        starts, counts = spans((16 * 1024, 512))
        shallow = simulate_stream_buffers(starts, counts, self.GEOM, depth=1)
        deep = simulate_stream_buffers(starts, counts, self.GEOM, depth=16)
        assert deep.stream_hits >= shallow.stream_hits

    def test_misses_never_negative(self):
        starts, counts = spans((0, 64), (0, 64))
        result = simulate_stream_buffers(starts, counts, self.GEOM)
        assert 0 <= result.misses <= result.raw_misses

    def test_invalid_params(self):
        with pytest.raises(SimulationError):
            simulate_stream_buffers(*spans((0, 4)), geometry=self.GEOM,
                                    num_buffers=0)

    def test_longer_sequences_benefit_more(self):
        """The paper's claim: layout-lengthened sequences raise stream
        buffer coverage."""
        # Short runs with jumps vs long sequential runs, same volume.
        short = spans(*[(i * 8192, 8) for i in range(128)])
        long_ = spans(*[(i * 8192, 64) for i in range(16)])
        cov_short = simulate_stream_buffers(*short, geometry=self.GEOM).coverage
        cov_long = simulate_stream_buffers(*long_, geometry=self.GEOM).coverage
        assert cov_long > cov_short


def _coloring_fixture():
    binary = Binary()
    for name in ("a", "b", "c", "cold"):
        proc = Procedure(name)
        proc.add_block("x", 64, Terminator.RETURN)  # 256 bytes each
        binary.add_procedure(proc)
    binary.seal()
    units = [
        CodeUnit(name=n, proc_name=n, block_ids=(binary.proc(n).entry.bid,))
        for n in binary.proc_order()
    ]
    graph = UnitCallGraph(u.name for u in units)
    graph.add_weight("a", "b", 100)
    graph.add_weight("b", "c", 50)
    counts = np.zeros(binary.num_blocks, dtype=np.int64)
    for name, heat in (("a", 100), ("b", 80), ("c", 50)):
        counts[binary.proc(name).entry.bid] = heat
    return binary, units, graph, counts


class TestColoring:
    def test_neighbors_get_disjoint_sets(self):
        binary, units, graph, counts = _coloring_fixture()
        layout, report = color_layout(
            binary, units, graph, counts, cache_bytes=512, line_bytes=64
        )
        layout.validate_against(binary)
        amap = assign_addresses(binary, layout)
        nsets = 512 // 64

        def sets_of(name):
            start = amap.unit_starts[name]
            nbytes = 256
            return {
                (line % nsets)
                for line in range(start // 64, (start + nbytes - 1) // 64 + 1)
            }

        # a and b are heavy neighbors: in a 512B cache their 256B bodies
        # must overlap *somewhere*, but the report tracks the attempt.
        assert report.hot_units == 3
        assert report.unresolved >= 0
        # b and c (lighter edge) should avoid each other if possible.
        assert isinstance(sets_of("a"), set)

    def test_cold_units_appended(self):
        binary, units, graph, counts = _coloring_fixture()
        layout, _ = color_layout(
            binary, units, graph, counts, cache_bytes=2048, line_bytes=64
        )
        assert layout.units[-1].name == "cold"

    def test_large_cache_resolves_conflicts(self):
        binary, units, graph, counts = _coloring_fixture()
        layout, report = color_layout(
            binary, units, graph, counts, cache_bytes=8192, line_bytes=64
        )
        assert report.unresolved == 0

    def test_bad_geometry_rejected(self):
        binary, units, graph, counts = _coloring_fixture()
        with pytest.raises(LayoutError):
            color_layout(binary, units, graph, counts,
                         cache_bytes=1000, line_bytes=64)

    def test_all_units_placed_once(self):
        binary, units, graph, counts = _coloring_fixture()
        layout, _ = color_layout(
            binary, units, graph, counts, cache_bytes=1024, line_bytes=64
        )
        assert sorted(u.name for u in layout.units) == ["a", "b", "c", "cold"]


class TestJointPlacement:
    def make_maps(self):
        app = Binary("app")
        proc = Procedure("hot")
        proc.add_block("x", 512, Terminator.RETURN)  # 2KB hot region
        app.add_procedure(proc)
        app.seal()
        kernel = Binary("kern")
        kproc = Procedure("k.hot")
        kproc.add_block("x", 512, Terminator.RETURN)
        kernel.add_procedure(kproc)
        kernel.seal()
        app_map = assign_addresses(app, baseline_layout(app))
        kernel_map = assign_addresses(kernel, baseline_layout(kernel))
        return app_map, kernel_map

    def test_offset_moves_kernel_away(self):
        app_map, kernel_map = self.make_maps()
        counts = np.array([100], dtype=np.int64)
        offset, report = choose_kernel_offset(
            app_map, counts, kernel_map, counts,
            cache_bytes=8192, line_bytes=128, granularity=2048,
        )
        # Both images start at 0 -> full overlap at offset 0; a 2KB or
        # greater shift eliminates it (2KB bodies in an 8KB cache).
        assert offset != 0
        assert report.overlap_after < report.overlap_before
        assert report.overlap_reduction == 1.0

    def test_zero_offset_when_no_conflict(self):
        app_map, kernel_map = self.make_maps()
        app_counts = np.array([100], dtype=np.int64)
        kernel_counts = np.array([0], dtype=np.int64)  # cold kernel
        offset, report = choose_kernel_offset(
            app_map, app_counts, kernel_map, kernel_counts,
            cache_bytes=8192, line_bytes=128, granularity=2048,
        )
        assert report.overlap_before == 0.0
        assert offset == 0

    def test_geometry_validation(self):
        app_map, kernel_map = self.make_maps()
        counts = np.array([1], dtype=np.int64)
        with pytest.raises(LayoutError):
            choose_kernel_offset(app_map, counts, kernel_map, counts,
                                 cache_bytes=8192, line_bytes=96)
