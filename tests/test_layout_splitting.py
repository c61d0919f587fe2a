"""Tests for fine-grain splitting, hot/cold splitting, and CFA layout."""

import numpy as np
import pytest

from repro.ir import Binary, Procedure, Terminator, assign_addresses
from repro.layout import (
    cfa_layout,
    chain_blocks,
    split_chains,
    split_hot_cold,
    split_source_order,
)
from repro.ir import flow_graph_from_edge_counts


def unit_labels(binary, layout):
    return [
        [binary.block(b).label for b in layout.blocks(u).tolist()]
        for u in range(layout.num_units)
    ]


def segmented_binary():
    """Procedure with an obvious segment structure:

        a(3) cond -> (c | b); b(4) uncond -> d; c(2) return; d(5) return
    """
    binary = Binary()
    proc = Procedure("p")
    proc.add_block("a", 3, Terminator.COND_BRANCH, succs=("c", "b"))
    proc.add_block("b", 4, Terminator.UNCOND_BRANCH, succs=("d",))
    proc.add_block("c", 2, Terminator.RETURN)
    proc.add_block("d", 5, Terminator.RETURN)
    binary.add_procedure(proc)
    binary.seal()
    return binary


class TestSourceOrderSplitting:
    def test_segments_end_at_uncond_and_return(self):
        binary = segmented_binary()
        layout = split_source_order(binary)
        assert unit_labels(binary, layout) == [["a", "b"], ["c"], ["d"]]
        assert layout.names() == ["p.seg0", "p.seg1", "p.seg2"]

    def test_exactly_one_entry_unit(self):
        binary = segmented_binary()
        layout = split_source_order(binary)
        assert layout.is_entry().tolist() == [True, False, False]

    def test_trailing_open_segment_is_flushed(self):
        binary = Binary()
        proc = Procedure("p")
        proc.add_block("a", 1, Terminator.RETURN)
        proc.add_block("b", 2, Terminator.FALLTHROUGH, succs=("c",))
        proc.add_block("c", 2, Terminator.COND_BRANCH, succs=("b", "c"))
        binary.add_procedure(proc)
        binary.seal()
        layout = split_source_order(binary)
        assert layout.num_units == 2
        assert len(layout.blocks(1)) == 2


class TestChainedSplitting:
    def test_segments_respect_chain_boundaries(self):
        binary = segmented_binary()
        proc = binary.proc("p")
        counts = np.array([100, 90, 10, 90], dtype=np.int64)
        edges = {
            (proc.block("a").bid, proc.block("b").bid): 90,
            (proc.block("a").bid, proc.block("c").bid): 10,
            (proc.block("b").bid, proc.block("d").bid): 90,
        }
        chaining = chain_blocks(proc, flow_graph_from_edge_counts(proc, edges), counts)
        labels = unit_labels(binary, split_chains(binary, [chaining]))
        # Hot chain a-b-d: segment breaks after b? No: b's uncond target
        # d is chained right after it, so the chain is a,b,d; b ends a
        # segment (uncond terminator) -> segments [a,b], [d], [c].
        assert labels == [["a", "b"], ["d"], ["c"]]

    def test_all_blocks_covered_once(self):
        binary = segmented_binary()
        proc = binary.proc("p")
        counts = np.ones(4, dtype=np.int64)
        chaining = chain_blocks(
            proc, flow_graph_from_edge_counts(proc, {}), counts
        )
        layout = split_chains(binary, [chaining])
        assert sorted(layout.ids.tolist()) == sorted(proc.block_ids())


class TestHotColdSplitting:
    def test_unexecuted_blocks_go_cold(self):
        binary = segmented_binary()
        counts = np.array([100, 0, 100, 0], dtype=np.int64)
        layout = split_hot_cold(binary, counts)
        assert layout.names() == ["p.hot", "p.cold"]
        assert unit_labels(binary, layout) == [["a", "c"], ["b", "d"]]

    def test_entry_forced_hot(self):
        binary = segmented_binary()
        counts = np.zeros(4, dtype=np.int64)
        layout = split_hot_cold(binary, counts)
        entry = binary.proc("p").entry.bid
        assert layout.blocks(0).tolist() == [entry]
        assert layout.is_entry().tolist() == [True, False]

    def test_fully_hot_proc_has_no_cold_unit(self):
        binary = segmented_binary()
        counts = np.array([10, 10, 10, 10], dtype=np.int64)
        assert split_hot_cold(binary, counts).names() == ["p.hot"]


class TestCfaLayout:
    def make_units(self, binary):
        return split_source_order(binary)

    def test_hot_units_fill_reserved_area_first(self):
        binary = segmented_binary()
        counts = np.array([100, 100, 0, 100], dtype=np.int64)
        units = self.make_units(binary)
        layout, report = cfa_layout(
            binary, units, counts, cache_bytes=256, reserved_fraction=0.5
        )
        assert report.reserved_bytes == 128
        assert report.hot_units >= 1
        amap = assign_addresses(binary, layout)
        # The hottest unit starts at address 0.
        assert amap.unit_starts[0] == 0

    def test_cold_code_avoids_reserved_sets(self):
        binary = segmented_binary()
        counts = np.array([100, 100, 0, 100], dtype=np.int64)
        units = self.make_units(binary)
        cache = 256
        layout, report = cfa_layout(
            binary, units, counts, cache_bytes=cache, reserved_fraction=0.5,
            alignment=8,
        )
        amap = assign_addresses(binary, layout)
        for start in amap.unit_starts[report.hot_units:].tolist():
            assert start % cache >= report.reserved_bytes

    def test_overflow_reported_when_hot_code_too_big(self):
        binary = segmented_binary()
        counts = np.array([100, 100, 100, 100], dtype=np.int64)
        units = self.make_units(binary)
        # Reserve only 4 bytes: nothing fits, everything overflows.
        layout, report = cfa_layout(
            binary, units, counts, cache_bytes=64, reserved_fraction=0.0625
        )
        assert report.hot_units == 0
        assert report.hot_overflow_bytes == binary.static_size * 4

    def test_bad_fraction_rejected(self):
        from repro.errors import LayoutError

        binary = segmented_binary()
        with pytest.raises(LayoutError):
            cfa_layout(binary, self.make_units(binary), np.zeros(4), 256, 1.5)
