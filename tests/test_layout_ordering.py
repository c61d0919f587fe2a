"""Tests for Pettis-Hansen ordering, including the paper's Figure 2 example."""

import numpy as np
import pytest

from repro.ir import Binary, Procedure, Terminator, UnitCallGraph, baseline_layout
from repro.layout import order_units

#: Unit index of each procedure of :func:`five_proc_binary`.
UNIT = {name: i for i, name in enumerate("ABCDE")}


def five_proc_binary():
    """Five one-block procedures A..E (Figure 2's node set)."""
    binary = Binary()
    for name in "ABCDE":
        proc = Procedure(name)
        proc.add_block("b", 8, Terminator.RETURN)
        binary.add_procedure(proc)
    binary.seal()
    return binary


def units_of(binary):
    return baseline_layout(binary)


def graph_of(*edges):
    """A graph over A..E from ``(a, b, weight)`` name triples."""
    graph = UnitCallGraph(len(UNIT))
    for a, b, weight in edges:
        graph.add_weight(UNIT[a], UNIT[b], weight)
    return graph


def names(result):
    return ["ABCDE"[u] for u in result.order.tolist()]


def counts_for(binary, heat):
    counts = np.zeros(binary.num_blocks, dtype=np.int64)
    for name, value in heat.items():
        counts[binary.proc(name).entry.bid] = value
    return counts


class TestFigure2Golden:
    def test_merge_sequence_reproduces_paper_order(self):
        binary = five_proc_binary()
        units = units_of(binary)
        graph = graph_of(
            ("A", "C", 10),
            ("B", "D", 8),
            ("A", "B", 7),
            ("D", "E", 2),
            ("B", "C", 1),
        )
        counts = counts_for(binary, {"A": 10, "B": 8, "C": 10, "D": 8, "E": 2})
        result = order_units(binary, units, graph, counts)
        order = names(result)
        # The paper reaches E,D,B,A,C; a mirrored chain has identical
        # adjacency and is equally valid.
        assert order in (["E", "D", "B", "A", "C"], ["C", "A", "B", "D", "E"])
        assert result.merges == 4

    def test_parallel_edges_are_summed(self):
        graph = UnitCallGraph(2)
        graph.add_weight(0, 1, 3)
        graph.add_weight(1, 0, 4)
        assert graph.weight(0, 1) == graph.weight(1, 0) == 7


class TestOrderingBehaviour:
    def test_unconnected_cold_units_keep_relative_order(self):
        binary = five_proc_binary()
        units = units_of(binary)
        graph = graph_of(
            ("D", "E", 5),
        )
        counts = counts_for(binary, {"D": 5, "E": 5})
        result = order_units(binary, units, graph, counts)
        order = names(result)
        # Hot cluster (D,E) first; cold A,B,C after in original order.
        assert order[:2] in (["D", "E"], ["E", "D"])
        assert order[2:] == ["A", "B", "C"]

    def test_hotter_cluster_placed_first(self):
        binary = five_proc_binary()
        units = units_of(binary)
        graph = graph_of(
            ("A", "B", 1),
            ("C", "D", 1),
        )
        counts = counts_for(binary, {"A": 1, "B": 1, "C": 50, "D": 50})
        result = order_units(binary, units, graph, counts)
        order = names(result)
        assert set(order[:2]) == {"C", "D"}

    def test_displacement_guard_refuses_giant_merges(self):
        binary = five_proc_binary()
        units = units_of(binary)
        graph = graph_of(
            ("A", "B", 9),
        )
        counts = counts_for(binary, {"A": 9, "B": 9})
        # Each unit is 8 instructions = 32 bytes; cap below 64 bytes.
        result = order_units(binary, units, graph, counts, max_displacement=48)
        assert result.displacement_refusals == 1
        assert result.merges == 0

    def test_every_unit_appears_exactly_once(self):
        binary = five_proc_binary()
        units = units_of(binary)
        graph = graph_of(
            ("A", "B", 2),
            ("B", "C", 9),
            ("C", "D", 4),
            ("D", "E", 6),
            ("A", "E", 1),
        )
        counts = counts_for(binary, {n: 5 for n in "ABCDE"})
        result = order_units(binary, units, graph, counts)
        assert sorted(names(result)) == ["A", "B", "C", "D", "E"]

    def test_self_edges_ignored(self):
        graph = UnitCallGraph(1)
        graph.add_weight(0, 0, 100)
        assert graph.edges_by_weight() == []

    def test_unknown_unit_in_edge_rejected(self):
        from repro.errors import LayoutError

        graph = UnitCallGraph(1)
        for ghost in (1, -1):
            with pytest.raises(LayoutError):
                graph.add_weight(0, ghost, 1)

    def test_zero_weights_are_not_stored(self):
        from repro.errors import LayoutError

        graph = UnitCallGraph(3)
        graph.add_weight(0, 1, 0.0)
        graph.add_weight(1, 2, 2.0)
        graph.add_weight(2, 1, 0)
        assert graph._weights == {(1, 2): 2.0}
        assert graph.edges_by_weight() == [(1, 2, 2.0)]
        assert graph.weight(0, 1) == 0.0
        with pytest.raises(LayoutError):
            graph.add_weight(0, 3, 0.0)

    def test_orientation_uses_original_weights(self):
        # Clusters (A,B) and (C,D) with the strongest original link B-C:
        # the merge must join B's end to C's start.
        binary = five_proc_binary()
        units = units_of(binary)
        graph = graph_of(
            ("A", "B", 10),
            ("C", "D", 9),
            ("B", "C", 5),
        )
        counts = counts_for(binary, {n: 5 for n in "ABCD"})
        result = order_units(binary, units, graph, counts)
        order = [name for name in names(result) if name != "E"]
        joined = "".join(order)
        assert "BC" in joined or "CB" in joined
        assert joined in ("ABCD", "DCBA")
