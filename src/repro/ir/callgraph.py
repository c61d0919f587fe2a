"""Weighted call graphs over placeable code units.

For unsplit binaries the nodes are procedures.  After fine-grain
splitting the nodes are segments, and -- as in Spike -- the graph
"includes branch as well as call edges to represent transitions between
these new procedures".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import LayoutError
from repro.ir.binary import Binary
from repro.ir.instruction import Terminator
from repro.ir.layout import CodeUnit


class UnitCallGraph:
    """Undirected weighted graph between code units.

    Parallel edges are summed ("if there is more than one edge with the
    same source and destination, we compute the sum of the execution
    counts and delete all but one edge").
    """

    def __init__(self, unit_names: Iterable[str]) -> None:
        self.nodes: List[str] = list(unit_names)
        self._index = {name: i for i, name in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise LayoutError("duplicate unit names in call graph")
        self._weights: Dict[Tuple[str, str], float] = defaultdict(float)

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def add_weight(self, a: str, b: str, weight: float) -> None:
        """Accumulate weight on the (undirected) edge a--b.

        Zero weights are not stored: a missing edge already weighs 0.
        """
        if a == b:
            return  # self edges never influence placement
        if a not in self._index or b not in self._index:
            raise LayoutError(f"call graph edge references unknown unit: {a!r}/{b!r}")
        if weight:
            self._weights[self._key(a, b)] += weight

    def weight(self, a: str, b: str) -> float:
        return self._weights.get(self._key(a, b), 0.0)

    def edges_by_weight(self) -> List[Tuple[str, str, float]]:
        """Edges sorted heaviest-first with deterministic tie-break."""
        items = [(a, b, w) for (a, b), w in self._weights.items() if w > 0]
        items.sort(key=lambda e: (-e[2], e[0], e[1]))
        return items


def build_unit_call_graph(
    binary: Binary,
    units: Sequence[CodeUnit],
    block_counts: Sequence[int],
    edge_counts: Optional[Mapping[Tuple[int, int], int]] = None,
) -> UnitCallGraph:
    """Build the unit-level graph from profile data.

    Call edges are weighted by the execution count of the calling block
    (the paper's rule).  Inter-unit *branch* edges (conditional or
    unconditional transfers between segments of a split procedure) are
    weighted by the measured transition count when ``edge_counts`` is
    given, else by the source block count.
    """
    graph = UnitCallGraph(u.name for u in units)
    unit_of_block: Dict[int, str] = {}
    entry_unit_of_proc: Dict[str, str] = {}
    for unit in units:
        for bid in unit.block_ids:
            unit_of_block[bid] = unit.name
        if unit.is_entry:
            entry_unit_of_proc[unit.proc_name] = unit.name

    for unit in units:
        for bid in unit.block_ids:
            block = binary.block(bid)
            if block.terminator is Terminator.CALL:
                callee_entry = entry_unit_of_proc.get(block.call_target)
                if callee_entry is not None:
                    graph.add_weight(
                        unit.name, callee_entry, float(block_counts[bid])
                    )
            for dst in block.succs:
                dst_unit = unit_of_block[dst]
                if dst_unit == unit.name:
                    continue
                if edge_counts is not None and block.terminator is not Terminator.CALL:
                    weight = float(edge_counts.get((bid, dst), 0))
                else:
                    # Call continuations never appear as adjacent trace
                    # transitions (the callee runs in between), so --
                    # like Pettis-Hansen -- weight them by the calling
                    # block's execution count.
                    weight = float(block_counts[bid])
                graph.add_weight(unit.name, dst_unit, weight)
    return graph
