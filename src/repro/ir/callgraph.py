"""Weighted call graphs over placeable code units.

For unsplit binaries the nodes are procedures.  After fine-grain
splitting the nodes are segments, and -- as in Spike -- the graph
"includes branch as well as call edges to represent transitions between
these new procedures".  Nodes are unit indexes of one
:class:`~repro.ir.Layout`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.ir.binary import Binary
from repro.ir.instruction import Terminator
from repro.ir.layout import Layout


class UnitCallGraph:
    """Undirected weighted graph between the units ``0..num_units-1``.

    Parallel edges are summed ("if there is more than one edge with the
    same source and destination, we compute the sum of the execution
    counts and delete all but one edge").
    """

    def __init__(self, num_units: int) -> None:
        self.num_units = num_units
        self._weights: Dict[Tuple[int, int], float] = defaultdict(float)

    def add_weight(self, a: int, b: int, weight: float) -> None:
        """Accumulate weight on the (undirected) edge a--b.

        Zero weights are not stored: a missing edge already weighs 0.
        """
        if a == b:
            return  # self edges never influence placement
        if not (0 <= a < self.num_units and 0 <= b < self.num_units):
            raise LayoutError(f"call graph edge references unknown unit: {a}/{b}")
        if weight:
            self._weights[(a, b) if a < b else (b, a)] += weight

    def weight(self, a: int, b: int) -> float:
        return self._weights.get((a, b) if a < b else (b, a), 0.0)

    def edges_by_weight(self) -> List[Tuple[int, int, float]]:
        """Edges ``(a, b, w)`` with ``a < b``, heaviest first, ties by
        unit index."""
        items = [(a, b, w) for (a, b), w in self._weights.items() if w > 0]
        items.sort(key=lambda e: (-e[2], e[0], e[1]))
        return items


def build_unit_call_graph(
    binary: Binary,
    layout: Layout,
    block_counts: Sequence[int],
    edge_counts: Optional[Mapping[Tuple[int, int], int]] = None,
) -> UnitCallGraph:
    """Build the unit-level graph of a complete layout from profile data.

    Call edges run to the callee's entry unit, weighted by the execution
    count of the calling block (the paper's rule).  Inter-unit *branch*
    edges (conditional or unconditional transfers between segments of a
    split procedure) are weighted by the measured transition count when
    ``edge_counts`` is given, else by the source block count.  Counts are
    integers, so the sums do not depend on the order they are added in.
    """
    table = binary.table
    unit_of = np.full(binary.num_blocks, -1, dtype=np.int64)
    unit_of[layout.ids] = layout.position_unit
    counts = np.asarray(block_counts).astype(np.float64)

    # Edges: calls to the callee's entry, then the fixed successors, then
    # indirect-jump targets (which the table leaves out).
    calls, first, second = (np.flatnonzero(c >= 0) for c in (table.callee, table.succ0, table.succ1))
    indirect = np.flatnonzero(table.is_term(Terminator.INDIRECT_JUMP)).tolist()
    targets = [(bid, dst) for bid in indirect for dst in binary.block(bid).succs]
    src = np.concatenate([calls, first, second, np.array([s for s, _ in targets], np.int64)])
    dst = np.concatenate([
        table.entry[table.callee[calls]], table.succ0[first], table.succ1[second],
        np.array([d for _, d in targets], np.int64),
    ])

    weight = counts[src]
    if edge_counts is not None:
        # Call continuations never appear as adjacent trace transitions
        # (the callee runs in between), so -- like Pettis-Hansen -- they
        # keep the calling block's count.
        branch = np.arange(len(src)) >= len(calls)
        branch &= table.callee[src] < 0
        pairs = zip(src[branch].tolist(), dst[branch].tolist())
        weight[branch] = [float(edge_counts.get(pair, 0)) for pair in pairs]

    a, b = unit_of[src], unit_of[dst]
    keep = (a != b) & (weight != 0)
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    keys, inverse = np.unique(lo * layout.num_units + hi, return_inverse=True)
    sums = np.bincount(inverse, weights=weight[keep], minlength=len(keys))
    graph = UnitCallGraph(layout.num_units)
    pairs = zip((keys // layout.num_units).tolist(), (keys % layout.num_units).tolist())
    graph._weights.update(zip(pairs, sums.tolist()))
    return graph
