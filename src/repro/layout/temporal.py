"""Temporal-ordering procedure placement (Gloy et al., MICRO'97).

The related-work comparator that replaces call-graph weights with
*temporal* co-occurrence: two units that execute close together in
time want to be placed apart-in-sets / near-in-memory.  We implement
the standard simplification: a sliding window over the unit-level
execution trace builds a Temporal Relationship Graph (TRG), and the
Pettis-Hansen coalescing machinery consumes it instead of the call
graph.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

import numpy as np

from repro.errors import LayoutError
from repro.ir import Binary, Layout, UnitCallGraph
from repro.layout.ordering import DEFAULT_MAX_DISPLACEMENT, order_units


def build_trg(
    binary: Binary,
    layout: Layout,
    block_streams: Iterable[np.ndarray],
    window: int = 32,
    max_transitions: Optional[int] = 400_000,
) -> UnitCallGraph:
    """Build a Temporal Relationship Graph from executed block streams.

    Each time execution enters a unit, an edge to every distinct unit
    seen within the last ``window`` unit-entries is strengthened.

    Args:
        binary: The program the streams' block ids index.
        layout: Placeable units.
        block_streams: Per-process/CPU block-id traces.
        window: Temporal window in distinct unit-entries.
        max_transitions: Cap on processed unit transitions per stream
            (keeps TRG construction bounded on long traces).
    """
    if window < 1:
        raise LayoutError("temporal window must be >= 1")
    unit_of = np.full(binary.num_blocks, -1, dtype=np.int64)
    unit_of[layout.ids] = layout.position_unit
    graph = UnitCallGraph(layout.num_units)
    for stream in block_streams:
        stream = np.asarray(stream, dtype=np.int64)
        known = (stream >= 0) & (stream < binary.num_blocks)
        units = unit_of[stream[known]]
        units = units[units >= 0]
        # Unit entries: drop repeats of the unit just entered.
        entered = np.ones(len(units), dtype=bool)
        entered[1:] = units[1:] != units[:-1]
        entries = units[entered]
        if max_transitions is not None:
            entries = entries[:max_transitions]
        recent: "OrderedDict[int, None]" = OrderedDict()
        for unit in entries.tolist():
            for other in recent:
                if other != unit:
                    graph.add_weight(unit, other, 1.0)
            recent[unit] = None
            recent.move_to_end(unit)
            if len(recent) > window:
                recent.popitem(last=False)
    return graph


def temporal_order(
    binary: Binary,
    layout: Layout,
    block_streams: Iterable[np.ndarray],
    block_counts,
    window: int = 32,
    alignment: int = 16,
    max_displacement: int = DEFAULT_MAX_DISPLACEMENT,
) -> Layout:
    """Order units by temporal affinity (Gloy-style) and return a layout."""
    graph = build_trg(binary, layout, block_streams, window=window)
    result = order_units(
        binary, layout, graph, block_counts, max_displacement=max_displacement
    )
    return layout.permuted(result.order, alignment=alignment, name="temporal")
