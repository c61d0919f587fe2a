"""Cache-line coloring placement (Hashemi et al. / Kalamaitianos et al.).

The related-work comparator: instead of Pettis-Hansen adjacency, place
each hot unit so its cache *sets* do not collide with the sets of its
call-graph neighbors, inserting padding gaps where necessary.  The
paper's position is that such placement-only schemes (no chaining, no
splitting) are ineffective for OLTP-sized footprints; this module lets
``repro figure ext_coloring`` check that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import LayoutError
from repro.ir import Binary, CodeUnit, Layout, UnitCallGraph, unit_sizes_and_heat


@dataclass
class ColoringReport:
    """What the coloring pass did."""

    cache_bytes: int
    line_bytes: int
    hot_units: int
    #: Bytes of padding inserted to steer units apart.
    padding_bytes: int
    #: Hot units that could not avoid all neighbor conflicts.
    unresolved: int


def color_layout(
    binary: Binary,
    units: Sequence[CodeUnit],
    graph: UnitCallGraph,
    block_counts,
    cache_bytes: int = 64 * 1024,
    line_bytes: int = 64,
    search_lines: int = 64,
    alignment: int = 16,
) -> Tuple[Layout, ColoringReport]:
    """Place units hot-first, coloring each against its neighbors.

    Args:
        binary: The program.
        units: Placeable units (whole procedures in the classic papers).
        graph: Call graph whose positive-weight edges define neighbors.
        block_counts: Execution counts per block id.
        cache_bytes / line_bytes: The direct-mapped target cache whose
            set conflicts are being avoided.
        search_lines: How many candidate offsets (in lines) to try
            before accepting the least-bad conflict.
    """
    if cache_bytes % line_bytes:
        raise LayoutError("cache_bytes must be a multiple of line_bytes")
    nsets = cache_bytes // line_bytes

    sizes, heat = unit_sizes_and_heat(binary, units, block_counts)
    hot = sorted(
        (i for i, h in enumerate(heat) if h > 0),
        key=lambda i: (-heat[i], units[i].name),
    )
    cold = [u for u, h in zip(units, heat) if h <= 0]

    #: Sets occupied by each placed hot unit.
    placed_sets: Dict[str, Set[int]] = {}
    placed: List[CodeUnit] = []
    cursor = 0
    padding = 0
    unresolved = 0

    def sets_for(address: int, nbytes: int) -> Set[int]:
        first = address // line_bytes
        last = (address + max(nbytes, 1) - 1) // line_bytes
        return {line % nsets for line in range(first, last + 1)}

    for i in hot:
        unit, nbytes = units[i], sizes[i]
        neighbors = [
            (placed_sets[other.name], graph.weight(unit.name, other.name))
            for other in placed
            if graph.weight(unit.name, other.name) > 0
            and other.name in placed_sets
        ]
        best_offset = 0
        best_cost = None
        for step in range(search_lines):
            address = _align(cursor + step * line_bytes, alignment)
            occupied = sets_for(address, nbytes)
            cost = sum(w * len(occupied & sets_) for sets_, w in neighbors)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_offset = address - cursor
            if cost == 0:
                break
        if best_cost and best_cost > 0:
            unresolved += 1
        address = _align(cursor + best_offset, alignment)
        pad = address - cursor
        placed.append(unit.with_pad(pad) if pad else unit)
        placed_sets[unit.name] = sets_for(address, nbytes)
        padding += pad
        cursor = address + nbytes
    final_units = list(placed) + [u for u in cold]
    layout = Layout(units=final_units, alignment=alignment, name="coloring")
    report = ColoringReport(
        cache_bytes=cache_bytes,
        line_bytes=line_bytes,
        hot_units=len(hot),
        padding_bytes=padding,
        unresolved=unresolved,
    )
    return layout, report


def _align(address: int, alignment: int) -> int:
    rem = address % alignment
    return address + (alignment - rem) if rem else address
