"""Conflict-free area (CFA) layout -- the software trace cache variant.

The paper implemented "a version of the CFA optimization, which
attempts to reserve a conflict-free area in the instruction cache for
the most frequently executed traces.  However, the footprint for such
traces in our OLTP workload was too large to fit within a reasonably
sized fraction of the cache, and the optimization yielded no gains."

We reproduce that experiment: the hottest units are packed at the start
of the image (mapping to cache sets ``[0, reserved)``); every other
unit is padded so its code never maps into the reserved sets.  When the
hot footprint exceeds the reserved area, the excess spills into the
unreserved region -- the failure mode the paper observed for OLTP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import LayoutError
from repro.ir import Binary, Layout, unit_sizes_and_heat


@dataclass
class CfaReport:
    """What the CFA pass did."""

    cache_bytes: int
    reserved_bytes: int
    hot_units: int
    #: Bytes of hot code that did not fit the reserved area.
    hot_overflow_bytes: int
    #: Padding bytes wasted steering cold code around the reserved sets.
    padding_bytes: int
    #: Cold units too large to avoid the reserved sets entirely.
    oversized_cold_units: int


def cfa_layout(
    binary: Binary,
    layout: Layout,
    block_counts,
    cache_bytes: int,
    reserved_fraction: float = 0.25,
    alignment: int = 8,
) -> Tuple[Layout, CfaReport]:
    """Build a CFA layout for a given target cache size.

    Args:
        binary: The program.
        layout: Placeable units, ideally chained+split segments ("traces").
        block_counts: Execution counts per block id.
        cache_bytes: Target instruction cache size the reservation is
            computed against.
        reserved_fraction: Fraction of the cache reserved for hot code.
    """
    if not 0.0 < reserved_fraction < 1.0:
        raise LayoutError(f"reserved_fraction must be in (0, 1), got {reserved_fraction}")
    reserved = int(cache_bytes * reserved_fraction)

    sizes, heat = unit_sizes_and_heat(binary, layout, block_counts)
    names = layout.names()
    ranked = sorted(range(layout.num_units), key=lambda i: (-heat[i], names[i]))
    hot: List[int] = []
    hot_bytes = 0
    cold: List[int] = []
    for i in ranked:
        if heat[i] > 0 and hot_bytes + sizes[i] <= reserved:
            hot.append(i)
            hot_bytes += sizes[i]
        else:
            cold.append(i)
    # Hot units that *would* belong in the reserved area but did not fit
    # are the paper's "footprint too large" overflow.
    overflow = sum(sizes[i] for i in cold if heat[i] > 0)

    # Keep cold units in their incoming order (callers pass an already
    # sensible order, e.g. the Pettis-Hansen result).
    pads = [0] * len(hot)
    cursor = hot_bytes
    padding = 0
    oversized = 0
    usable = cache_bytes - reserved
    for i in cold:
        size = sizes[i]
        pad = 0
        offset = cursor % cache_bytes
        if offset < reserved:
            pad = reserved - offset
        elif size <= usable and offset + size > cache_bytes:
            # Would wrap into the reserved sets of the next stride.
            pad = (cache_bytes - offset) + reserved
        if size > usable:
            oversized += 1
        pads.append(pad)
        padding += pad
        cursor += pad + size
    layout = layout.permuted(hot + cold, pad=pads, alignment=alignment, name="cfa")
    report = CfaReport(
        cache_bytes=cache_bytes,
        reserved_bytes=reserved,
        hot_units=len(hot),
        hot_overflow_bytes=overflow,
        padding_bytes=padding,
        oversized_cold_units=oversized,
    )
    return layout, report
