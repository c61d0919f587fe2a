"""Fine-grain procedure splitting (Section 2, Figure 1b).

After chaining, each procedure's block order is cut into *code
segments*: "a code segment is ended by an unconditional branch or
return".  Each segment becomes a separate placeable unit (a new
"procedure" in Spike's model), giving the follow-on ordering pass
freedom to separate hot segments from cold ones.

Segments never span chain boundaries: a chain break is exactly the
point where the address assigner must insert an unconditional branch,
so the boundary block is segment-ending by construction.
"""

from __future__ import annotations

from typing import List, Sequence

from repro import obs
from repro.check.structural import verify_split_units
from repro.ir import Binary, CodeUnit, SEGMENT_ENDING
from repro.layout.chaining import ChainingResult


def split_chains(
    binary: Binary, chaining: ChainingResult, verify: bool = False
) -> List[CodeUnit]:
    """Split one chained procedure into segment units.

    Returns units in chain order; the unit containing the procedure
    entry block is flagged ``is_entry``.  With ``verify``, the
    partition contract is asserted before returning
    (:func:`repro.check.verify_split_units`).
    """
    entry_bid = binary.proc(chaining.proc_name).entry.bid
    units: List[CodeUnit] = []
    for chain in chaining.chains:
        segment: List[int] = []
        for bid in chain:
            segment.append(bid)
            if binary.block(bid).terminator in SEGMENT_ENDING:
                units.append(_make_unit(chaining.proc_name, len(units), segment, entry_bid))
                segment = []
        if segment:
            units.append(_make_unit(chaining.proc_name, len(units), segment, entry_bid))
    obs.counter("layout.split.procedures").inc()
    obs.counter("layout.split.segments").inc(len(units))
    if verify:
        verify_split_units(binary, chaining.proc_name, units)
    return units


def split_procedure_source_order(
    binary: Binary, proc_name: str, verify: bool = False
) -> List[CodeUnit]:
    """Split a procedure's *source-order* blocks into segments.

    Used to study splitting without chaining.
    """
    proc = binary.proc(proc_name)
    entry_bid = proc.entry.bid
    units: List[CodeUnit] = []
    segment: List[int] = []
    for block in proc.blocks:
        segment.append(block.bid)
        if block.terminator in SEGMENT_ENDING:
            units.append(_make_unit(proc_name, len(units), segment, entry_bid))
            segment = []
    if segment:
        units.append(_make_unit(proc_name, len(units), segment, entry_bid))
    if verify:
        verify_split_units(binary, proc_name, units)
    return units


def _make_unit(
    proc_name: str, index: int, segment: Sequence[int], entry_bid: int
) -> CodeUnit:
    return CodeUnit(
        name=f"{proc_name}.seg{index}",
        proc_name=proc_name,
        block_ids=tuple(segment),
        is_entry=entry_bid in segment,
    )
