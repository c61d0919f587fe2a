"""Reference address assignment: the oracle for repro.ir.assign_addresses.

The per-block loop that :func:`repro.ir.assign_addresses` replaced,
kept verbatim apart from its name.  It walks every placed block through
its :class:`~repro.ir.BasicBlock` object and applies the branch fixups
one by one.  The differential tests in
``tests/test_placement_oracle.py`` require the array version to produce
an equal :class:`~repro.ir.AddressMap`, field by field.
"""

from __future__ import annotations

from typing import Optional

from repro.ir import INSTRUCTION_BYTES, AddressMap, Binary, Layout, Terminator


def reference_assign_addresses(binary: Binary, layout: Layout) -> AddressMap:
    """Place a layout in the address space, applying branch fixups."""
    layout.validate_against(binary)
    amap = AddressMap(binary, layout)
    align = max(layout.alignment, INSTRUCTION_BYTES)
    dense = align == INSTRUCTION_BYTES
    cursor = 0
    for index, unit in enumerate(layout.units):
        cursor += unit.pad_before
        rem = cursor % align
        if rem:
            cursor += align - rem
        amap.unit_starts[unit.name] = cursor
        ids = unit.block_ids
        next_unit_first: Optional[int] = None
        if dense and index + 1 < len(layout.units):
            nxt = layout.units[index + 1]
            if nxt.pad_before == 0:
                next_unit_first = nxt.block_ids[0]
        for pos, bid in enumerate(ids):
            block = binary.block(bid)
            if pos + 1 < len(ids):
                next_in_unit: Optional[int] = ids[pos + 1]
            else:
                next_in_unit = next_unit_first
            n_fetch = block.size
            term = block.terminator
            if term is Terminator.FALLTHROUGH or term is Terminator.CALL:
                if block.succs[0] != next_in_unit:
                    n_fetch += 1
                    amap.appended_branches.add(bid)
            elif term is Terminator.COND_BRANCH:
                taken, fallthrough = block.succs
                if fallthrough == next_in_unit:
                    pass  # natural polarity
                elif taken == next_in_unit:
                    amap.inverted.add(bid)
                    amap.taken_succ[bid] = fallthrough
                    amap.n_fetch_taken[bid] = block.size
                else:
                    # Neither successor adjacent: keep the conditional
                    # branch (to the taken target) and append an
                    # unconditional branch for the fallthrough path.
                    n_fetch += 1
                    amap.appended_branches.add(bid)
                    amap.taken_succ[bid] = taken
                    amap.n_fetch_taken[bid] = block.size
            elif term is Terminator.UNCOND_BRANCH:
                if block.succs[0] == next_in_unit and block.size >= 1:
                    n_fetch -= 1
                    amap.deleted_branches.add(bid)
            # RETURN / INDIRECT_JUMP need no fixups.
            amap.addr[bid] = cursor
            amap.n_fetch[bid] = n_fetch
            cursor += n_fetch * INSTRUCTION_BYTES
        # A block reduced to zero instructions (branch-only block whose
        # branch was deleted) occupies no bytes; its address aliases the
        # next block, which is exactly the fall-into behaviour we want.
    amap.total_bytes = cursor
    return amap
