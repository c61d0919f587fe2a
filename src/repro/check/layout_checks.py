"""Layout integrity analyses (the ``LAY*`` family).

A :class:`~repro.ir.Layout` claims to place every basic block of a
:class:`~repro.ir.Binary` exactly once; an :class:`~repro.ir.AddressMap`
claims the resulting placement preserves program semantics through the
branch fixups of :func:`~repro.ir.assign_addresses`.  These passes
verify both claims statically -- the guarantee a binary rewriter lives
or dies on (BOLT and Codestitcher devote comparable machinery to safe
rewriting).

Structure passes (:func:`check_structure`, :func:`check_branch_targets`,
:func:`check_segments`) need only the binary and the layout.  Address
passes (:func:`check_addresses`, :func:`check_fixups`) additionally need
the address map and assume the structure passes came back clean --
:func:`repro.check.api.check_layout` sequences them accordingly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from repro.check.diagnostics import CheckContext, Diagnostic, Severity
from repro.ir import flatten_units
from repro.ir.instruction import INSTRUCTION_BYTES, SEGMENT_ENDING, Terminator

#: Combos whose units are fine-grain segments; only these are held to
#: the segment-integrity rule (hot/cold halves legitimately contain
#: interior returns).
SPLIT_BASED_LAYOUTS = ("split", "chain+split", "all", "cfa")


def _placement_arrays(ctx: CheckContext):
    """``(flat_ids, unit_starts, in_range, per_id_counts)`` for the
    context's layout, cached so the passes flatten the layout once."""
    cached = ctx.cache.get("placement")
    if cached is not None:
        return cached
    n = ctx.binary.num_blocks
    ids, starts = flatten_units(ctx.layout.units)
    in_range = (ids >= 0) & (ids < n)
    counts = np.bincount(ids[in_range], minlength=n)
    cached = (ids, starts, in_range, counts)
    ctx.cache["placement"] = cached
    return cached


def check_structure(ctx: CheckContext) -> Iterator[Diagnostic]:
    """LAY001/LAY002/LAY003/LAY004: the layout is a well-formed
    placement of exactly the binary's blocks."""
    binary, layout = ctx.binary, ctx.layout
    if binary is None or layout is None:
        return
    ids, _starts, in_range, counts = _placement_arrays(ctx)

    for bid in np.unique(ids[~in_range]).tolist():
        yield Diagnostic(
            "LAY003", Severity.ERROR,
            f"block id {bid} does not exist in binary {binary.name!r} "
            f"({binary.num_blocks} blocks)",
            target=ctx.target,
            hint="the layout was built for a different binary, or a unit was hand-edited",
        )
    for bid in np.nonzero(counts > 1)[0].tolist():
        block = binary.block(bid)
        yield Diagnostic(
            "LAY002", Severity.ERROR,
            f"block {block.proc_name}.{block.label} (id {bid}) placed "
            f"{int(counts[bid])} times",
            target=ctx.target,
            hint="every block must appear exactly once across the layout's units",
        )

    missing = np.nonzero(counts == 0)[0].tolist()
    for bid in missing[:16]:
        block = binary.block(bid)
        yield Diagnostic(
            "LAY001", Severity.ERROR,
            f"block {block.proc_name}.{block.label} (id {bid}) is not placed",
            target=ctx.target,
            hint="a dropped block makes its code unreachable in the rewritten image",
        )
    if len(missing) > 16:
        yield Diagnostic(
            "LAY001", Severity.ERROR,
            f"...and {len(missing) - 16} further unplaced blocks",
            target=ctx.target,
        )

    # Per-unit ownership: every block of a unit must belong to the
    # procedure the unit claims (LAY003), and each procedure needs
    # exactly one entry unit actually containing its entry block
    # (LAY004) so calls land on real code.
    order = binary.proc_order()
    proc_index = {name: i for i, name in enumerate(order)}
    proc_of = binary.table.proc.tolist()
    num_blocks = binary.num_blocks
    entry_units: Dict[str, List[str]] = {}
    for unit in layout.units:
        owner = proc_index.get(unit.proc_name, -1)
        for bid in unit.block_ids:
            if 0 <= bid < num_blocks and proc_of[bid] != owner:
                yield Diagnostic(
                    "LAY003", Severity.ERROR,
                    f"unit {unit.name} of {unit.proc_name!r} contains foreign "
                    f"block {bid} owned by {order[proc_of[bid]]!r}",
                    target=ctx.target, location=f"unit {unit.name}",
                )
        if unit.is_entry:
            entry_units.setdefault(unit.proc_name, []).append(unit.name)
            entry_bid = (
                binary.entry_bid(unit.proc_name)
                if unit.proc_name in binary.procedures else None
            )
            if entry_bid is not None and entry_bid not in unit.block_ids:
                yield Diagnostic(
                    "LAY004", Severity.ERROR,
                    f"unit {unit.name} is flagged is_entry but does not contain "
                    f"{unit.proc_name}'s entry block (id {entry_bid})",
                    target=ctx.target, location=f"unit {unit.name}",
                )
    for name in binary.proc_order():
        units = entry_units.get(name, [])
        if not units:
            yield Diagnostic(
                "LAY004", Severity.ERROR,
                f"procedure {name!r} has no entry unit",
                target=ctx.target,
                hint="callers of this procedure would land on arbitrary code",
            )
        elif len(units) > 1:
            yield Diagnostic(
                "LAY004", Severity.ERROR,
                f"procedure {name!r} has {len(units)} entry units: "
                f"{', '.join(units)}",
                target=ctx.target,
            )


def check_branch_targets(ctx: CheckContext) -> Iterator[Diagnostic]:
    """LAY007: every successor of a placed block is itself placed."""
    binary, layout = ctx.binary, ctx.layout
    if binary is None or layout is None:
        return
    ids, _starts, in_range, counts = _placement_arrays(ctx)
    if in_range.all() and counts.all():
        # Complete placement: every successor id is a valid block
        # (guaranteed at seal time), hence placed.  Nothing can dangle.
        return
    placed = set(ids[in_range].tolist())
    emitted = 0
    for unit in layout.units:
        for bid in unit.block_ids:
            if not (0 <= bid < binary.num_blocks):
                continue  # LAY003 territory
            block = binary.block(bid)
            for dst in block.succs:
                if dst not in placed:
                    emitted += 1
                    if emitted > 16:
                        yield Diagnostic(
                            "LAY007", Severity.ERROR,
                            "...further dangling branch targets suppressed",
                            target=ctx.target,
                        )
                        return
                    yield Diagnostic(
                        "LAY007", Severity.ERROR,
                        f"block {block.proc_name}.{block.label} (id {bid}) "
                        f"targets block {dst}, which the layout never places",
                        target=ctx.target, location=f"unit {unit.name}",
                        hint="a branch to unplaced code cannot be encoded",
                    )


def check_segments(ctx: CheckContext) -> Iterator[Diagnostic]:
    """LAY009: in a fine-grain split layout, a code segment must end --
    and only end -- at an unconditional control transfer.

    "A code segment is ended by an unconditional branch or return"
    (paper §2): an interior unconditional transfer means two segments
    were fused, which silently re-couples hot and cold code and defeats
    the ordering pass's freedom to separate them.
    """
    binary, layout = ctx.binary, ctx.layout
    if binary is None or layout is None:
        return
    if getattr(layout, "name", "") not in SPLIT_BASED_LAYOUTS:
        return
    seg_end = binary.table.is_term(*SEGMENT_ENDING).tolist()
    num_blocks = binary.num_blocks
    for unit in layout.units:
        for bid in unit.block_ids[:-1]:
            if not (0 <= bid < num_blocks) or not seg_end[bid]:
                continue
            block = binary.block(bid)
            yield Diagnostic(
                "LAY009", Severity.ERROR,
                f"segment {unit.name} continues past "
                f"{block.proc_name}.{block.label} (id {bid}), a "
                f"{block.terminator.value} terminator",
                target=ctx.target, location=f"unit {unit.name}",
                hint="cut the segment after the unconditional transfer",
            )


def check_addresses(ctx: CheckContext) -> Iterator[Diagnostic]:
    """LAY005/LAY006: placed blocks occupy disjoint byte ranges and
    units start aligned, in order, without negative gaps."""
    binary, layout, amap = ctx.binary, ctx.layout, ctx.address_map
    if binary is None or layout is None or amap is None:
        return
    ids, unit_pos, in_range, _counts = _placement_arrays(ctx)
    block_end = amap.addr + amap.n_fetch.astype(np.int64) * INSTRUCTION_BYTES

    occupied = ids[in_range]
    occupied = occupied[amap.n_fetch[occupied] > 0]
    starts = amap.addr[occupied]
    order = np.argsort(starts, kind="stable")
    occupied = occupied[order]
    starts = starts[order]
    ends = block_end[occupied]
    for i in np.nonzero(ends[:-1] > starts[1:])[0].tolist():
        b1, b2 = int(occupied[i]), int(occupied[i + 1])
        blk1, blk2 = binary.block(b1), binary.block(b2)
        yield Diagnostic(
            "LAY005", Severity.ERROR,
            f"blocks {blk1.proc_name}.{blk1.label} (id {b1}, ends "
            f"{int(ends[i]):#x}) and {blk2.proc_name}.{blk2.label} "
            f"(id {b2}, starts {int(starts[i + 1]):#x}) overlap",
            target=ctx.target,
            hint="two code regions sharing bytes cannot both be correct",
        )

    align = max(layout.alignment, INSTRUCTION_BYTES)
    placed_end = np.where(in_range, block_end[np.where(in_range, ids, 0)], np.iinfo(np.int64).min)
    unit_end = np.maximum.reduceat(placed_end, unit_pos).tolist() if len(ids) else []
    prev_end = 0
    for unit, end in zip(layout.units, unit_end):
        start = amap.unit_starts.get(unit.name)
        if start is None:
            continue  # structure errors already reported
        if start % align:
            yield Diagnostic(
                "LAY006", Severity.ERROR,
                f"unit {unit.name} starts at {start:#x}, not {align}-byte aligned",
                target=ctx.target, location=f"unit {unit.name}",
            )
        if start < prev_end:
            yield Diagnostic(
                "LAY006", Severity.ERROR,
                f"unit {unit.name} starts at {start:#x}, before the previous "
                f"unit ends ({prev_end:#x})",
                target=ctx.target, location=f"unit {unit.name}",
            )
        prev_end = max(prev_end, start, end)


def check_fixups(ctx: CheckContext) -> Iterator[Diagnostic]:
    """LAY008: control that *falls through* really lands on the right
    block.

    For every placed block the address assigner must have either made
    the continuation sequential or recorded a fixup branch; a block
    violating both would execute into whatever code happens to follow
    it -- the one corruption no cache figure would ever reveal.
    """
    binary, amap = ctx.binary, ctx.address_map
    if binary is None or amap is None:
        return
    table = binary.table
    addr = amap.addr
    block_end = addr + amap.n_fetch.astype(np.int64) * INSTRUCTION_BYTES
    appended, inverted, deleted = (
        np.isin(np.arange(binary.num_blocks), list(bids))
        for bids in (amap.appended_branches, amap.inverted, amap.deleted_branches)
    )

    src = np.flatnonzero(table.is_term(Terminator.FALLTHROUGH, Terminator.CALL))
    dst = table.succ0[src]
    bad = ~appended[src] & (addr[dst] != block_end[src])
    for bid, target in zip(src[bad].tolist(), dst[bad].tolist()):
        block = binary.block(bid)
        yield Diagnostic(
            "LAY008", Severity.ERROR,
            f"{block.terminator.value} block {block.proc_name}.{block.label} "
            f"(id {bid}) continues at {int(block_end[bid]):#x} but its "
            f"successor {target} sits at {int(addr[target]):#x} with no "
            f"fixup branch",
            target=ctx.target,
            hint="assign_addresses must append an unconditional branch here",
        )

    src = np.flatnonzero(table.is_term(Terminator.COND_BRANCH))
    if len(src):
        expected = np.where(inverted[src], table.succ0[src], table.succ1[src])
        bad = ~appended[src] & (addr[expected] != block_end[src])
        for bid, exp in zip(src[bad].tolist(), expected[bad].tolist()):
            block = binary.block(bid)
            kind = "inverted taken" if bid in amap.inverted else "fall-through"
            yield Diagnostic(
                "LAY008", Severity.ERROR,
                f"conditional block {block.proc_name}.{block.label} "
                f"(id {bid}): {kind} successor {exp} is not adjacent "
                f"and no fixup branch was appended",
                target=ctx.target,
            )

    src = np.flatnonzero(table.is_term(Terminator.UNCOND_BRANCH))
    dst = table.succ0[src]
    bad = deleted[src] & (addr[dst] != block_end[src])
    for bid, target in zip(src[bad].tolist(), dst[bad].tolist()):
        block = binary.block(bid)
        yield Diagnostic(
            "LAY008", Severity.ERROR,
            f"block {block.proc_name}.{block.label} (id {bid}) had its "
            f"unconditional branch deleted but target {target} "
            f"is not adjacent",
            target=ctx.target,
            hint="a deleted branch is only legal when the target follows directly",
        )
