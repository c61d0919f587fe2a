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

:func:`decode_layout` checks what a saved document spells out and a
layout derives: unit names and entry flags.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.check.diagnostics import CheckContext, Diagnostic, Severity
from repro.ir import Binary, Layout
from repro.ir.layout import suffix_kind
from repro.ir.instruction import INSTRUCTION_BYTES, SEGMENT_ENDING, Terminator


def _placement_arrays(ctx: CheckContext):
    """``(ids, unit_starts, in_range, per_id_counts)`` for the
    context's layout, cached so the passes share them."""
    cached = ctx.cache.get("placement")
    if cached is not None:
        return cached
    n = ctx.binary.num_blocks
    ids, starts = ctx.layout.ids, ctx.layout.starts
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

    # Every block of a unit must belong to the unit's procedure (LAY003).
    unit_of, proc_of = layout.position_unit, binary.table.proc
    foreign = in_range & (proc_of[np.where(in_range, ids, 0)] != layout.proc[unit_of])
    for pos, u in zip(np.flatnonzero(foreign).tolist(), unit_of[foreign].tolist()):
        bid, name = int(ids[pos]), layout.unit_name(u)
        yield Diagnostic(
            "LAY003", Severity.ERROR,
            f"unit {name} of {layout.procs[layout.proc[u]]!r} contains foreign "
            f"block {bid} owned by {binary.table.names[proc_of[bid]]!r}",
            target=ctx.target, location=f"unit {name}",
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
    for bid, u in zip(ids.tolist(), layout.position_unit.tolist()):
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
                    target=ctx.target, location=f"unit {layout.unit_name(u)}",
                    hint="a branch to unplaced code cannot be encoded",
                )


def check_segments(ctx: CheckContext) -> Iterator[Diagnostic]:
    """LAY009: a fine-grain segment must end -- and only end -- at an
    unconditional control transfer.

    "A code segment is ended by an unconditional branch or return"
    (paper §2): an interior unconditional transfer means two segments
    were fused, which silently re-couples hot and cold code and defeats
    the ordering pass's freedom to separate them.  Only segment units
    are held to this (hot/cold halves legitimately contain interior
    returns).
    """
    binary, layout = ctx.binary, ctx.layout
    if binary is None or layout is None:
        return
    ids, _starts, in_range, _counts = _placement_arrays(ctx)
    interior = np.ones(len(ids), dtype=bool)
    interior[layout.starts + layout.lengths - 1] = False
    unit_of = layout.position_unit
    seg_end = binary.table.is_term(*SEGMENT_ENDING)[np.where(in_range, ids, 0)]
    fused = np.flatnonzero(interior & (layout.kind >= 0)[unit_of] & in_range & seg_end)
    for pos, u in zip(fused.tolist(), unit_of[fused].tolist()):
        bid, name = int(ids[pos]), layout.unit_name(u)
        block = binary.block(bid)
        yield Diagnostic(
            "LAY009", Severity.ERROR,
            f"segment {name} continues past "
            f"{block.proc_name}.{block.label} (id {bid}), a "
            f"{block.terminator.value} terminator",
            target=ctx.target, location=f"unit {name}",
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
    unit_end = np.maximum.reduceat(placed_end, unit_pos) if len(ids) else np.zeros(0, np.int64)
    starts = amap.unit_starts
    # Each unit must start at or after the furthest end seen so far.
    reach = np.maximum.accumulate(np.maximum(starts, unit_end)) if len(starts) else starts
    prev_end = np.maximum(np.append(0, reach[:-1]), 0)
    misaligned = starts % align != 0
    early = starts < prev_end
    for u in np.flatnonzero(misaligned | early).tolist():
        name, start = layout.unit_name(u), int(starts[u])
        if misaligned[u]:
            yield Diagnostic(
                "LAY006", Severity.ERROR,
                f"unit {name} starts at {start:#x}, not {align}-byte aligned",
                target=ctx.target, location=f"unit {name}",
            )
        if early[u]:
            yield Diagnostic(
                "LAY006", Severity.ERROR,
                f"unit {name} starts at {start:#x}, before the previous "
                f"unit ends ({int(prev_end[u]):#x})",
                target=ctx.target, location=f"unit {name}",
            )


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


def decode_layout(
    binary: Binary, payload: Dict, target: str = ""
) -> Tuple[Optional[Layout], List[Diagnostic]]:
    """Decode a :func:`~repro.harness.store.layout_to_dict` document:
    ``(layout, [])``, or ``(None, findings)`` when a unit's ``proc_name``
    is not a procedure of ``binary`` or does not own the unit's blocks,
    its ``name`` is not ``proc_name`` plus a kind suffix or repeats
    another unit's (LAY003), or its ``is_entry`` disagrees with the
    binary's entry block (LAY004).  Ids outside the binary, repeats and
    gaps are left to :func:`check_structure`."""
    table = binary.table
    units = payload["units"]
    names = [unit["name"] for unit in units]
    owners = [unit["proc_name"] for unit in units]
    lengths = np.array([len(unit["block_ids"]) for unit in units], dtype=np.int64)
    ids = np.fromiter(
        chain.from_iterable(unit["block_ids"] for unit in units),
        dtype=np.int64, count=int(lengths.sum()),
    )
    index = {name: i for i, name in enumerate(table.names)}
    proc = np.array([index.get(owner, -1) for owner in owners], dtype=np.int64)
    suffixes = [n[len(o):] if n.startswith(o) else "?" for n, o in zip(names, owners)]
    kinds = {suffix: suffix_kind(suffix) for suffix in set(suffixes)}
    kind = [kinds[suffix] for suffix in suffixes]
    declared = [unit["is_entry"] for unit in units]
    first: Dict[str, int] = {}
    repeated = [first.setdefault(name, u) != u for u, name in enumerate(names)]

    # What the binary says, per position of a unit of a known procedure.
    unit_of = np.repeat(np.arange(len(units)), lengths)
    owner = proc[unit_of]
    real = (ids >= 0) & (ids < binary.num_blocks) & (owner >= 0)
    block = np.where(real, ids, 0)
    foreign = real & (table.proc[block] != owner)
    entry = real & (block == table.entry[np.maximum(owner, 0)])
    holds = np.bincount(unit_of[entry], minlength=len(units)) > 0
    wrong_entry = (proc >= 0) & (np.array(declared, dtype=bool) != holds)
    bad_name = np.array([k is None for k in kind], dtype=bool)
    suspect = (proc < 0) | wrong_entry | bad_name | np.array(repeated, dtype=bool)
    suspect[unit_of[foreign]] = True

    findings = []
    for u in np.flatnonzero(suspect).tolist():
        name, owner_name = names[u], owners[u]
        found = [
            ("LAY003", f"unit {name} of {owner_name!r} contains foreign block {bid} "
                       f"owned by {table.names[table.proc[bid]]!r}")
            for bid in ids[foreign & (unit_of == u)].tolist()
        ]
        if proc[u] < 0:
            found.append(("LAY003", f"unit {name} names {owner_name!r}, which is not "
                                    f"a procedure of binary {binary.name!r}"))
        if bad_name[u]:
            found.append(("LAY003", f"unit name {name!r} is not {owner_name!r} plus "
                                    "'', '.seg<k>', '.hot' or '.cold'"))
        if repeated[u]:
            found.append(("LAY003", f"unit name {name!r} repeats unit {first[name]}"))
        if wrong_entry[u]:
            found.append(("LAY004", f"unit {name} has is_entry={declared[u]}, but holds "
                                    f"{owner_name}'s entry block: {bool(holds[u])}"))
        findings += [
            Diagnostic(code, Severity.ERROR, message, target=target, location=f"unit {name}")
            for code, message in found
        ]
    if findings:
        return None, findings
    layout = Layout(
        procs=table.names, ids=ids, starts=np.cumsum(lengths) - lengths, proc=proc,
        kind=kind, pad=[unit["pad_before"] for unit in units],
        alignment=payload["alignment"], name=payload["name"],
    )
    return layout, findings
