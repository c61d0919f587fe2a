"""Layout-quality lints (the ``QLT*`` family) -- advisory only.

These are the paper's §3 placement heuristics turned into "smell"
detectors: none of them makes a layout *incorrect*, but each one marks
a spot where the layout is leaving fetch locality on the table (a hot
edge that now needs a taken branch, cold bytes polluting a hot cache
line stream, a hot loop straddling a page, hot lines fighting over a
direct-mapped cache set).  All findings are INFO severity and capped so
a deliberately unoptimized baseline layout stays readable.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.check.diagnostics import CheckContext, Diagnostic, Severity
from repro.ir.instruction import INSTRUCTION_BYTES, Terminator
from repro.ir.layout import run_positions

#: Page size used for the iTLB-hazard lint (the paper's 8 KB pages).
PAGE_BYTES = 8 * 1024
#: Direct-mapped I-cache geometry for the conflict lint (paper §4:
#: 8 KB direct-mapped, 32-byte lines -- the 21064/21164 L1).
CACHE_BYTES = 8 * 1024
LINE_BYTES = 32
#: A block/edge is "hot" when it carries at least this fraction of the
#: profile's hottest block count.
HOT_FRACTION = 0.10
#: ...and "cold" below this fraction.
COLD_FRACTION = 0.001
#: Findings reported per lint before the remainder is summarized.
REPORT_CAP = 12


def _thresholds(profile) -> Tuple[float, float]:
    peak = float(profile.block_counts.max()) if len(profile.block_counts) else 0.0
    return max(1.0, HOT_FRACTION * peak), COLD_FRACTION * peak


def _capped(findings: List[Diagnostic], code: str, target: str) -> Iterator[Diagnostic]:
    yield from findings[:REPORT_CAP]
    if len(findings) > REPORT_CAP:
        yield Diagnostic(
            code, Severity.INFO,
            f"...and {len(findings) - REPORT_CAP} further occurrences",
            target=target,
        )


def check_hot_fallthroughs(ctx: CheckContext) -> Iterator[Diagnostic]:
    """QLT001: a hot measured transition that the layout turned into a
    taken branch.  Chaining exists precisely to make the hot arm of
    every branch sequential (paper §3.1); a hot non-fall-through is a
    missed straightening."""
    binary, profile, amap = ctx.binary, ctx.profile, ctx.address_map
    if binary is None or profile is None or amap is None:
        return
    hot, _ = _thresholds(profile)
    findings: List[Diagnostic] = []
    for (src, dst), count in sorted(profile.edge_counts.items()):
        if count < hot:
            continue
        block = binary.block(src)
        if dst not in block.succs:
            continue  # call/return transfer: adjacency is not the goal
        if block.terminator not in (Terminator.FALLTHROUGH, Terminator.COND_BRANCH):
            continue
        if not amap.is_sequential(src, dst):
            findings.append(Diagnostic(
                "QLT001", Severity.INFO,
                f"hot edge {block.proc_name}.{block.label} -> block {dst} "
                f"({count}x) is a taken branch in this layout",
                target=ctx.target, location=f"edge {src}->{dst}",
                hint="chain these blocks so the hot path falls through",
            ))
    yield from _capped(findings, "QLT001", ctx.target)


def check_cold_in_hot(ctx: CheckContext) -> Iterator[Diagnostic]:
    """QLT002: a cold block sitting between two hot blocks of the same
    unit -- its bytes ride along in every fetch of the surrounding hot
    stream (the dilution fine-grain splitting removes, paper §3.2)."""
    binary, profile, layout = ctx.binary, ctx.profile, ctx.layout
    if binary is None or profile is None or layout is None:
        return
    hot, cold = _thresholds(profile)
    ids = layout.ids
    counts = profile.block_counts[ids]
    # Interior positions of a unit: neither its first nor its last block.
    interior = np.ones(len(ids), dtype=bool)
    interior[layout.starts] = False
    interior[layout.starts + layout.lengths - 1] = False
    diluted = np.zeros(len(ids), dtype=bool)
    diluted[1:-1] = (counts[1:-1] <= cold) & (counts[:-2] >= hot) & (counts[2:] >= hot)
    positions = np.flatnonzero(interior & diluted)
    findings: List[Diagnostic] = []
    for pos, u in zip(positions.tolist(), layout.position_unit[positions].tolist()):
        block = binary.block(int(ids[pos]))
        before, count, after = counts[pos - 1:pos + 2].tolist()
        findings.append(Diagnostic(
            "QLT002", Severity.INFO,
            f"cold block {block.proc_name}.{block.label} "
            f"({count}x) interleaved between hot neighbours "
            f"({before}x / {after}x)",
            target=ctx.target, location=f"unit {layout.unit_name(u)}",
            hint="split the cold block into a cold segment",
        ))
    yield from _capped(findings, "QLT002", ctx.target)


def check_page_crossing_loops(ctx: CheckContext) -> Iterator[Diagnostic]:
    """QLT003: a hot loop whose body straddles a page boundary costs an
    extra iTLB entry on every iteration."""
    binary, profile, amap = ctx.binary, ctx.profile, ctx.address_map
    if binary is None or profile is None or amap is None:
        return
    hot, _ = _thresholds(profile)
    findings: List[Diagnostic] = []
    for (src, dst), count in sorted(profile.edge_counts.items()):
        if count < hot:
            continue
        block = binary.block(src)
        if dst not in block.succs:
            continue
        head, tail = int(amap.addr[dst]), amap.end_addr(src)
        if head < tail and (head // PAGE_BYTES) != ((tail - 1) // PAGE_BYTES):
            findings.append(Diagnostic(
                "QLT003", Severity.INFO,
                f"hot loop {block.proc_name}: blocks {dst}..{src} ({count}x) "
                f"span {head:#x}..{tail:#x}, crossing a {PAGE_BYTES // 1024} KB "
                f"page boundary",
                target=ctx.target, location=f"edge {src}->{dst}",
                hint="placing the loop within one page avoids the extra iTLB entry",
            ))
    yield from _capped(findings, "QLT003", ctx.target)


def check_conflict_smells(ctx: CheckContext) -> Iterator[Diagnostic]:
    """QLT004: several distinct hot regions mapping onto the same
    direct-mapped cache set -- the conflict misses the paper's ordering
    pass (§3.3) exists to avoid."""
    binary, profile, layout, amap = ctx.binary, ctx.profile, ctx.layout, ctx.address_map
    if binary is None or profile is None or layout is None or amap is None:
        return
    hot, _ = _thresholds(profile)
    n_sets = CACHE_BYTES // LINE_BYTES
    # Which hot units touch each cache set?
    ids, starts = layout.ids, layout.starts
    hot_units = np.flatnonzero(np.maximum.reduceat(profile.block_counts[ids], starts) >= hot)
    block_end = amap.addr[ids] + amap.n_fetch[ids].astype(np.int64) * INSTRUCTION_BYTES
    start = amap.unit_starts[hot_units]
    last = np.maximum(start, np.maximum.reduceat(block_end, starts)[hot_units] - 1)
    first, lines = start // LINE_BYTES, last // LINE_BYTES - start // LINE_BYTES + 1
    cache_set = run_positions(first, lines, np.arange(len(lines))) % n_sets
    pairs = np.unique(cache_set * layout.num_units + np.repeat(hot_units, lines))
    cache_set, unit = pairs // layout.num_units, pairs % layout.num_units
    bounds = np.flatnonzero(np.diff(cache_set, prepend=-1, append=n_sets + 1))
    findings: List[Diagnostic] = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if hi - lo < 3:
            continue
        units = sorted(layout.unit_name(u) for u in unit[lo:hi].tolist())
        findings.append(Diagnostic(
            "QLT004", Severity.INFO,
            f"{len(units)} hot units collide in cache set {int(cache_set[lo])}: "
            f"{', '.join(units[:4])}{', ...' if len(units) > 4 else ''}",
            target=ctx.target, location=f"set {int(cache_set[lo])}",
            hint="order the colliding units closer together to spread their sets",
        ))
    yield from _capped(findings, "QLT004", ctx.target)
