"""Static-vs-measured differential analyses (the ``STA*`` family).

:mod:`repro.staticpred` predicts a profile from CFG structure alone;
these passes diff that prediction against a *measured* profile of the
same binary and report where the prediction diverges in ways that
would hurt a layout built from it: hot working sets that barely
overlap (STA001), hot branches predicted in the wrong direction
(STA002), loop-frequency rankings turned upside down (STA003), and
flow the predictor missed entirely -- on hot blocks (STA004) or
anywhere measurement sampled (STA005).

All five are advisories (warn/info): static prediction is expected to
be imperfect, and the lint exists to *quantify* the divergence, not to
fail builds over it.  The thresholds are calibrated so a self-diff
(the measured profile against itself) yields exactly zero findings --
a property the test suite pins.

The measured profile rides in ``ctx.profile``; the static one in
``ctx.cache["static_profile"]`` (see
:func:`repro.check.api.check_static_diff`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

from repro.check.diagnostics import CheckContext, Diagnostic, Severity
from repro.ir.instruction import Terminator
from repro.staticpred.cfg import CfgInfo

#: Fraction of total block weight the "hot set" covers: the smallest
#: prefix of blocks (heaviest first) whose counts reach this share.
HOT_COVERAGE = 0.90

#: STA001 fires when the Jaccard overlap of the two hot sets drops
#: below this.  Static prediction on the generated OLTP/DSS binaries
#: lands well above it; a shuffled or inverted prediction far below.
JACCARD_WARN = 0.25

#: STA002 only trusts a measured branch direction this decisive
#: (majority >= margin * minority); closer splits are noise.
DECISIVE_MARGIN = 1.5

#: STA003 calls a loop-pair ranking *inverted* only when both profiles
#: separate the pair by at least this factor, in opposite directions.
RANK_MARGIN = 2.0

#: STA003 compares only the measured-hottest loop headers pairwise.
TOP_HEADERS = 16

#: Findings emitted before a pass folds the rest into one summary line.
MAX_FINDINGS = 16


def _static_profile(ctx: CheckContext):
    return ctx.cache.get("static_profile")


def _hot_set(profile) -> Set[int]:
    """The smallest heaviest-first block set covering
    :data:`HOT_COVERAGE` of the profile's total block weight."""
    pairs: List[Tuple[int, int]] = sorted(
        ((int(count), bid)
         for bid, count in enumerate(profile.block_counts) if count > 0),
        reverse=True,
    )
    total = sum(count for count, _ in pairs)
    hot: Set[int] = set()
    accumulated = 0
    for count, bid in pairs:
        if accumulated >= HOT_COVERAGE * total:
            break
        hot.add(bid)
        accumulated += count
    return hot


def check_hot_set_divergence(ctx: CheckContext) -> Iterator[Diagnostic]:
    """STA001: the static and measured hot sets barely overlap."""
    binary, measured = ctx.binary, ctx.profile
    static = _static_profile(ctx)
    if binary is None or measured is None or static is None:
        return
    m_hot, s_hot = _hot_set(measured), _hot_set(static)
    union = m_hot | s_hot
    if not union:
        return
    jaccard = len(m_hot & s_hot) / len(union)
    if jaccard < JACCARD_WARN:
        yield Diagnostic(
            "STA001", Severity.WARN,
            f"hot sets diverge: {len(m_hot)} measured-hot vs "
            f"{len(s_hot)} static-hot blocks overlap on "
            f"{len(m_hot & s_hot)} (Jaccard {jaccard:.2f} < "
            f"{JACCARD_WARN})",
            target=ctx.target,
            hint="the static prediction concentrates flow in the wrong "
                 "code; a layout built from it will scatter the real "
                 "working set",
        )


def check_branch_directions(ctx: CheckContext) -> Iterator[Diagnostic]:
    """STA002: static prediction sends a decisively-measured hot
    branch the wrong way."""
    binary, measured = ctx.binary, ctx.profile
    static = _static_profile(ctx)
    if binary is None or measured is None or static is None:
        return
    hot = _hot_set(measured)
    emitted = 0
    for block in binary.blocks():
        if (block.bid not in hot
                or block.terminator is not Terminator.COND_BRANCH):
            continue
        taken, fallthrough = block.succs
        if taken == fallthrough:
            continue
        m_t = measured.edge_counts.get((block.bid, taken), 0)
        m_f = measured.edge_counts.get((block.bid, fallthrough), 0)
        s_t = static.edge_counts.get((block.bid, taken), 0)
        s_f = static.edge_counts.get((block.bid, fallthrough), 0)
        if m_t + m_f == 0 or s_t + s_f == 0:
            continue
        m_major, m_minor = max(m_t, m_f), min(m_t, m_f)
        if m_major < DECISIVE_MARGIN * max(1, m_minor):
            continue  # measured direction too close to call
        measured_arm = taken if m_t > m_f else fallthrough
        other_arm = fallthrough if m_t > m_f else taken
        s_measured_arm = s_t if measured_arm == taken else s_f
        s_other_arm = s_f if measured_arm == taken else s_t
        if s_measured_arm >= s_other_arm:
            continue  # static agrees (or is undecided)
        emitted += 1
        if emitted > MAX_FINDINGS:
            continue
        yield Diagnostic(
            "STA002", Severity.WARN,
            f"hot branch {block.proc_name}.{block.label} (id {block.bid}) "
            f"measured {m_major}:{m_minor} toward block {measured_arm}, "
            f"but static prediction favors block {other_arm} "
            f"({s_other_arm}:{s_measured_arm})",
            target=ctx.target, location=f"block {block.bid}",
            hint="a heuristic misfires on this branch shape; the static "
                 "layout will straighten the cold arm",
        )
    if emitted > MAX_FINDINGS:
        yield Diagnostic(
            "STA002", Severity.WARN,
            f"...and {emitted - MAX_FINDINGS} further mispredicted hot "
            "branches",
            target=ctx.target,
        )


def _loop_headers(binary) -> List[int]:
    """Every natural-loop header bid in the binary, via the same loop
    analysis the predictor itself uses."""
    headers: List[int] = []
    for name in binary.proc_order():
        info = CfgInfo(binary.proc(name))
        headers.extend(loop.header for loop in info.loops)
    return headers


def check_loop_rank_inversions(ctx: CheckContext) -> Iterator[Diagnostic]:
    """STA003: two loops whose frequency ordering flips between the
    profiles, decisively (>= :data:`RANK_MARGIN` both ways)."""
    binary, measured = ctx.binary, ctx.profile
    static = _static_profile(ctx)
    if binary is None or measured is None or static is None:
        return
    headers = [h for h in _loop_headers(binary) if measured.count(h) > 0]
    headers.sort(key=lambda bid: (-measured.count(bid), bid))
    top = headers[:TOP_HEADERS]
    emitted = 0
    for i, hot_bid in enumerate(top):
        for cool_bid in top[i + 1:]:
            m_hot, m_cool = measured.count(hot_bid), measured.count(cool_bid)
            s_hot, s_cool = static.count(hot_bid), static.count(cool_bid)
            if (m_hot >= RANK_MARGIN * m_cool
                    and s_cool >= RANK_MARGIN * max(1, s_hot)):
                emitted += 1
                if emitted > MAX_FINDINGS:
                    continue
                hot_block = binary.block(hot_bid)
                cool_block = binary.block(cool_bid)
                yield Diagnostic(
                    "STA003", Severity.WARN,
                    f"loop ranking inverted: header "
                    f"{hot_block.proc_name}.{hot_block.label} measured "
                    f"{m_hot}x vs {cool_block.proc_name}."
                    f"{cool_block.label} {m_cool}x, but static predicts "
                    f"{s_hot}x vs {s_cool}x",
                    target=ctx.target, location=f"block {hot_bid}",
                    hint="trip-count heuristics rank these loops "
                         "backwards; the hotter loop body will be "
                         "placed colder",
                )
    if emitted > MAX_FINDINGS:
        yield Diagnostic(
            "STA003", Severity.WARN,
            f"...and {emitted - MAX_FINDINGS} further loop-rank "
            "inversions",
            target=ctx.target,
        )


def check_static_cold_hot(ctx: CheckContext) -> Iterator[Diagnostic]:
    """STA004: measured-hot blocks the static profile left at zero,
    aggregated per procedure."""
    binary, measured = ctx.binary, ctx.profile
    static = _static_profile(ctx)
    if binary is None or measured is None or static is None:
        return
    hot = _hot_set(measured)
    misses: Dict[str, int] = defaultdict(int)
    weight: Dict[str, int] = defaultdict(int)
    for bid in hot:
        if static.count(bid) == 0:
            block = binary.block(bid)
            misses[block.proc_name] += 1
            weight[block.proc_name] += measured.count(bid)
    for name in sorted(misses):
        yield Diagnostic(
            "STA004", Severity.WARN,
            f"{misses[name]} measured-hot block(s) of {name!r} "
            f"({weight[name]} executions) carry zero static flow",
            target=ctx.target, location=f"procedure {name}",
            hint="the predictor never routes flow here (dead root "
                 "demotion or a mispredicted call chain); this hot "
                 "code lands in the static layout's cold tail",
        )


def check_unreached_sampled(ctx: CheckContext) -> Iterator[Diagnostic]:
    """STA005: blocks measurement sampled (outside the hot set --
    those are STA004) that static flow never reaches, per procedure."""
    binary, measured = ctx.binary, ctx.profile
    static = _static_profile(ctx)
    if binary is None or measured is None or static is None:
        return
    hot = _hot_set(measured)
    misses: Dict[str, int] = defaultdict(int)
    for block in binary.blocks():
        if (block.bid not in hot and measured.count(block.bid) > 0
                and static.count(block.bid) == 0):
            misses[block.proc_name] += 1
    for name in sorted(misses):
        yield Diagnostic(
            "STA005", Severity.INFO,
            f"{misses[name]} sampled block(s) of {name!r} are "
            "statically unreached (zero predicted flow)",
            target=ctx.target, location=f"procedure {name}",
        )
