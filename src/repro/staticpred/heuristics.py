"""Ball-Larus-style static branch probability heuristics.

Each heuristic inspects the *structure* around a two-way branch (this
IR carries no opcodes, so every signal is structural) and, when it
applies, votes a calibrated probability for one arm.  Votes are fused
with the Dempster-Shafer evidence combination Wu and Larus used for
static profile estimation::

    combined = p*q / (p*q + (1-p)*(1-q))

The weights below started from the published Ball-Larus numbers and
were recalibrated against this repository's generated OLTP/DSS
binaries; the two deliberate departures are documented in the table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir import BasicBlock, Procedure, Terminator
from repro.staticpred.cfg import CfgInfo

#: Loop-branch heuristic: a branch where one arm re-enters the
#: innermost loop (back edge, or any arm of the loop *header*) keeps
#: iterating.  Ball-Larus: 88%.
LOOP_WEIGHT = 0.88

#: Loop-exit heuristic: a branch inside a loop body with one arm
#: leaving the loop stays in the loop.  Ball-Larus measured 80%;
#: recalibrated down -- mid-body exits in generated OLTP code are
#: early-outs (hash hit, lock fast path) that fire more often than
#: SPEC-style bounds checks.
LOOP_EXIT_WEIGHT = 0.75

#: Call heuristic: prefer the arm whose target block is not a call.
#: Ball-Larus measured 78% on SPEC-style C code, where calls behind
#: branches are error handlers; in call-saturated transaction engines
#: the signal is weak (hot paths *are* call chains), so it is
#: deliberately de-weighted to a nudge.
CALL_WEIGHT = 0.55

#: Return heuristic: prefer the arm that does not immediately return.
#: Ball-Larus: 72%.
RETURN_WEIGHT = 0.72

#: Cold-stub heuristic: prefer the arm that is not a single-entry
#: straight-line chain of bulky code ending in a return -- the shape
#: of banked/inline error handling.  Far stricter than the Ball-Larus
#: guard heuristic, hence the much higher confidence.
STUB_WEIGHT = 0.93

#: Fallthrough heuristic ("forward not taken"): compilers place the
#: expected arm on the fallthrough path of forward branches.
FALLTHROUGH_WEIGHT = 0.60

#: Probabilities are clamped to [1-cap, cap]: certainty is never
#: absolute, and the cap bounds implied loop trip counts (p/(1-p)
#: <= ~32) so flow propagation terminates quickly.  Calibration note:
#: a tighter 0.93 cap under-separates hot inner loops from the warm
#: straight-line shelf and costs several points of layout recovery.
PROB_CAP = 0.97

#: Cold-stub detection: maximum chain length followed, and the minimum
#: total instruction count before a chain counts as error-handling
#: bulk rather than a short ordinary arm.
STUB_MAX_HOPS = 16
STUB_MIN_SIZE = 8

#: (name, weight, applies-when) rows for docs/STATIC.md -- keep in
#: sync with the constants above.
HEURISTIC_TABLE: Tuple[Tuple[str, float, str], ...] = (
    ("loop-branch", LOOP_WEIGHT,
     "one arm is a back edge, or the branch is a loop header"),
    ("loop-exit", LOOP_EXIT_WEIGHT,
     "branch in a loop body with exactly one arm leaving the loop"),
    ("call", CALL_WEIGHT, "one arm's block is a call, the other's is not"),
    ("return", RETURN_WEIGHT,
     "one arm's block returns immediately, the other's does not"),
    ("cold-stub", STUB_WEIGHT,
     "one arm is a single-entry straight chain of >= 8 instructions "
     "ending in a return"),
    ("fallthrough", FALLTHROUGH_WEIGHT,
     "every forward conditional branch (forward-not-taken)"),
)


def combine(p: float, q: float) -> float:
    """Dempster-Shafer combination of two probability votes."""
    agree = p * q
    return agree / (agree + (1.0 - p) * (1.0 - q))


def _is_cold_stub(start: int, blocks: Dict[int, BasicBlock],
                  pred_count: Dict[int, int]) -> bool:
    """True when ``start`` opens a single-entry straight chain of at
    least :data:`STUB_MIN_SIZE` instructions that ends in a return --
    the compiled shape of inline or banked error-handling code."""
    bid = start
    total = 0
    for _ in range(STUB_MAX_HOPS):
        block = blocks.get(bid)
        if block is None or pred_count.get(bid, 0) > 1:
            return False
        if block.terminator is Terminator.RETURN:
            return total + block.size >= STUB_MIN_SIZE
        if block.terminator not in (
            Terminator.FALLTHROUGH, Terminator.UNCOND_BRANCH
        ):
            return False
        total += block.size
        nxt = block.succs[0]
        nxt_block = blocks.get(nxt)
        if nxt_block is not None and nxt_block.terminator is Terminator.RETURN:
            # Chain drains into a (possibly shared) epilogue: the chain
            # itself is what's cold, the epilogue is not counted.
            return total >= STUB_MIN_SIZE
        bid = nxt
    return False


def _vote_taken(block: BasicBlock, taken: int, fallthrough: int,
                info: CfgInfo, blocks: Dict[int, BasicBlock],
                pred_count: Dict[int, int]) -> float:
    """Fused probability that ``block``'s branch goes to ``taken``."""
    votes: List[float] = []
    loop = info.innermost_loop(block.bid)
    if loop is not None:
        t_in = taken in loop.body
        f_in = fallthrough in loop.body
        if t_in != f_in:
            stay_taken = t_in
            strong = (
                block.bid == loop.header
                or (block.bid, taken if stay_taken else fallthrough)
                in info.back_edges
            )
            weight = LOOP_WEIGHT if strong else LOOP_EXIT_WEIGHT
            votes.append(weight if stay_taken else 1.0 - weight)
    t_block, f_block = blocks[taken], blocks[fallthrough]
    t_call = t_block.terminator is Terminator.CALL
    f_call = f_block.terminator is Terminator.CALL
    if t_call != f_call:
        votes.append(1.0 - CALL_WEIGHT if t_call else CALL_WEIGHT)
    t_ret = t_block.terminator is Terminator.RETURN
    f_ret = f_block.terminator is Terminator.RETURN
    if t_ret != f_ret:
        votes.append(1.0 - RETURN_WEIGHT if t_ret else RETURN_WEIGHT)
    t_stub = _is_cold_stub(taken, blocks, pred_count)
    f_stub = _is_cold_stub(fallthrough, blocks, pred_count)
    if t_stub != f_stub:
        votes.append(1.0 - STUB_WEIGHT if t_stub else STUB_WEIGHT)
    if not info.is_retreating(block.bid, taken):
        votes.append(1.0 - FALLTHROUGH_WEIGHT)
    p = 0.5
    for vote in votes:
        p = combine(p, vote)
    return min(PROB_CAP, max(1.0 - PROB_CAP, p))


def branch_probabilities(
    proc: Procedure, info: Optional[CfgInfo] = None
) -> Dict[Tuple[int, int], float]:
    """Static probability of every intra-procedure CFG edge.

    Returns ``(src_bid, dst_bid) -> probability``; each block's
    outgoing probabilities sum to 1 (duplicate successors are
    aggregated).  RETURN blocks contribute nothing.
    """
    if info is None:
        info = CfgInfo(proc)
    blocks = {b.bid: b for b in proc.blocks}
    pred_count: Dict[int, int] = {}
    for block in proc.blocks:
        for dst in block.succs:
            pred_count[dst] = pred_count.get(dst, 0) + 1
    probs: Dict[Tuple[int, int], float] = {}
    for block in proc.blocks:
        if not block.succs:
            continue
        distinct = sorted(set(block.succs))
        if len(distinct) == 1:
            probs[(block.bid, distinct[0])] = 1.0
        elif block.terminator is Terminator.COND_BRANCH:
            taken, fallthrough = block.succs
            p = _vote_taken(block, taken, fallthrough, info, blocks,
                            pred_count)
            probs[(block.bid, taken)] = p
            probs[(block.bid, fallthrough)] = 1.0 - p
        else:  # INDIRECT_JUMP with several targets: uniform by arity
            share = 1.0 / len(block.succs)
            for dst in block.succs:
                probs[(block.bid, dst)] = (
                    probs.get((block.bid, dst), 0.0) + share
                )
    return probs
