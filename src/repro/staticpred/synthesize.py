"""Whole-binary synthesis of estimated profiles from static structure.

Gluing the per-procedure pieces together: heuristic branch
probabilities (:mod:`repro.staticpred.heuristics`) feed exact integer
flow propagation (:mod:`repro.staticpred.propagate`), driven across
the call graph in strongly-connected-component topological order.
Every call-graph root (a procedure no other procedure calls) is
seeded with the same unit budget; CALL block counts inject units into
their callees, recursion decays under the capped branch
probabilities and is cut off after a bounded number of rounds.

The synthesized :class:`~repro.profiles.Profile` mirrors what a Pixie
measurement records -- and therefore passes ``repro.check``'s
PRF001-PRF006 untouched:

* intra-procedure transitions carry exact conserving edge counts;
* a CALL block's recorded outflow is the ``call -> callee entry``
  transition (the continuation is *not* an adjacent transition in a
  measured stream: the callee runs in between);
* the continuation's inflow arrives as ``callee return -> caller
  continuation`` transitions, apportioned from each callee's RETURN
  sinks to its call sites by a deterministic greedy transportation
  fill;
* RETURN outflow deficits (root-seed units with nowhere to return
  to) and procedure-entry inflow deficits (root seeds) sit exactly on
  the measurement boundary PRF001 already exempts.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import ProfileError
from repro.ir import Binary, Terminator
from repro.profiles import Profile
from repro.staticpred.cfg import CfgInfo
from repro.staticpred.heuristics import branch_probabilities
from repro.staticpred.propagate import propagate_units

#: Flow units seeded into every call-graph root.  Large enough that
#: heuristic probabilities survive integer rounding several call
#: levels deep; small enough that counts stay far from overflow.
ROOT_UNITS = 8192

#: Injection waves propagated inside one call-graph SCC before
#: recursion is cut off.  Capped branch probabilities decay each wave
#: geometrically, so the residue dropped here is at most a handful of
#: units -- inside the PRF004 measurement slack.
MAX_SCC_ROUNDS = 64

#: Seed divisor for *cold islands*: call-graph roots that contain no
#: loop and make no call.  Code nothing references, doing no work that
#: feeds back into the program, is linker padding / banked cold code,
#: not an entry point -- it gets a trickle of flow instead of a full
#: root seed.  (Real entry points in generated OLTP/DSS binaries all
#: loop and call; see docs/STATIC.md.)
COLD_ROOT_DIVISOR = 256

#: The profile-source axis wired through scenarios, figures, the
#: online loop and the serve path.
PROFILE_SOURCES: Tuple[str, ...] = ("measured", "static", "hybrid")


def _call_graph_sccs(binary: Binary) -> List[List[str]]:
    """Call-graph SCCs in topological (callers-first) order.

    Iterative Tarjan; members of each SCC are returned in link order.
    """
    order = binary.proc_order()
    callees: Dict[str, List[str]] = {name: [] for name in order}
    for block in binary.blocks():
        if block.terminator is Terminator.CALL and block.call_target:
            callees[block.proc_name].append(block.call_target)
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0
    for root in order:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(child, len(callees[node])):
                nxt = callees[node][i]
                if nxt not in index:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                position = {name: i for i, name in enumerate(order)}
                component.sort(key=lambda name: position[name])
                sccs.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    sccs.reverse()  # Tarjan emits reverse-topological order
    return sccs


def synthesize_profile(binary: Binary, root_units: int = ROOT_UNITS) -> Profile:
    """Estimate a flow-conserving :class:`~repro.profiles.Profile`
    for a sealed binary from its CFG structure alone.

    Deterministic: the same binary always synthesizes the same
    profile.
    """
    profile = Profile(binary)
    sccs = _call_graph_sccs(binary)
    scc_of = {name: i for i, scc in enumerate(sccs) for name in scc}
    called: Set[str] = set()
    for block in binary.blocks():
        if block.terminator is Terminator.CALL and block.call_target:
            if scc_of[block.call_target] != scc_of[block.proc_name]:
                called.add(block.call_target)
    infos: Dict[str, CfgInfo] = {}
    probs: Dict[str, Dict[Tuple[int, int], float]] = {}
    entry_pending: Dict[str, int] = {}
    for scc in sccs:
        if all(name not in called for name in scc):
            for name in scc:
                proc = binary.proc(name)
                info = infos[name] = CfgInfo(proc)
                seed = root_units
                if not info.loops and all(
                    block.terminator is not Terminator.CALL
                    for block in proc.blocks
                ):
                    seed = max(1, root_units // COLD_ROOT_DIVISOR)
                entry_pending[name] = seed

    call_counts: Dict[int, int] = {}
    return_units: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    for scc in sccs:
        members = set(scc)
        for _round in range(MAX_SCC_ROUNDS):
            progressed = False
            for name in scc:
                units = entry_pending.pop(name, 0)
                if units <= 0:
                    continue
                progressed = True
                proc = binary.proc(name)
                if name not in probs:
                    if name not in infos:
                        infos[name] = CfgInfo(proc)
                    probs[name] = branch_probabilities(proc, infos[name])
                flow = propagate_units(proc, probs[name], units, infos[name])
                for bid, count in flow.counts.items():
                    counts[bid] = counts.get(bid, 0) + count
                for edge, count in flow.edges.items():
                    # A call's continuation is not an adjacent transition
                    # in a measured stream (the callee runs in between):
                    # its slot is taken by call->entry plus return->cont.
                    if binary.block(edge[0]).terminator is Terminator.CALL:
                        continue
                    profile.edge_counts[edge] += count
                for bid, count in flow.return_units.items():
                    return_units[bid] = return_units.get(bid, 0) + count
                for block in proc.blocks:
                    if block.terminator is not Terminator.CALL:
                        continue
                    delta = flow.counts.get(block.bid, 0)
                    if delta <= 0 or block.call_target is None:
                        continue
                    call_counts[block.bid] = (
                        call_counts.get(block.bid, 0) + delta
                    )
                    entry_pending[block.call_target] = (
                        entry_pending.get(block.call_target, 0) + delta
                    )
            if not progressed:
                break
        for name in members:  # recursion residue past the round cap
            entry_pending.pop(name, None)

    for bid, count in counts.items():
        profile.block_counts[bid] = count

    # call -> callee-entry transitions (what the measured stream sees).
    for bid, count in sorted(call_counts.items()):
        target = binary.block(bid).call_target
        if target is not None:
            profile.edge_counts[(bid, binary.entry_bid(target))] += count

    # callee-return -> continuation transitions: greedy transportation
    # fill from each callee's RETURN sinks to its call sites, both in
    # block-id order -- deterministic and exactly demand-bounded.
    sites: Dict[str, List[Tuple[int, int]]] = {}
    for bid, count in sorted(call_counts.items()):
        block = binary.block(bid)
        if block.call_target is not None and count > 0:
            sites.setdefault(block.call_target, []).append(
                (block.succs[0], count)
            )
    for callee, demands in sites.items():
        caps = [
            (block.bid, return_units.get(block.bid, 0))
            for block in binary.proc(callee).blocks
            if block.terminator is Terminator.RETURN
        ]
        ri = 0
        for cont_bid, demand in demands:
            while demand > 0 and ri < len(caps):
                ret_bid, available = caps[ri]
                if available <= 0:
                    ri += 1
                    continue
                moved = min(available, demand)
                profile.edge_counts[(ret_bid, cont_bid)] += moved
                caps[ri] = (ret_bid, available - moved)
                demand -= moved
            if ri >= len(caps):
                break
    return profile


def hybrid_profile(
    measured: Profile, static: Profile, prior_weight: float = 0.25
) -> Profile:
    """Blend a measured profile with a static prior.

    Each side is scaled by an *integer* factor (integer scaling
    preserves its exact flow conservation) sized so the static side
    carries about ``prior_weight`` of the measured side's total block
    weight, then the two are summed.  The result lets drift detectors
    and optimizers start from measurement while the static prior
    keeps statically-obvious structure (loop bodies, cold stubs)
    represented before sampling has covered it.
    """
    if static.binary is not measured.binary:
        raise ProfileError(
            "cannot blend profiles of different binaries"
        )
    if prior_weight <= 0.0:
        raise ProfileError("hybrid prior weight must be positive")
    m_total = max(1, measured.total_blocks_executed)
    s_total = max(1, static.total_blocks_executed)
    # Scale up whichever side is too light for the target ratio.
    m_scale, s_scale = 1, 1
    if prior_weight * m_total >= s_total:
        s_scale = max(1, round(prior_weight * m_total / s_total))
    else:
        m_scale = max(1, round(s_total / (prior_weight * m_total)))
    blended = Profile(measured.binary)
    blended.block_counts = (
        m_scale * measured.block_counts + s_scale * static.block_counts
    )
    for edge, count in measured.edge_counts.items():
        blended.edge_counts[edge] += m_scale * count
    for edge, count in static.edge_counts.items():
        blended.edge_counts[edge] += s_scale * count
    return blended
