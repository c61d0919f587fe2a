"""Reference Pettis--Hansen ordering: the oracle for repro.layout.ordering.

The ``order_units`` that :func:`repro.layout.ordering.order_units`
replaced, kept verbatim apart from its ``obs`` counters, the
``verify`` hook and its result type.  It orders the name-keyed
:class:`~tests.layout_reference.CodeUnit` lists of the reference
layout passes.  It keeps cluster state for every unit, re-pushes
every neighbour of a merged cluster onto the heap, and drops stale
heap entries by membership and weight checks.  The differential tests
in ``tests/test_ordering_oracle.py`` require the production ordering
to return the same unit order, ``merges`` and ``displacement_refusals``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.ir import Binary, INSTRUCTION_BYTES
from repro.layout.ordering import DEFAULT_MAX_DISPLACEMENT


@dataclass
class OrderingResult:
    """The ordered units, with the pass's merge and refusal counts."""

    units: list
    displacement_refusals: int = 0
    merges: int = 0


def _unit_sizes(binary: Binary, units: Sequence) -> Dict[str, int]:
    sizes = {}
    for unit in units:
        sizes[unit.name] = sum(
            binary.block(b).size for b in unit.block_ids
        ) * INSTRUCTION_BYTES
    return sizes


def _unit_heat(units: Sequence, binary: Binary, block_counts) -> Dict[str, float]:
    heat = {}
    for unit in units:
        heat[unit.name] = float(
            sum(int(block_counts[b]) * binary.block(b).size for b in unit.block_ids)
        )
    return heat


def order_units(
    binary: Binary,
    units: Sequence,
    graph,
    block_counts,
    max_displacement: int = DEFAULT_MAX_DISPLACEMENT,
) -> OrderingResult:
    """Order code units by Pettis--Hansen call-graph coalescing."""
    names = [u.name for u in units]
    original_index = {name: i for i, name in enumerate(names)}
    sizes = _unit_sizes(binary, units)
    heat = _unit_heat(units, binary, block_counts)

    # Cluster state: cluster id -> ordered list of unit names.
    clusters: Dict[int, List[str]] = {i: [name] for i, name in enumerate(names)}
    cluster_of: Dict[str, int] = {name: i for i, name in enumerate(names)}
    cluster_size: Dict[int, int] = {i: sizes[name] for i, name in enumerate(names)}
    adj: Dict[int, Dict[int, float]] = {i: {} for i in clusters}

    heap: List[Tuple[float, int, int, float]] = []
    for a, b, w in graph.edges_by_weight():
        ca, cb = cluster_of[a], cluster_of[b]
        if ca == cb:
            continue
        lo, hi = min(ca, cb), max(ca, cb)
        adj[lo][hi] = adj[lo].get(hi, 0.0) + w
        adj[hi][lo] = adj[hi].get(lo, 0.0) + w
    for lo in adj:
        for hi, w in adj[lo].items():
            if lo < hi:
                heapq.heappush(heap, (-w, lo, hi, w))

    refusals = 0
    merges = 0
    next_id = len(names)
    while heap:
        neg_w, a, b, w = heapq.heappop(heap)
        if a not in clusters or b not in clusters:
            continue  # stale entry
        if adj[a].get(b, 0.0) != w:
            continue  # weight superseded by a merge
        if cluster_size[a] + cluster_size[b] > max_displacement:
            refusals += 1
            # Drop the edge so the pair is never retried.
            adj[a].pop(b, None)
            adj[b].pop(a, None)
            continue
        left, right = _best_orientation(clusters[a], clusters[b], graph)
        merged = left + right
        cid = next_id
        next_id += 1
        clusters[cid] = merged
        cluster_size[cid] = cluster_size[a] + cluster_size[b]
        adj[cid] = {}
        for old in (a, b):
            for other, weight in adj[old].items():
                if other in (a, b):
                    continue
                adj[cid][other] = adj[cid].get(other, 0.0) + weight
        for other, weight in adj[cid].items():
            adj[other].pop(a, None)
            adj[other].pop(b, None)
            adj[other][cid] = weight
            lo, hi = min(cid, other), max(cid, other)
            heapq.heappush(heap, (-weight, lo, hi, weight))
        for name in merged:
            cluster_of[name] = cid
        del clusters[a], clusters[b]
        del adj[a], adj[b]
        del cluster_size[a], cluster_size[b]
        merges += 1

    # Final placement: clusters hottest-first (by total dynamic weight),
    # deterministic tie-break on the earliest original unit index.
    def cluster_key(item):
        cid, members = item
        total_heat = sum(heat[m] for m in members)
        return (-total_heat, min(original_index[m] for m in members))

    ordered_names: List[str] = []
    for _cid, members in sorted(clusters.items(), key=cluster_key):
        ordered_names.extend(members)

    unit_by_name = {u.name: u for u in units}
    return OrderingResult(
        units=[unit_by_name[n] for n in ordered_names],
        displacement_refusals=refusals,
        merges=merges,
    )


def _best_orientation(
    left: List[str], right: List[str], graph
) -> Tuple[List[str], List[str]]:
    """Pick the best of the four concatenations of two clusters.

    Scored by the *original* graph weight between the two units that
    become adjacent at the joint, as Pettis--Hansen prescribe.
    Orientation priority on ties: L+R, L+rev(R), rev(L)+R,
    rev(L)+rev(R) -- i.e. prefer not reversing anything.
    """
    options = (
        (left, right),
        (left, right[::-1]),
        (left[::-1], right),
        (left[::-1], right[::-1]),
    )
    best = options[0]
    best_score = graph.weight(best[0][-1], best[1][0])
    for option in options[1:]:
        score = graph.weight(option[0][-1], option[1][0])
        if score > best_score:
            best, best_score = option, score
    return best
