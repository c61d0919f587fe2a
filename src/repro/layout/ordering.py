"""Pettis--Hansen procedure ordering (Section 2, Figure 2).

"We select the most heavily weighted edge, record that the two nodes
should be placed adjacently, collapse the two nodes into one, and merge
their edges ... until the graph is reduced to a single node.  When we
merge nodes which contain more than one procedure, we use the weights
in the original (not merged) graph to determine which of the four
possible merge endpoints is best.  In addition, special care is taken
to ensure that we rarely require a branch to span more than the maximum
branch displacement."

Units with no profiled connections stay singletons and are placed by
the same hottest-first key as the clusters, so cold code (zero heat)
ends up last, in its original order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.ir import Binary, Layout, UnitCallGraph, unit_sizes_and_heat
from repro.ir.layout import run_positions

#: Alpha conditional branches reach +/- 1 MB (21-bit word displacement).
DEFAULT_MAX_DISPLACEMENT = 1 << 20


@dataclass
class OrderingResult:
    """Outcome of the ordering pass."""

    #: The unit permutation: ``order[i]`` is the unit placed ``i``-th.
    order: np.ndarray
    #: Cluster-merge refusals due to the branch-displacement guard.
    displacement_refusals: int = 0
    #: Number of merge steps performed.
    merges: int = 0


def order_units(
    binary: Binary,
    layout: Layout,
    graph: UnitCallGraph,
    block_counts,
    max_displacement: int = DEFAULT_MAX_DISPLACEMENT,
) -> OrderingResult:
    """Order code units by Pettis--Hansen call-graph coalescing.

    Args:
        binary: The program.
        layout: Placeable units (procedures or split segments).
        graph: Unit-level call graph with original profile weights.
        block_counts: Execution counts per block id (orders the final
            clusters hottest-first).
        max_displacement: Merges that would grow a cluster beyond this
            many bytes are refused, keeping intra-cluster branches
            within reach.

    Only units with a positive edge (the hot graph) get cluster state;
    the rest stay singletons.  The heaviest live edge merges first,
    ties broken by the smaller ``(lo, hi)`` pair of cluster ids, where
    hot units keep their relative unit order and every merged cluster
    takes the next id above all earlier ones.  Renaming a cluster
    therefore only makes an edge's ``(-w, lo, hi)`` key larger, so an
    edge whose weight did not change keeps its heap entry and is
    re-keyed when popped; a merge pushes only the edges whose weight
    grew (neighbours of both clusters).
    """
    sizes, heat = unit_sizes_and_heat(binary, layout, block_counts)
    edges = graph.edges_by_weight()

    # Slot s holds one hot cluster: hot units first, in unit order (so
    # slot == initial cluster id); a merge keeps the slot with more
    # neighbours and retires the other into it (``parent``).
    hot = sorted({u for a, b, _ in edges for u in (a, b)})
    slot = {u: s for s, u in enumerate(hot)}
    members: List[Optional[List[int]]] = [[u] for u in hot]
    size = [sizes[u] for u in hot]
    adj: List[Optional[Dict[int, float]]] = [{} for _ in hot]
    cluster_id = list(range(len(hot)))  # slot -> current cluster id
    slot_of_id = list(range(len(hot)))  # cluster id -> slot at creation
    parent = list(range(len(hot)))
    heap: List[Tuple[float, int, int]] = []
    for a, b, w in edges:
        sa, sb = slot[a], slot[b]
        adj[sa][sb] = adj[sb][sa] = w
        heap.append((-w, min(sa, sb), max(sa, sb)))
    heapq.heapify(heap)

    def find(s: int) -> int:
        root = s
        while parent[root] != root:
            root = parent[root]
        while parent[s] != root:
            parent[s], s = root, parent[s]
        return root

    refusals = 0
    merges = 0
    while heap:
        neg_w, lo, hi = heapq.heappop(heap)
        sa, sb = find(slot_of_id[lo]), find(slot_of_id[hi])
        if sa == sb or adj[sa].get(sb) != -neg_w:
            continue  # merged away, refused, or superseded by a heavier edge
        a, b = cluster_id[sa], cluster_id[sb]
        if a > b:
            a, b, sa, sb = b, a, sb, sa
        if (a, b) != (lo, hi):
            heapq.heappush(heap, (neg_w, a, b))  # renamed: re-key lazily
            continue
        if size[sa] + size[sb] > max_displacement:
            refusals += 1
            # Drop the edge so the pair is never retried.
            del adj[sa][sb], adj[sb][sa]
            continue
        left, right = _best_orientation(members[sa], members[sb], graph.weight)
        keep, gone = (sa, sb) if len(adj[sa]) >= len(adj[sb]) else (sb, sa)
        kept, moved = adj[keep], adj[gone]
        del kept[gone], moved[keep]
        new_id = len(slot_of_id)
        for other, w in moved.items():
            theirs = adj[other]
            del theirs[gone]
            if other in kept:
                w = kept[other] + w
                heapq.heappush(heap, (-w, cluster_id[other], new_id))
            kept[other] = theirs[keep] = w
        members[keep] = left + right
        size[keep] += size[gone]
        cluster_id[keep] = new_id
        slot_of_id.append(keep)
        parent[gone] = keep
        members[gone] = adj[gone] = None
        merges += 1

    # Final placement: clusters hottest-first (by total dynamic weight),
    # deterministic tie-break on the earliest original unit index.  Cold
    # units are singletons keyed by their own heat and index.
    clusters = [m for s, m in enumerate(members) if parent[s] == s]
    cold = np.ones(layout.num_units, dtype=bool)
    cold[hot] = False
    cold_index = np.flatnonzero(cold)
    key_heat = np.concatenate([
        np.asarray(heat, dtype=np.float64)[cold_index],
        np.array([sum(heat[m] for m in c) for c in clusters], dtype=np.float64),
    ])
    key_index = np.concatenate([
        cold_index, np.array([min(c) for c in clusters], dtype=np.int64)
    ])
    flat = np.array(cold_index.tolist() + [m for c in clusters for m in c], dtype=np.int64)
    runs = np.array([1] * len(cold_index) + [len(c) for c in clusters], dtype=np.int64)
    order = flat[run_positions(np.cumsum(runs) - runs, runs, np.lexsort((key_index, -key_heat)))]

    obs.counter("layout.order.calls").inc()
    obs.counter("layout.order.merges").inc(merges)
    obs.counter("layout.order.displacement_refusals").inc(refusals)
    return OrderingResult(order=order, displacement_refusals=refusals, merges=merges)


def _best_orientation(
    left: List[int], right: List[int], weight: Callable[[int, int], float]
) -> Tuple[List[int], List[int]]:
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
    best_score = weight(best[0][-1], best[1][0])
    for option in options[1:]:
        score = weight(option[0][-1], option[1][0])
        if score > best_score:
            best, best_score = option, score
    return best
