"""Basic block chaining (Section 2, Figure 1a).

Spike's greedy algorithm: sort flow edges by weight, heaviest first.
For each edge, if the source block has no chain successor yet and the
destination has no chain predecessor yet (and joining would not close a
cycle), chain the two blocks.  The resulting chains are sorted by the
execution count of their first block; the chain containing the
procedure entry is placed first.

Chaining biases conditional branches to be not taken and lets the
address assigner delete unconditional branches whose targets become
adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.check.structural import verify_chaining
from repro.ir import FlowGraph, Procedure


@dataclass
class ChainingResult:
    """Chains of one procedure, in placement order.

    ``chains[0]`` always contains the procedure entry block; the rest
    are in decreasing first-block execution count.  ``block_order``
    is the concatenation -- the within-procedure layout order.
    """

    proc_name: str
    chains: List[List[int]]

    @property
    def block_order(self) -> List[int]:
        order: List[int] = []
        for chain in self.chains:
            order.extend(chain)
        return order


class _ChainSet:
    """Union of disjoint chains supporting the greedy edge test."""

    def __init__(self, block_ids: Sequence[int]) -> None:
        # Every block starts as a singleton chain.
        self._next: Dict[int, Optional[int]] = {b: None for b in block_ids}
        self._prev: Dict[int, Optional[int]] = {b: None for b in block_ids}
        self._head: Dict[int, int] = {b: b for b in block_ids}  # block -> chain head

    def can_join(self, src: int, dst: int) -> bool:
        if self._next[src] is not None or self._prev[dst] is not None:
            return False
        # Joining src's chain tail to dst's chain head closes a cycle
        # only if both are in the same chain.
        return self._head[src] != self._head[dst]

    def join(self, src: int, dst: int) -> None:
        self._next[src] = dst
        self._prev[dst] = src
        head = self._head[src]
        # Relabel dst's chain with src's head.
        walker: Optional[int] = dst
        while walker is not None:
            self._head[walker] = head
            walker = self._next[walker]

    def chains(self) -> List[List[int]]:
        """Materialize chains, in first-seen head order."""
        result: List[List[int]] = []
        seen = set()
        for block, prev in self._prev.items():
            if prev is not None or block in seen:
                continue
            chain = []
            walker: Optional[int] = block
            while walker is not None:
                chain.append(walker)
                seen.add(walker)
                walker = self._next[walker]
            result.append(chain)
        return result


def chain_blocks(
    proc: Procedure, graph: FlowGraph, block_counts, verify: bool = False
) -> ChainingResult:
    """Chain the blocks of one procedure.

    Args:
        proc: Procedure to chain (must be sealed -- blocks have ids).
        graph: Its flow graph with profile weights.
        block_counts: Array of execution counts indexed by block id,
            used to order the finished chains.
        verify: Assert the chaining contract (permutation, entry chain
            first) before returning; raises
            :class:`~repro.errors.LayoutError` on violation.
    """
    ids = [b.bid for b in proc.blocks]
    chains = _ChainSet(ids)
    joins = 0
    for edge in graph.edges_by_weight():
        if edge.weight <= 0:
            break  # never chain on unexecuted edges
        if chains.can_join(edge.src, edge.dst):
            chains.join(edge.src, edge.dst)
            joins += 1

    entry = proc.entry.bid
    built = chains.chains()
    obs.counter("layout.chain.procedures").inc()
    obs.counter("layout.chain.blocks").inc(len(ids))
    obs.counter("layout.chain.joins").inc(joins)
    obs.counter("layout.chain.chains").inc(len(built))
    entry_chain = next(c for c in built if entry in c)
    rest = [c for c in built if c is not entry_chain]
    # Decreasing execution count of the chain's first block; ties break
    # on source order (block id) for determinism.
    rest.sort(key=lambda c: (-int(block_counts[c[0]]), c[0]))
    result = ChainingResult(proc_name=proc.name, chains=[entry_chain] + rest)
    if verify:
        verify_chaining(proc, result)
    return result
