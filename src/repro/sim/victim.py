"""Victim cache (Jouppi) next to the L1 I-cache.

A hardware alternative the architecture community weighed against
software layout: a small fully-associative buffer holding recently
evicted lines, absorbing conflict misses.  The layout-vs-hardware
benchmark asks whether a victim cache recovers what code layout
delivers (the paper's implicit argument: it cannot, because OLTP
instruction misses are mostly capacity, not conflict).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache import CacheGeometry
from repro.errors import SimulationError
from repro.sim.icache import collapse_consecutive, expand_line_runs


@dataclass
class VictimCacheResult:
    """Outcome of an L1I run with and without a victim buffer."""

    geometry: CacheGeometry
    victim_entries: int
    accesses: int
    #: Misses of the plain cache (no victim buffer).
    raw_misses: int
    #: Misses remaining with the victim buffer (refills from L2/memory).
    misses: int
    #: Raw misses absorbed by the victim buffer.
    victim_hits: int

    @property
    def conflict_fraction(self) -> float:
        """Fraction of raw misses the victim buffer absorbed -- an
        upper-bound estimate of the conflict-miss share."""
        return self.victim_hits / self.raw_misses if self.raw_misses else 0.0


def simulate_victim_cache(
    starts: np.ndarray,
    counts: np.ndarray,
    geometry: CacheGeometry,
    victim_entries: int = 16,
) -> VictimCacheResult:
    """L1 I-cache plus a fully-associative victim buffer."""
    if victim_entries < 1:
        raise SimulationError("victim cache needs at least one entry")
    line_ids, _, _, _ = expand_line_runs(starts, counts, geometry.line_bytes)
    keep = collapse_consecutive(line_ids)
    line_ids = line_ids[keep]

    nsets = geometry.num_sets
    assoc = geometry.assoc
    sets = [[] for _ in range(nsets)]
    victims: list = []  # LRU, most recent first

    raw_misses = 0
    victim_hits = 0
    for line in line_ids.tolist():
        stack = sets[line % nsets]
        if stack and stack[0] == line:
            continue
        try:
            stack.remove(line)
            stack.insert(0, line)
            continue
        except ValueError:
            pass
        raw_misses += 1
        try:
            victims.remove(line)
            victim_hits += 1
        except ValueError:
            pass
        # Install into L1; the evicted line drops into the victim buffer.
        if len(stack) >= assoc:
            evicted = stack.pop()
            victims.insert(0, evicted)
            if len(victims) > victim_entries:
                victims.pop()
        stack.insert(0, line)

    return VictimCacheResult(
        geometry=geometry,
        victim_entries=victim_entries,
        accesses=len(line_ids),
        raw_misses=raw_misses,
        misses=raw_misses - victim_hits,
        victim_hits=victim_hits,
    )
