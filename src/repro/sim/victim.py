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
from repro.sim.icache import collapsed_lines, lru_pass


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
    lines = collapsed_lines(starts, counts, geometry.line_bytes)
    miss_at, evicted = lru_pass(lines, geometry.num_sets, geometry.assoc)

    # The buffer only changes on L1 misses: a miss probes it, then the
    # line the L1 evicted drops in.
    victims: list = []  # LRU, most recent first
    victim_hits = 0
    for line, out in zip(lines[miss_at].tolist(), evicted.tolist()):
        try:
            victims.remove(line)
            victim_hits += 1
        except ValueError:
            pass
        if out >= 0:
            victims.insert(0, out)
            if len(victims) > victim_entries:
                victims.pop()

    return VictimCacheResult(
        geometry=geometry,
        victim_entries=victim_entries,
        accesses=len(lines),
        raw_misses=len(miss_at),
        misses=len(miss_at) - victim_hits,
        victim_hits=victim_hits,
    )
