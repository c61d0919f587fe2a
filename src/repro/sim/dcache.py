"""Simple L1 data cache (set-associative LRU) over data address streams."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.cache import CacheGeometry
from repro.sim.icache import lru_pass


@dataclass
class DCacheResult:
    """Outcome of one L1D run, with its refill stream for the L2."""

    geometry: CacheGeometry
    misses: int
    accesses: int
    #: Addresses (line-aligned) that missed, with their input positions
    #: preserved so an L2 simulation can merge I and D miss streams.
    miss_addresses: np.ndarray = None
    miss_positions: np.ndarray = None


def dcache_result(
    addresses: np.ndarray,
    geometry: CacheGeometry,
    positions: np.ndarray = None,
) -> DCacheResult:
    """Run one data-address stream through an L1D, keeping the miss
    stream (refill addresses) for the L2."""
    lines = addresses // geometry.line_bytes
    miss_at, _ = lru_pass(lines, geometry.num_sets, geometry.assoc)
    if positions is None:
        positions = np.arange(len(addresses), dtype=np.int64)
    return DCacheResult(
        geometry=geometry,
        misses=len(miss_at),
        accesses=len(addresses),
        miss_addresses=lines[miss_at] * geometry.line_bytes,
        miss_positions=positions[miss_at],
    )
