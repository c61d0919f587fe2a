"""Simple L1 data cache (set-associative LRU) over data address streams."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.cache import CacheGeometry


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
    nsets = geometry.num_sets
    assoc = geometry.assoc
    tags = np.full((nsets, assoc), -1, dtype=np.int64)
    line_ids = addresses // geometry.line_bytes
    misses = 0
    miss_addr = []
    miss_pos = []
    if positions is None:
        positions = np.arange(len(addresses), dtype=np.int64)
    for i, line in enumerate(line_ids.tolist()):
        set_idx = line % nsets
        row = tags[set_idx]
        hit = False
        for way in range(assoc):
            if row[way] == line:
                if way:
                    value = row[way]
                    row[1 : way + 1] = row[:way]
                    row[0] = value
                hit = True
                break
        if not hit:
            misses += 1
            miss_addr.append(line * geometry.line_bytes)
            miss_pos.append(int(positions[i]))
            row[1:assoc] = row[: assoc - 1]
            row[0] = line
    return DCacheResult(
        geometry=geometry,
        misses=misses,
        accesses=len(addresses),
        miss_addresses=np.asarray(miss_addr, dtype=np.int64),
        miss_positions=np.asarray(miss_pos, dtype=np.int64),
    )

