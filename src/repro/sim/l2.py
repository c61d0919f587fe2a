"""Shared unified L2 cache fed by L1 instruction and data miss streams."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.cache import CacheGeometry
from repro.ir import DATA_BASE
from repro.sim.icache import (
    collapse_consecutive,
    lru_pass,
    record_window_miss_rates,
    span_lines,
)


def simulate_l1i_misses(
    starts: np.ndarray, counts: np.ndarray, geometry: CacheGeometry
) -> Tuple[np.ndarray, np.ndarray]:
    """L1I refill stream: (line addresses, block-trace positions)."""
    mask = counts > 0
    line_ids, span_of_line = span_lines(starts[mask], counts[mask], geometry.line_bytes)
    keep = collapse_consecutive(line_ids)
    miss_at, _ = lru_pass(line_ids[keep], geometry.num_sets, geometry.assoc)
    missed = keep[miss_at]
    spans = np.nonzero(mask)[0][span_of_line[missed]]
    return line_ids[missed] * geometry.line_bytes, spans


@dataclass
class L2Result:
    """Outcome of one shared-L2 run, misses split by refill source."""

    geometry: CacheGeometry
    accesses: int
    misses_instr: int
    misses_data: int

    @property
    def misses(self) -> int:
        """Instruction plus data misses."""
        return self.misses_instr + self.misses_data


#: Alpha page size for physical indexing (8 KB).
_PAGE_SHIFT = 13


class FirstTouchMapper:
    """Virtual-to-physical page mapping by first-touch frame allocation.

    Board-level and L2 caches are physically indexed; modeling the OS's
    frame allocator prevents artificial virtual-address alignment
    between the application and kernel images from dominating a
    direct-mapped cache.
    """

    def __init__(self) -> None:
        self._frames: dict = {}
        self._next = 0

    def translate(self, addresses: np.ndarray) -> np.ndarray:
        """Physical addresses, giving each unseen page the next frame."""
        pages, first, inverse = np.unique(
            addresses >> _PAGE_SHIFT, return_index=True, return_inverse=True
        )
        table = self._frames
        frames = np.array([table.get(page, -1) for page in pages.tolist()], dtype=np.int64)
        unseen = np.nonzero(frames < 0)[0]
        unseen = unseen[np.argsort(first[unseen])]  # first-touch order
        frames[unseen] = np.arange(self._next, self._next + len(unseen))
        table.update(zip(pages[unseen].tolist(), frames[unseen].tolist()))
        self._next += len(unseen)
        offsets = addresses & ((1 << _PAGE_SHIFT) - 1)
        return (frames[inverse] << _PAGE_SHIFT) | offsets


def l2_result(
    refill_streams: List[Tuple[np.ndarray, np.ndarray]],
    geometry: CacheGeometry,
    physical: bool = True,
) -> L2Result:
    """One shared L2 over merged refill streams.

    ``refill_streams`` holds per-CPU (addresses, positions) pairs (both
    L1I and L1D refills); streams are interleaved by position, which
    approximates global time since positions index each CPU's
    block-trace progress.  With ``physical=True`` (the default),
    addresses go through first-touch page-frame allocation before
    indexing the cache.
    """
    addr_parts = []
    pos_parts = []
    cpu_parts = []
    for cpu, (addresses, positions) in enumerate(refill_streams):
        addr_parts.append(addresses)
        pos_parts.append(positions)
        cpu_parts.append(np.full(len(addresses), cpu, dtype=np.int64))
    addresses = np.concatenate(addr_parts) if addr_parts else np.zeros(0, np.int64)
    positions = np.concatenate(pos_parts) if pos_parts else np.zeros(0, np.int64)
    cpus = np.concatenate(cpu_parts) if cpu_parts else np.zeros(0, np.int64)
    order = np.lexsort((cpus, positions))
    addresses = addresses[order]
    is_data = addresses >= DATA_BASE
    if physical:
        addresses = FirstTouchMapper().translate(addresses)

    miss_at, _ = lru_pass(
        addresses // geometry.line_bytes, geometry.num_sets, geometry.assoc
    )
    misses_data = int(is_data[miss_at].sum())
    misses_instr = len(miss_at) - misses_data
    record_window_miss_rates("l2.window_miss_rate", miss_at, len(addresses))
    obs.counter("l2.accesses").inc(len(addresses))
    obs.counter("l2.misses_instr").inc(misses_instr)
    obs.counter("l2.misses_data").inc(misses_data)
    return L2Result(
        geometry=geometry,
        accesses=len(addresses),
        misses_instr=misses_instr,
        misses_data=misses_data,
    )

