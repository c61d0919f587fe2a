"""Shared unified L2 cache fed by L1 instruction and data miss streams."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.cache.icache import CacheGeometry, collapse_consecutive, expand_line_runs
from repro.execution.mp import DATA_BASE


def simulate_l1i_misses(
    starts: np.ndarray, counts: np.ndarray, geometry: CacheGeometry
) -> Tuple[np.ndarray, np.ndarray]:
    """L1I refill stream: (line addresses, block-trace positions)."""
    line_ids, _lo, _hi, span_index = expand_line_runs(
        starts, counts, geometry.line_bytes
    )
    keep = collapse_consecutive(line_ids)
    line_ids = line_ids[keep]
    span_index = span_index[keep]
    nsets = geometry.num_sets
    assoc = geometry.assoc
    tags = np.full((nsets, assoc), -1, dtype=np.int64)
    miss_addr = []
    miss_pos = []
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
            miss_addr.append(line * geometry.line_bytes)
            miss_pos.append(int(span_index[i]))
            row[1:assoc] = row[: assoc - 1]
            row[0] = line
    return (
        np.asarray(miss_addr, dtype=np.int64),
        np.asarray(miss_pos, dtype=np.int64),
    )


@dataclass
class L2Result:
    geometry: CacheGeometry
    accesses: int
    misses_instr: int
    misses_data: int

    @property
    def misses(self) -> int:
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
        pages = addresses >> _PAGE_SHIFT
        offsets = addresses & ((1 << _PAGE_SHIFT) - 1)
        frames = np.empty(len(addresses), dtype=np.int64)
        table = self._frames
        for i, page in enumerate(pages.tolist()):
            frame = table.get(page)
            if frame is None:
                frame = self._next
                self._next += 1
                table[page] = frame
            frames[i] = frame
        return (frames << _PAGE_SHIFT) | offsets


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

    nsets = geometry.num_sets
    assoc = geometry.assoc
    tags = np.full((nsets, assoc), -1, dtype=np.int64)
    line_ids = addresses // geometry.line_bytes
    misses_instr = 0
    misses_data = 0
    # With an obs series window configured, record each window's
    # combined miss rate on the ``l2.window_miss_rate`` series.
    window = obs.series_window()
    window_start = 0
    window_misses = 0
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
            if is_data[i]:
                misses_data += 1
            else:
                misses_instr += 1
            if window:
                window_misses += 1
            row[1:assoc] = row[: assoc - 1]
            row[0] = line
        if window and i + 1 - window_start >= window:
            obs.series("l2.window_miss_rate").record(
                window_misses / (i + 1 - window_start)
            )
            window_start = i + 1
            window_misses = 0
    obs.counter("l2.accesses").inc(len(addresses))
    obs.counter("l2.misses_instr").inc(misses_instr)
    obs.counter("l2.misses_data").inc(misses_data)
    return L2Result(
        geometry=geometry,
        accesses=len(addresses),
        misses_instr=misses_instr,
        misses_data=misses_data,
    )

