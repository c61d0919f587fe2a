"""Instruction stream buffers (Jouppi-style) next to the L1 I-cache.

The paper's discussion cites Ranganathan et al.: a 4-element
instruction stream buffer is effective for database workloads, and
"code layout optimizations ... can be used to enhance the efficiency
of instruction stream buffers by increasing instruction sequence
lengths".  This module lets us test that claim directly.

Model: on an L1 miss the stream buffers are probed; a hit promotes the
line to L1 and the buffer continues prefetching sequentially.  A miss
in both allocates a new stream buffer (LRU victim) which starts
prefetching the lines after the missing one.  Prefetches are modeled
as instantaneous (an upper bound on the benefit, as in trace-driven
prefetch studies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.cache import CacheGeometry
from repro.errors import SimulationError
from repro.sim.icache import collapse_consecutive, expand_line_runs


@dataclass
class StreamBufferResult:
    """Outcome of an L1I run backed by instruction stream buffers."""

    geometry: CacheGeometry
    num_buffers: int
    depth: int
    accesses: int
    #: L1 misses without any stream buffer.
    raw_misses: int
    #: Misses remaining after stream-buffer hits (the refills that had
    #: to go to L2/memory).
    misses: int
    #: Raw misses that hit in a stream buffer.
    stream_hits: int

    @property
    def coverage(self) -> float:
        """Fraction of would-be misses covered by the stream buffers."""
        return self.stream_hits / self.raw_misses if self.raw_misses else 0.0


class _StreamBuffer:
    __slots__ = ("next_line", "remaining")

    def __init__(self, depth: int) -> None:
        self.next_line = -1
        self.remaining = 0

    def covers(self, line: int) -> bool:
        return self.remaining > 0 and line == self.next_line

    def advance(self) -> None:
        self.next_line += 1
        self.remaining -= 1

    def restart(self, line: int, depth: int) -> None:
        self.next_line = line + 1
        self.remaining = depth


def simulate_stream_buffers(
    starts: np.ndarray,
    counts: np.ndarray,
    geometry: CacheGeometry,
    num_buffers: int = 4,
    depth: int = 4,
) -> StreamBufferResult:
    """L1 I-cache plus ``num_buffers`` sequential stream buffers.

    Only the head of each buffer is matched (classic stream buffer):
    a miss on the head line hits the buffer, promotes the line into
    the cache, and the buffer advances.
    """
    if num_buffers < 1 or depth < 1:
        raise SimulationError("need at least one stream buffer of depth 1")
    line_ids, _, _, _ = expand_line_runs(starts, counts, geometry.line_bytes)
    keep = collapse_consecutive(line_ids)
    line_ids = line_ids[keep]

    nsets = geometry.num_sets
    assoc = geometry.assoc
    sets: List[List[int]] = [[] for _ in range(nsets)]
    buffers = [_StreamBuffer(depth) for _ in range(num_buffers)]
    lru: List[int] = list(range(num_buffers))

    raw_misses = 0
    stream_hits = 0
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
        hit_buffer = -1
        for index, buffer in enumerate(buffers):
            if buffer.covers(line):
                hit_buffer = index
                break
        if hit_buffer >= 0:
            stream_hits += 1
            buffers[hit_buffer].advance()
            lru.remove(hit_buffer)
            lru.insert(0, hit_buffer)
        else:
            victim = lru.pop()
            buffers[victim].restart(line, depth)
            lru.insert(0, victim)
        if len(stack) >= assoc:
            stack.pop()
        stack.insert(0, line)

    return StreamBufferResult(
        geometry=geometry,
        num_buffers=num_buffers,
        depth=depth,
        accesses=len(line_ids),
        raw_misses=raw_misses,
        misses=raw_misses - stream_hits,
        stream_hits=stream_hits,
    )
