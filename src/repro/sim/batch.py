"""Batched single-pass direct-mapped sweep engine.

The Figure 4/5 grid evaluates |sizes| x |line sizes| direct-mapped
geometries over the same fetch-span streams.  The classic path pays the
span-to-line expansion and a stable argsort *per cell*; this engine
pays them once per (chunk, line size) and reuses the work across every
cache size sharing that line size:

* **Chunked traversal** -- :func:`iter_chunks` cuts each stream into
  spans totalling at most ``chunk_instructions``, splitting fetch spans
  at chunk boundaries, so the working set stays cache-resident while
  per-geometry miss state is carried across chunks.
* **Shared expansion** -- each chunk is expanded to line ids once per
  line size (no word ranges, no span indices) and consecutive repeats
  collapse with the previous chunk's last line carried over; every
  cache size with that line size consumes the same array.
* **Sort refinement** -- a direct-mapped cache with ``2n`` sets groups
  accesses by one more address bit than one with ``n`` sets.  The
  stable order for the smallest size is computed with one argsort;
  each doubling is derived by a stable single-bit partition, which is
  O(n) instead of another sort.
* **Carried state** -- per-geometry ``last line per set`` arrays
  (initialized to -1, the classic cold-cache semantics) make the
  per-chunk miss counts sum to exactly the whole-stream answer: the
  batched grid is bit-identical to the classic per-cell engine.

Fan-out is per CPU stream (not per cell): the stream list travels as
the map's ``shared=`` state, so forked workers read the parent's arrays
copy-on-write instead of re-pickling them per cell.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cache import CacheGeometry
from repro.errors import SimulationError
from repro.ir import INSTRUCTION_BYTES
from repro.pipeline.fanout import parallel_map, shared_state
from repro.sim.icache import direct_mapped_misses, span_lines

#: Default chunk budget (instructions) for the batched traversal --
#: large enough that quick-experiment streams stay one chunk, small
#: enough that paper-scale expansions stay memory-friendly.
DEFAULT_CHUNK_INSTRUCTIONS = 1 << 20

#: Engines :func:`simulate_grid` accepts.
ENGINES = ("batched", "classic")


def iter_chunks(
    starts: np.ndarray, counts: np.ndarray, chunk_instructions: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Cut one stream into span chunks of at most ``chunk_instructions``.

    Fetch spans straddling a boundary are split: a span fetching ``c``
    instructions from ``a`` becomes ``(a, j)`` and ``(a + 4j, c - j)``,
    so the concatenated chunks fetch exactly the original line sequence
    (the boundary line appears in both parts and collapses away).
    """
    if chunk_instructions < 1:
        raise SimulationError(
            f"chunk_instructions must be >= 1, got {chunk_instructions}"
        )
    mask = counts > 0
    starts = starts[mask]
    counts = counts[mask]
    if len(starts) == 0:
        return
    cum = np.cumsum(counts)
    total = int(cum[-1])
    if total <= chunk_instructions:
        yield starts, counts
        return
    cum0 = cum - counts
    for lo in range(0, total, chunk_instructions):
        hi = min(lo + chunk_instructions, total)
        first = int(np.searchsorted(cum, lo, side="right"))
        last = int(np.searchsorted(cum0, hi, side="left")) - 1
        chunk_starts = starts[first : last + 1].copy()
        chunk_counts = counts[first : last + 1].copy()
        skip = lo - int(cum0[first])
        if skip:
            chunk_starts[0] += skip * INSTRUCTION_BYTES
            chunk_counts[0] -= skip
        overshoot = int(cum[last]) - hi
        if overshoot:
            chunk_counts[-1] -= overshoot
        yield chunk_starts, chunk_counts


def _count_chunk(
    sorted_sets: np.ndarray, sorted_lines: np.ndarray, state: np.ndarray
) -> int:
    """Misses of one chunk against carried per-set state (updated)."""
    n = len(sorted_lines)
    miss = np.empty(n, dtype=bool)
    miss[0] = True
    miss[1:] = sorted_lines[1:] != sorted_lines[:-1]
    new_set = np.empty(n, dtype=bool)
    new_set[0] = True
    new_set[1:] = sorted_sets[1:] != sorted_sets[:-1]
    group_start = np.nonzero(new_set)[0]
    start_sets = sorted_sets[group_start]
    # The predecessor of each set's first access lives in the carried
    # state, not in this chunk.
    miss[group_start] = state[start_sets] != sorted_lines[group_start]
    group_end = np.empty(len(group_start), dtype=np.int64)
    group_end[:-1] = group_start[1:] - 1
    group_end[-1] = n - 1
    state[start_sets] = sorted_lines[group_end]
    return int(miss.sum())


def _group_geometries(
    sizes: Sequence[int], line_sizes: Sequence[int]
) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """``[(line_bytes, [(size, nsets), ...])]`` with sizes ascending;
    validates every (size, line) pair via :class:`CacheGeometry`."""
    groups = []
    for line in line_sizes:
        geoms = []
        for size in sorted(sizes):
            geoms.append((size, CacheGeometry(size, line, 1).num_sets))
        groups.append((line, geoms))
    return groups


def _refinable(nsets: int, prev_nsets: int) -> bool:
    ratio, rem = divmod(nsets, prev_nsets)
    return rem == 0 and ratio >= 2 and (ratio & (ratio - 1)) == 0


def _batched_stream_grid(
    starts: np.ndarray,
    counts: np.ndarray,
    groups: List[Tuple[int, List[Tuple[int, int]]]],
    chunk_instructions: int,
) -> Tuple[Dict[Tuple[int, int], int], int, List[int]]:
    """One stream through every geometry: ``({(size, line): misses},
    chunks processed, per-expansion batch occupancies)``."""
    states = {
        (line, nsets): np.full(nsets, -1, dtype=np.int64)
        for line, geoms in groups
        for _size, nsets in geoms
    }
    misses = {
        (size, line): 0 for line, geoms in groups for size, _nsets in geoms
    }
    carry = {line: -1 for line, _geoms in groups}
    chunks = 0
    occupancy: List[int] = []
    for chunk_starts, chunk_counts in iter_chunks(
        starts, counts, chunk_instructions
    ):
        chunks += 1
        for line, geoms in groups:
            lines, _ = span_lines(chunk_starts, chunk_counts, line)
            if len(lines) == 0:  # defensive; chunks always fetch
                continue
            keep = np.empty(len(lines), dtype=bool)
            keep[0] = lines[0] != carry[line]
            keep[1:] = lines[1:] != lines[:-1]
            carry[line] = int(lines[-1])
            lines = lines[keep]
            occupancy.append(len(geoms))
            if len(lines) == 0:
                continue
            order: Optional[np.ndarray] = None
            sorted_lines: Optional[np.ndarray] = None
            prev_nsets = 0
            for size, nsets in geoms:
                if order is not None and _refinable(nsets, prev_nsets):
                    # Stable single-bit partitions: the order for 2n
                    # sets is the order for n sets with the bit-0 group
                    # kept ahead of the bit-1 group.
                    grouped = prev_nsets
                    while grouped < nsets:
                        low = (sorted_lines // grouped) & 1 == 0
                        order = np.concatenate([order[low], order[~low]])
                        sorted_lines = np.concatenate(
                            [sorted_lines[low], sorted_lines[~low]]
                        )
                        grouped *= 2
                else:
                    order = np.argsort(lines % nsets, kind="stable")
                    sorted_lines = lines[order]
                prev_nsets = nsets
                misses[(size, line)] += _count_chunk(
                    sorted_lines % nsets, sorted_lines, states[(line, nsets)]
                )
    return misses, chunks, occupancy


# -- fan-out tasks ------------------------------------------------------------
#
# Both engines hand ``(streams, groups, chunk_instructions)`` to
# ``parallel_map`` as ``shared=`` state: the batched engine fans per
# stream, the classic engine per cell.  Not ``resilient_map``: a
# profiler wrapping it would move grid worker time out of this layer.


def _batched_worker(index: int):
    streams, groups, chunk_instructions = shared_state()
    return _batched_stream_grid(*streams[index], groups, chunk_instructions)


def _classic_worker(cell: Tuple[int, int]) -> int:
    size, line = cell
    geometry = CacheGeometry(size, line, 1)
    return sum(
        direct_mapped_misses(starts, counts, geometry)
        for starts, counts in shared_state()[0]
    )


def simulate_grid(
    streams: Iterable[Tuple[np.ndarray, np.ndarray]],
    sizes: Sequence[int],
    line_sizes: Sequence[int],
    *,
    jobs: Optional[int] = None,
    chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
    engine: str = "batched",
) -> Dict[Tuple[int, int], int]:
    """Direct-mapped miss counts over a size x line-size grid.

    Returns ``{(size_bytes, line_bytes): misses}`` summed over the
    per-CPU streams.  ``engine="batched"`` (default) runs the
    single-pass engine above, fanned per stream; ``engine="classic"``
    runs the reference per-cell engine, fanned per cell.  Both return
    bit-identical counts; classic remains for cross-checking and as
    the degenerate path for exotic geometry lists.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; valid engines: {', '.join(ENGINES)}"
        )
    stream_list = list(streams)
    if not stream_list:
        raise SimulationError("no streams supplied")
    groups = _group_geometries(sizes, line_sizes)
    shared = (stream_list, groups, chunk_instructions)
    if engine == "classic":
        cells = [(size, line) for size in sizes for line in line_sizes]
        counts = parallel_map(_classic_worker, cells, jobs=jobs, shared=shared)
        return dict(zip(cells, counts))
    per_stream = parallel_map(
        _batched_worker, range(len(stream_list)), jobs=jobs, shared=shared
    )
    grid: Dict[Tuple[int, int], int] = {
        (size, line): 0 for line, geoms in groups for size, _nsets in geoms
    }
    total_chunks = 0
    for misses, chunks, occupancy in per_stream:
        total_chunks += chunks
        for key, count in misses.items():
            grid[key] += count
        for batch in occupancy:
            obs.series("sim.batch_occupancy").record(batch)
    obs.counter("sim.chunks").inc(total_chunks)
    return grid
