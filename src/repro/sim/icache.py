"""Instruction cache simulators.

Two engines over the same span representation (per trace entry: start
address + instructions fetched):

* :func:`direct_mapped_misses` -- vectorized, counts misses only;
  the per-cell reference for the batched Figure 4/5 sweeps.
* :func:`lru_pass` -- the one set-associative LRU walk.  It returns
  each miss's index and the line that miss evicted; every associative
  level (:func:`lru_result` here, and the L1I refill stream, L1D, L2,
  iTLB, victim cache and stream buffers beside it) derives its result
  from those two arrays.  :func:`lru_result` adds the paper's detailed
  locality metrics (word usage, reuse, lifetimes) and the app/kernel
  interference matrix used for Figures 6, 7, 9-13.

These are the simulation engines; callers compose them through the
:mod:`repro.sim` facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.cache import CacheGeometry
from repro.errors import SimulationError
from repro.ir import INSTRUCTION_BYTES, KERNEL_BASE
from repro.sim.stats import APP, KERNEL, InterferenceMatrix, LocalityStats


def span_lines(
    starts: np.ndarray, counts: np.ndarray, line_bytes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(line_ids, span_of_line)``: every line touched by each span, in
    fetch order, and the span that touched it (all ``counts > 0``)."""
    ends = starts + counts * INSTRUCTION_BYTES  # exclusive
    first_line = starts // line_bytes
    lines_per_span = ((ends - 1) // line_bytes - first_line + 1).astype(np.int64)
    total = int(lines_per_span.sum())
    # Offsets of each run within its span: 0..lines_per_span-1.
    span_of_run = np.repeat(np.arange(len(starts)), lines_per_span)
    run_start = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(lines_per_span[:-1], out=run_start[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(run_start, lines_per_span)
    return first_line[span_of_run] + within, span_of_run


def lru_pass(
    lines: np.ndarray, num_sets: int, assoc: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One LRU walk over ``lines`` in ``num_sets`` sets of ``assoc`` ways.

    Returns ``(miss_at, victims)``: the index of every access that
    missed, ascending, and the line each miss evicted (-1 when its set
    was not yet full).  Lines map to set ``line % num_sets``.

    Sets are independent, so the accesses are stably sorted by set and
    walked one set after another.  An access repeating its set's
    previous line hits the MRU way and changes nothing, so it is
    dropped before the walk; with one way every remaining access misses
    and evicts its set predecessor, which needs no walk at all.
    """
    if num_sets < 1:
        raise SimulationError(f"lru_pass needs num_sets >= 1, got {num_sets}")
    if assoc < 1:
        raise SimulationError(f"lru_pass needs assoc >= 1, got {assoc}")
    n = len(lines)
    if num_sets == 1:
        order = np.arange(n)
    else:
        key = lines % num_sets
        if num_sets <= 1 << 16:
            key = key.astype(np.uint16)  # numpy radix-sorts 16-bit keys
        order = np.argsort(key, kind="stable")
    walk = np.asarray(lines[order], dtype=np.int64)
    # A line has one set, so an equal predecessor is in the same set.
    changed = np.ones(n, dtype=bool)
    changed[1:] = walk[1:] != walk[:-1]
    kept = np.nonzero(changed)[0]
    walk = walk[kept]
    first = np.zeros(len(walk), dtype=bool)  # the first access of its set
    first[:1] = True
    if num_sets > 1:
        sets = walk % num_sets
        first[1:] = sets[1:] != sets[:-1]
    if assoc == 1:
        missed = kept
        victims = np.where(first, -1, np.roll(walk, 1))
    else:
        miss_list = []
        victim_list = []
        seq = walk.tolist()
        bounds = np.nonzero(first)[0].tolist() + [len(seq)]
        for lo, hi in zip(bounds, bounds[1:]):
            stack: List[int] = []  # most recent first
            for i in range(lo, hi):
                line = seq[i]
                if line in stack:
                    stack.remove(line)
                else:
                    miss_list.append(i)
                    victim_list.append(stack.pop() if len(stack) >= assoc else -1)
                stack.insert(0, line)
        missed = kept[np.asarray(miss_list, dtype=np.int64)]
        victims = np.asarray(victim_list, dtype=np.int64)
    miss_at = order[missed]
    if num_sets > 1:
        ascending = np.argsort(miss_at)
        miss_at, victims = miss_at[ascending], victims[ascending]
    return miss_at, victims


def record_window_miss_rates(name: str, miss_at: np.ndarray, accesses: int) -> None:
    """Record each window's miss rate on the ``name`` series.

    The window is ``obs.series_window()`` accesses; every window is
    recorded, the partial last one included, and only when the stream
    is longer than one window.
    """
    window = obs.series_window()
    if not window or accesses <= window:
        return
    per_window = np.bincount(miss_at // window, minlength=-(-accesses // window))
    series = obs.series(name)
    for index, misses in enumerate(per_window.tolist()):
        series.record(misses / min(window, accesses - index * window))


def expand_line_runs(
    starts: np.ndarray, counts: np.ndarray, line_bytes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand fetch spans into per-line access runs.

    Returns ``(line_ids, word_lo, word_hi, span_index)``: for each line
    touched by each span (in order), the line id, the inclusive word
    range used within the line, and the owning span's index.
    """
    mask = counts > 0
    starts = starts[mask]
    counts = counts[mask]
    span_index = np.nonzero(mask)[0]
    if len(starts) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    line_ids, span_of_run = span_lines(starts, counts, line_bytes)
    ends = starts + counts * INSTRUCTION_BYTES
    words_per_line = line_bytes // INSTRUCTION_BYTES
    line_word0 = line_ids * words_per_line
    span_word_lo = (starts // INSTRUCTION_BYTES)[span_of_run]
    span_word_hi = ((ends // INSTRUCTION_BYTES) - 1)[span_of_run]
    word_lo = np.maximum(span_word_lo, line_word0) - line_word0
    word_hi = np.minimum(span_word_hi, line_word0 + words_per_line - 1) - line_word0
    return line_ids, word_lo, word_hi, span_index[span_of_run]


def collapse_consecutive(line_ids: np.ndarray) -> np.ndarray:
    """Indices of accesses starting a new-line run (consecutive repeats
    of the same line can never miss and are dropped)."""
    if len(line_ids) == 0:
        return np.zeros(0, dtype=np.int64)
    keep = np.ones(len(line_ids), dtype=bool)
    keep[1:] = line_ids[1:] != line_ids[:-1]
    return np.nonzero(keep)[0]


def collapsed_lines(
    starts: np.ndarray, counts: np.ndarray, line_bytes: int
) -> np.ndarray:
    """Every line the spans fetch, in order, consecutive repeats
    collapsed: the input of the levels that need no word ranges."""
    mask = counts > 0
    line_ids, _ = span_lines(starts[mask], counts[mask], line_bytes)
    return line_ids[collapse_consecutive(line_ids)]


def direct_mapped_misses(
    starts: np.ndarray, counts: np.ndarray, geometry: CacheGeometry
) -> int:
    """Vectorized direct-mapped miss count for one stream (the classic
    whole-stream engine)."""
    if geometry.assoc != 1:
        raise SimulationError("direct_mapped_misses needs assoc=1")
    line_ids = collapsed_lines(starts, counts, geometry.line_bytes)
    if len(line_ids) == 0:
        return 0
    nsets = geometry.num_sets
    sets = line_ids % nsets
    # Stable sort by set preserves program order within each set; a
    # miss is any access whose predecessor *in the same set* held a
    # different line (or no line at all).
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = line_ids[order]
    new_set = np.ones(len(order), dtype=bool)
    new_set[1:] = sorted_sets[1:] != sorted_sets[:-1]
    changed = np.ones(len(order), dtype=bool)
    changed[1:] = sorted_lines[1:] != sorted_lines[:-1]
    return int((new_set | changed).sum())




@dataclass
class ICacheResult:
    """Outcome of a set-associative simulation."""

    geometry: CacheGeometry
    misses: int = 0
    accesses: int = 0
    misses_app: int = 0
    misses_kernel: int = 0
    interference: InterferenceMatrix = field(default_factory=InterferenceMatrix)
    locality: Optional[LocalityStats] = None


def _attribute(
    result: ICacheResult, missed: np.ndarray, victims: np.ndarray, kernel_line: int
) -> None:
    """Split misses by address space and charge every eviction to the
    victim's owner (the app/kernel interference matrix)."""
    missing = (missed >= kernel_line).astype(np.int64)
    # Per miss: 0 = displaced nothing, 1 = an app line, 2 = a kernel line.
    owner = np.where(victims < 0, 0, 1 + (victims >= kernel_line))
    cells = np.bincount(3 * missing + owner, minlength=6).tolist()
    matrix = result.interference
    for row, space in enumerate((APP, KERNEL)):
        cold, app, kernel = cells[3 * row : 3 * row + 3]
        matrix.cold[space] += cold
        matrix.counts[space][APP] += app
        matrix.counts[space][KERNEL] += kernel
    result.misses_app += sum(cells[:3])
    result.misses_kernel += sum(cells[3:])


def _record_locality(
    locality: LocalityStats,
    line_ids: np.ndarray,
    word_lo: np.ndarray,
    word_hi: np.ndarray,
    loads: np.ndarray,
    victims: np.ndarray,
) -> None:
    """Record every residency of one stream (Figs. 9-11).

    ``loads`` holds the stream index of each miss and ``victims`` the
    line it evicted.  A residency runs from the miss that loads a line
    to the later miss that evicts it, or to the end of the stream; its
    lifetime counts accesses between the two.
    """
    n = len(line_ids)
    m = len(loads)
    width = locality.words_per_line + 1
    # Each access belongs to its line's latest load: forward-fill the
    # load index over the line's accesses in sorted order.  A line's
    # first access always misses, so the fill never crosses lines.
    order = np.argsort(line_ids, kind="stable")
    residency_at = np.full(n, -1, dtype=np.int64)
    residency_at[loads] = np.arange(m)
    sorted_residency = residency_at[order]
    fill = np.where(sorted_residency >= 0, np.arange(n), 0)
    np.maximum.accumulate(fill, out=fill)
    residency = sorted_residency[fill] * width
    # Per-residency word counts from a difference array over words.
    diff = np.bincount(residency + word_lo[order], minlength=m * width)
    diff -= np.bincount(residency + word_hi[order] + 1, minlength=m * width)
    word_counts = np.cumsum(diff.reshape(m, width), axis=1)[:, :-1]
    # The i-th eviction of a line ends that line's i-th residency.
    loaded = line_ids[loads]
    by_line = np.argsort(loaded, kind="stable")
    evicting = np.nonzero(victims >= 0)[0]
    ev_order = np.argsort(victims[evicting], kind="stable")
    ev_lines = victims[evicting][ev_order]
    rank = np.arange(len(ev_lines)) - np.searchsorted(ev_lines, ev_lines)
    ended = by_line[np.searchsorted(loaded[by_line], ev_lines) + rank]
    end = np.full(m, n - 1, dtype=np.int64)
    end[ended] = loads[evicting[ev_order]]
    locality.record_residencies(word_counts, end - loads)


def lru_result(
    streams: List[Tuple[np.ndarray, np.ndarray]],
    geometry: CacheGeometry,
    detail: bool = False,
) -> ICacheResult:
    """Simulate per-CPU private caches and merge the results.

    ``streams`` holds one (starts, counts) pair per CPU; each CPU gets
    its own cache (the paper's configuration) and the counts are summed.
    Totals feed the ``icache.accesses``/``icache.misses`` counters and,
    with a series window configured (``repro.obs``), each window's miss
    rate lands on the ``icache.window_miss_rate`` series.  Plain runs
    count accesses after :func:`collapse_consecutive`; ``detail`` runs
    count every line access and record the paper's locality metrics.
    """
    result = ICacheResult(
        geometry=geometry,
        locality=LocalityStats(words_per_line=geometry.words_per_line)
        if detail
        else None,
    )
    kernel_line = KERNEL_BASE // geometry.line_bytes
    simulated = False
    for starts, counts in streams:
        simulated = True
        if detail:
            line_ids, word_lo, word_hi, _ = expand_line_runs(
                starts, counts, geometry.line_bytes
            )
            keep = collapse_consecutive(line_ids)
            runs = line_ids[keep]
        else:
            runs = collapsed_lines(starts, counts, geometry.line_bytes)
        miss_at, victims = lru_pass(runs, geometry.num_sets, geometry.assoc)
        if detail:
            loads = keep[miss_at]
            accesses = len(line_ids)
            _record_locality(
                result.locality, line_ids, word_lo, word_hi, loads, victims
            )
        else:
            loads = miss_at
            accesses = len(runs)
        record_window_miss_rates("icache.window_miss_rate", loads, accesses)
        _attribute(result, runs[miss_at], victims, kernel_line)
        result.accesses += accesses
        result.misses += len(miss_at)
        obs.counter("icache.accesses").inc(accesses)
        obs.counter("icache.misses").inc(len(miss_at))
    if not simulated:
        raise SimulationError("no streams supplied")
    return result
