"""Instruction cache simulators.

Two engines over the same span representation (per trace entry: start
address + instructions fetched):

* :func:`direct_mapped_misses` -- vectorized, counts misses only;
  the per-cell reference for the batched Figure 4/5 sweeps.
* :class:`ICacheSim` -- set-associative LRU with the paper's detailed
  locality metrics (word usage, reuse, lifetimes, app/kernel
  interference); used for Figures 6, 7, 9-13.

These are the simulation engines; callers compose them through the
:mod:`repro.sim` facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.cache.stats import APP, KERNEL, InterferenceMatrix, LocalityStats
from repro.ir import INSTRUCTION_BYTES
from repro.osmodel.kernel import KERNEL_BASE


@dataclass(frozen=True)
class CacheGeometry:
    """Size / line size / associativity of one cache."""

    size_bytes: int
    line_bytes: int
    assoc: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise SimulationError(
                f"cache {self.size_bytes}B cannot be divided into "
                f"{self.assoc}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // INSTRUCTION_BYTES

    def __str__(self) -> str:
        way = "direct-mapped" if self.assoc == 1 else f"{self.assoc}-way"
        return f"{self.size_bytes // 1024}KB/{self.line_bytes}B/{way}"


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
    ends = starts + counts * INSTRUCTION_BYTES  # exclusive
    first_line = starts // line_bytes
    last_line = (ends - 1) // line_bytes
    lines_per_span = (last_line - first_line + 1).astype(np.int64)
    total = int(lines_per_span.sum())
    # Offsets of each run within its span: 0..lines_per_span-1.
    span_of_run = np.repeat(np.arange(len(starts)), lines_per_span)
    run_start = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(lines_per_span[:-1], out=run_start[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(run_start, lines_per_span)
    line_ids = first_line[span_of_run] + within
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


def direct_mapped_misses(
    starts: np.ndarray, counts: np.ndarray, geometry: CacheGeometry
) -> int:
    """Vectorized direct-mapped miss count for one stream (the classic
    whole-stream engine)."""
    if geometry.assoc != 1:
        raise SimulationError("direct_mapped_misses needs assoc=1")
    line_ids, _, _, _ = expand_line_runs(starts, counts, geometry.line_bytes)
    keep = collapse_consecutive(line_ids)
    line_ids = line_ids[keep]
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
    #: Distinct lines touched (footprint, in lines).
    unique_lines: int = 0


class ICacheSim:
    """Set-associative LRU instruction cache with detailed metrics."""

    def __init__(self, geometry: CacheGeometry, detail: bool = False) -> None:
        self.geometry = geometry
        self.detail = detail
        nsets = geometry.num_sets
        # Per-set LRU stacks, most recent first.  Plain mode: lists of
        # line ids.  Detail mode: lists of [line, load_clock, counts].
        self._sets = [[] for _ in range(nsets)]
        self._clock = 0
        self.result = ICacheResult(
            geometry=geometry,
            locality=LocalityStats(words_per_line=geometry.words_per_line)
            if detail
            else None,
        )
        self._touched: set = set()

    # -- feeding ------------------------------------------------------------

    def access_stream(self, starts: np.ndarray, counts: np.ndarray) -> None:
        """Run one stream (already in program order) through the cache.

        Totals feed the ``icache.accesses``/``icache.misses`` counters;
        when a series window is configured (``repro.obs``), the stream
        is chunked into windows of that many line accesses and each
        window's miss rate lands on the ``icache.window_miss_rate``
        series — a time-resolved view of locality over the run.
        """
        line_ids, word_lo, word_hi, _ = expand_line_runs(
            starts, counts, self.geometry.line_bytes
        )
        accesses0 = self.result.accesses
        misses0 = self.result.misses
        window = obs.series_window()
        if not self.detail:
            keep = collapse_consecutive(line_ids)
            kept = line_ids[keep]
            if window and len(kept) > window:
                for lo in range(0, len(kept), window):
                    before = self.result.misses
                    chunk = kept[lo : lo + window]
                    self._run_plain(chunk)
                    obs.series("icache.window_miss_rate").record(
                        (self.result.misses - before) / len(chunk)
                    )
            else:
                self._run_plain(kept)
        else:
            if window and len(line_ids) > window:
                for lo in range(0, len(line_ids), window):
                    before = self.result.misses
                    hi = lo + window
                    self._run_detailed(
                        line_ids[lo:hi], word_lo[lo:hi], word_hi[lo:hi]
                    )
                    obs.series("icache.window_miss_rate").record(
                        (self.result.misses - before)
                        / len(line_ids[lo:hi])
                    )
            else:
                self._run_detailed(line_ids, word_lo, word_hi)
        obs.counter("icache.accesses").inc(self.result.accesses - accesses0)
        obs.counter("icache.misses").inc(self.result.misses - misses0)
        self._touched.update(np.unique(line_ids).tolist())
        self.result.unique_lines = len(self._touched)

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _space(line_id: int, line_bytes: int) -> str:
        return KERNEL if line_id * line_bytes >= KERNEL_BASE else APP

    def _run_plain(self, line_ids: np.ndarray) -> None:
        nsets = self.geometry.num_sets
        assoc = self.geometry.assoc
        sets = self._sets
        kernel_line = KERNEL_BASE // self.geometry.line_bytes
        misses = 0
        misses_app = 0
        misses_kernel = 0
        interference = self.result.interference
        inter_counts = interference.counts
        inter_cold = interference.cold
        for line in line_ids.tolist():
            stack = sets[line % nsets]
            if stack and stack[0] == line:
                continue
            try:
                stack.remove(line)
            except ValueError:
                misses += 1
                missing = KERNEL if line >= kernel_line else APP
                if missing is APP:
                    misses_app += 1
                else:
                    misses_kernel += 1
                if len(stack) >= assoc:
                    victim = stack.pop()
                    owner = KERNEL if victim >= kernel_line else APP
                    inter_counts[missing][owner] += 1
                else:
                    inter_cold[missing] += 1
            stack.insert(0, line)
        self.result.accesses += len(line_ids)
        self.result.misses += misses
        self.result.misses_app += misses_app
        self.result.misses_kernel += misses_kernel

    def _run_detailed(self, line_ids, word_lo, word_hi) -> None:
        nsets = self.geometry.num_sets
        assoc = self.geometry.assoc
        sets = self._sets
        words_per_line = self.geometry.words_per_line
        kernel_line = KERNEL_BASE // self.geometry.line_bytes
        result = self.result
        interference = result.interference
        locality = result.locality
        clock = self._clock
        lows = word_lo.tolist()
        highs = word_hi.tolist()
        for i, line in enumerate(line_ids.tolist()):
            clock += 1
            result.accesses += 1
            stack = sets[line % nsets]
            entry = None
            for pos, candidate in enumerate(stack):
                if candidate[0] == line:
                    entry = candidate
                    if pos:
                        del stack[pos]
                        stack.insert(0, entry)
                    break
            if entry is not None:
                counts = entry[2]
                for word in range(lows[i], highs[i] + 1):
                    counts[word] += 1
                continue
            result.misses += 1
            missing = KERNEL if line >= kernel_line else APP
            if missing is APP:
                result.misses_app += 1
            else:
                result.misses_kernel += 1
            if len(stack) >= assoc:
                victim = stack.pop()
                owner = KERNEL if victim[0] >= kernel_line else APP
                interference.record(missing, owner)
                locality.record_replacement(
                    np.asarray(victim[2], dtype=np.int64), clock - victim[1]
                )
            else:
                interference.record_cold(missing)
            counts = [0] * words_per_line
            for word in range(lows[i], highs[i] + 1):
                counts[word] = 1
            stack.insert(0, [line, clock, counts])
        self._clock = clock

    def finish(self) -> ICacheResult:
        """Flush resident lines into the locality stats and return."""
        if self.detail:
            locality = self.result.locality
            for stack in self._sets:
                for entry in stack:
                    locality.record_replacement(
                        np.asarray(entry[2], dtype=np.int64),
                        self._clock - entry[1],
                    )
        return self.result


def lru_result(
    streams: List[Tuple[np.ndarray, np.ndarray]],
    geometry: CacheGeometry,
    detail: bool = False,
) -> ICacheResult:
    """Simulate per-CPU private caches and merge the results.

    ``streams`` holds one (starts, counts) pair per CPU; each CPU gets
    its own cache (the paper's configuration) and the counts are summed.
    """
    merged: Optional[ICacheResult] = None
    for starts, counts in streams:
        sim = ICacheSim(geometry, detail=detail)
        sim.access_stream(starts, counts)
        result = sim.finish()
        if merged is None:
            merged = result
        else:
            merged.misses += result.misses
            merged.accesses += result.accesses
            merged.misses_app += result.misses_app
            merged.misses_kernel += result.misses_kernel
            merged.unique_lines += result.unique_lines
            for missing in (APP, KERNEL):
                merged.interference.cold[missing] += result.interference.cold[missing]
                for owner in (APP, KERNEL):
                    merged.interference.counts[missing][owner] += (
                        result.interference.counts[missing][owner]
                    )
            if detail:
                merged.locality.unique_words += result.locality.unique_words
                merged.locality.word_reuse += result.locality.word_reuse
                merged.locality.lifetimes += result.locality.lifetimes
                merged.locality.lines_loaded += result.locality.lines_loaded
                merged.locality.words_loaded += result.locality.words_loaded
                merged.locality.words_used += result.locality.words_used
    if merged is None:
        raise SimulationError("no streams supplied")
    return merged

