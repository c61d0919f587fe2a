"""Instruction TLB simulator (fully- or set-associative, LRU)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.sim.icache import collapsed_lines, lru_pass, record_window_miss_rates

#: Alpha page size: 8 KB.
PAGE_BYTES = 8192


@dataclass
class TlbResult:
    """Outcome of one iTLB run, summed over the per-CPU TLBs."""

    entries: int
    misses: int
    accesses: int


def itlb_result(
    streams: List[Tuple[np.ndarray, np.ndarray]],
    entries: int = 64,
    page_bytes: int = PAGE_BYTES,
) -> TlbResult:
    """Fully-associative LRU iTLB, one per CPU, results summed.

    ``streams`` holds (starts, counts) fetch spans per CPU; the TLB sees
    the page of every line fetched (consecutive same-page accesses
    collapse, which cannot change LRU miss counts).
    """
    if entries < 1:
        raise SimulationError("iTLB needs at least one entry")
    total_misses = 0
    total_accesses = 0
    for starts, counts in streams:
        pages = collapsed_lines(starts, counts, page_bytes)
        miss_at, _ = lru_pass(pages, 1, entries)
        record_window_miss_rates("itlb.window_miss_rate", miss_at, len(pages))
        total_accesses += len(pages)
        total_misses += len(miss_at)
    obs.counter("itlb.accesses").inc(total_accesses)
    obs.counter("itlb.misses").inc(total_misses)
    return TlbResult(entries=entries, misses=total_misses, accesses=total_accesses)
