"""Instruction TLB simulator (fully- or set-associative, LRU)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError

#: Alpha page size: 8 KB.
PAGE_BYTES = 8192


@dataclass
class TlbResult:
    entries: int
    misses: int
    accesses: int
    unique_pages: int


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
    touched: set = set()
    for starts, counts in streams:
        mask = counts > 0
        s = starts[mask]
        c = counts[mask]
        if len(s) == 0:
            continue
        first = s // page_bytes
        last = (s + c * 4 - 1) // page_bytes
        # Spans rarely cross pages; expand the few that do.
        pages_per_span = last - first + 1
        if int(pages_per_span.max(initial=1)) == 1:
            pages = first
        else:
            span_of = np.repeat(np.arange(len(s)), pages_per_span)
            offsets = np.arange(int(pages_per_span.sum())) - np.repeat(
                np.concatenate([[0], np.cumsum(pages_per_span)[:-1]]), pages_per_span
            )
            pages = first[span_of] + offsets
        keep = np.ones(len(pages), dtype=bool)
        keep[1:] = pages[1:] != pages[:-1]
        pages = pages[keep]
        touched.update(np.unique(pages).tolist())
        # LRU over a small entry count: ordered list, most recent first.
        # With an obs series window configured, the page stream is cut
        # into windows and each window's miss rate is recorded.
        window = obs.series_window()
        page_list = pages.tolist()
        chunks = (
            [page_list[i : i + window] for i in range(0, len(page_list), window)]
            if window and len(page_list) > window
            else [page_list]
        )
        lru: List[int] = []
        for chunk in chunks:
            before = total_misses
            for page in chunk:
                total_accesses += 1
                try:
                    lru.remove(page)
                except ValueError:
                    total_misses += 1
                    if len(lru) >= entries:
                        lru.pop()
                lru.insert(0, page)
            if len(chunks) > 1:
                obs.series("itlb.window_miss_rate").record(
                    (total_misses - before) / len(chunk)
                )
    obs.counter("itlb.accesses").inc(total_accesses)
    obs.counter("itlb.misses").inc(total_misses)
    return TlbResult(
        entries=entries,
        misses=total_misses,
        accesses=total_accesses,
        unique_pages=len(touched),
    )

