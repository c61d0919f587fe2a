"""Shared statistic containers for the cache simulators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

#: Address spaces for interference attribution.
APP = "application"
KERNEL = "kernel"


@dataclass
class InterferenceMatrix:
    """Miss attribution: who missed x who owned the displaced line.

    ``counts[missing_space][owner_space]`` plus cold misses (no line
    displaced) per missing space.
    """

    counts: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: {APP: {APP: 0, KERNEL: 0}, KERNEL: {APP: 0, KERNEL: 0}}
    )
    cold: Dict[str, int] = field(default_factory=lambda: {APP: 0, KERNEL: 0})

    def record(self, missing: str, owner: str) -> None:
        """Count one miss by ``missing`` that evicted ``owner``'s line."""
        self.counts[missing][owner] += 1

    def misses(self, missing: str) -> int:
        """All misses by one address space, cold ones included."""
        return sum(self.counts[missing].values()) + self.cold[missing]


@dataclass
class LocalityStats:
    """Per-line locality metrics (paper Figures 9, 10, 11).

    One entry per residency: a line's stay in the cache from the miss
    that loads it to its eviction, or to the end of the stream for
    lines still resident (see :func:`repro.sim.lru_result`).
    """

    words_per_line: int = 32
    #: Histogram over 1..words_per_line of unique words used per
    #: replacement (Fig 9).
    unique_words: np.ndarray = None
    #: Histogram over 0..reuse_cap of per-word use counts (Fig 10).
    word_reuse: np.ndarray = None
    reuse_cap: int = 15
    #: Histogram over log2 lifetime buckets 0..lifetime_cap (Fig 11),
    #: lifetime measured in cache accesses.
    lifetimes: np.ndarray = None
    lifetime_cap: int = 34
    lines_loaded: int = 0
    words_loaded: int = 0
    words_used: int = 0

    def __post_init__(self) -> None:
        if self.unique_words is None:
            self.unique_words = np.zeros(self.words_per_line + 1, dtype=np.int64)
        if self.word_reuse is None:
            self.word_reuse = np.zeros(self.reuse_cap + 1, dtype=np.int64)
        if self.lifetimes is None:
            self.lifetimes = np.zeros(self.lifetime_cap + 1, dtype=np.int64)

    def record_residencies(
        self, word_counts: np.ndarray, lifetimes: np.ndarray
    ) -> None:
        """Account a batch of line residencies.

        ``word_counts`` has one row per residency: how often each word
        of the line was fetched while it was resident; ``lifetimes``
        holds each residency's length in cache accesses.
        """
        used = (word_counts > 0).sum(axis=1)
        self.unique_words += np.bincount(used, minlength=self.words_per_line + 1)
        self.lines_loaded += len(lifetimes)
        self.words_loaded += word_counts.size
        self.words_used += int(used.sum())
        capped = np.minimum(word_counts, self.reuse_cap).ravel()
        self.word_reuse += np.bincount(capped, minlength=self.reuse_cap + 1)
        # frexp's exponent is the bit length of an integer lifetime.
        bits = np.frexp(np.asarray(lifetimes, dtype=np.float64))[1]
        buckets = np.clip(bits - 1, 0, self.lifetime_cap)
        self.lifetimes += np.bincount(buckets, minlength=self.lifetime_cap + 1)

    @property
    def unused_fraction(self) -> float:
        """Fraction of fetched words never used before replacement."""
        if self.words_loaded == 0:
            return 0.0
        return 1.0 - self.words_used / self.words_loaded

    def unique_words_fractions(self) -> np.ndarray:
        """Fig 9 series: fraction of replacements per unique-word count."""
        total = max(1, int(self.unique_words.sum()))
        return self.unique_words / total

    def word_reuse_fractions(self) -> np.ndarray:
        """Fig 10 series: fraction of loaded words per use count."""
        total = max(1, int(self.word_reuse.sum()))
        return self.word_reuse / total

    def lifetime_fractions(self) -> np.ndarray:
        """Fig 11 series: fraction of replacements per log2 bucket."""
        total = max(1, int(self.lifetimes.sum()))
        return self.lifetimes / total
