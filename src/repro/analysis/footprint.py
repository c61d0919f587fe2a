"""Execution-profile / footprint curves (paper Figure 3)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ir import INSTRUCTION_BYTES
from repro.profiles import Profile
from repro.sim import expand_line_runs


def execution_profile_curve(profile: Profile) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's Figure 3 curve.

    Returns (footprint_bytes, cumulative_fraction): sorting static
    instructions from most to least frequently executed, the fraction
    of all dynamic instructions captured by each footprint prefix.
    """
    sizes = profile.binary.table.size
    counts = profile.block_counts
    per_instr_counts = np.repeat(counts, sizes)
    order = np.argsort(per_instr_counts, kind="stable")[::-1]
    sorted_counts = per_instr_counts[order]
    total = sorted_counts.sum()
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    cumulative = np.cumsum(sorted_counts) / total
    footprint = (np.arange(1, len(sorted_counts) + 1)) * INSTRUCTION_BYTES
    return footprint, cumulative


def dynamic_footprint_bytes(profile: Profile) -> int:
    """Bytes of static code executed at least once."""
    sizes = profile.binary.table.size[profile.block_counts > 0]
    return int(sizes.sum()) * INSTRUCTION_BYTES


def footprint_in_lines(
    starts: np.ndarray, counts: np.ndarray, line_bytes: int
) -> int:
    """Unique cache lines touched by a stream (the paper's packing
    metric: 500KB base vs 315KB optimized in 128-byte lines)."""
    line_ids, _, _, _ = expand_line_runs(starts, counts, line_bytes)
    return len(np.unique(line_ids)) if len(line_ids) else 0


def union_footprint_in_lines(streams, line_bytes: int) -> int:
    """Unique lines touched across several streams of one binary
    (per-CPU streams share the image -- do NOT sum per-stream counts)."""
    touched: set = set()
    for starts, counts in streams:
        line_ids, _, _, _ = expand_line_runs(starts, counts, line_bytes)
        if len(line_ids):
            touched.update(np.unique(line_ids).tolist())
    return len(touched)


def capture_at(profile: Profile, footprint_bytes: int) -> float:
    """Fraction of dynamic instructions captured by the hottest
    ``footprint_bytes`` of code."""
    footprint, cumulative = execution_profile_curve(profile)
    if len(footprint) == 0:
        return 0.0
    idx = np.searchsorted(footprint, footprint_bytes, side="right") - 1
    if idx < 0:
        return 0.0
    return float(cumulative[min(idx, len(cumulative) - 1)])
