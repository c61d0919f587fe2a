"""Tests for the analysis metrics (sequences, footprint, interference)."""

import numpy as np
import pytest

from repro.analysis import (
    InterferenceBreakdown,
    capture_at,
    dynamic_footprint_bytes,
    execution_profile_curve,
    footprint_in_lines,
    mean_basic_block_size,
    merge_sequence_stats,
    sequence_lengths,
    union_footprint_in_lines,
)
from repro.sim import APP, KERNEL, InterferenceMatrix
from repro.ir import Binary, Procedure, Terminator
from repro.profiles import PixieProfiler


def spans(*pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    counts = np.array([p[1] for p in pairs], dtype=np.int64)
    return starts, counts


class TestSequenceLengths:
    def test_contiguous_spans_merge(self):
        # 4 instrs at 0, next span starts exactly at byte 16: one run.
        starts, counts = spans((0, 4), (16, 4))
        stats = sequence_lengths(starts, counts)
        assert stats.total_sequences == 1
        assert stats.mean_length == 8

    def test_break_splits_runs(self):
        starts, counts = spans((0, 4), (100, 4))
        stats = sequence_lengths(starts, counts)
        assert stats.total_sequences == 2
        assert stats.histogram[4] == 2

    def test_long_runs_capped(self):
        starts, counts = spans((0, 100))
        stats = sequence_lengths(starts, counts, max_length=33)
        assert stats.histogram[33] == 1
        assert stats.total_instructions == 100

    def test_zero_count_spans_ignored(self):
        starts, counts = spans((0, 4), (16, 0), (16, 4))
        stats = sequence_lengths(starts, counts)
        assert stats.total_sequences == 1

    def test_empty(self):
        stats = sequence_lengths(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert stats.mean_length == 0.0

    def test_merge(self):
        s1 = sequence_lengths(*spans((0, 4)))
        s2 = sequence_lengths(*spans((0, 6)))
        merged = merge_sequence_stats([s1, s2])
        assert merged.total_sequences == 2
        assert merged.mean_length == 5

    def test_fractions_sum_to_one(self):
        stats = sequence_lengths(*spans((0, 4), (100, 7), (999 * 4, 2)))
        assert stats.fractions().sum() == pytest.approx(1.0)

    def test_mean_basic_block_size(self):
        sizes = np.array([10, 2], dtype=np.int64)
        blocks = np.array([0, 0, 1], dtype=np.int64)
        assert mean_basic_block_size(blocks, sizes) == pytest.approx(22 / 3)


class TestFootprint:
    def make_profile(self):
        binary = Binary()
        proc = Procedure("p")
        proc.add_block("hot", 10, Terminator.COND_BRANCH, succs=("hot", "cold"))
        proc.add_block("cold", 30, Terminator.RETURN)
        binary.add_procedure(proc)
        binary.seal()
        profiler = PixieProfiler(binary)
        profiler.add_stream([0] * 99 + [1])
        return profiler.profile()

    def test_curve_monotone(self):
        footprint, cumulative = execution_profile_curve(self.make_profile())
        assert (np.diff(cumulative) >= 0).all()
        assert cumulative[-1] == pytest.approx(1.0)

    def test_hot_code_captured_first(self):
        profile = self.make_profile()
        # The 10 hot instructions (40 bytes) carry 990/1020 of execution.
        assert capture_at(profile, 40) == pytest.approx(990 / 1020)

    def test_dynamic_footprint(self):
        assert dynamic_footprint_bytes(self.make_profile()) == 160

    def test_footprint_in_lines(self):
        starts, counts = spans((0, 4), (1024, 4))
        assert footprint_in_lines(starts, counts, 128) == 2

    def test_union_footprint_deduplicates(self):
        s1 = spans((0, 4))
        s2 = spans((0, 4), (1024, 4))
        assert union_footprint_in_lines([s1, s2], 128) == 2


class TestInterferenceBreakdown:
    def test_rows_and_both(self):
        matrix = InterferenceMatrix()
        matrix.record(APP, APP)
        matrix.record(APP, APP)
        matrix.record(APP, KERNEL)
        matrix.record(KERNEL, APP)
        breakdown = InterferenceBreakdown.from_matrix(matrix)
        assert breakdown.rows[APP] == {APP: 2, KERNEL: 1}
        assert breakdown.rows["both"] == {APP: 3, KERNEL: 1}

    def test_self_interference_fraction(self):
        matrix = InterferenceMatrix()
        matrix.record(APP, APP)
        matrix.record(APP, APP)
        matrix.record(APP, KERNEL)
        breakdown = InterferenceBreakdown.from_matrix(matrix)
        assert breakdown.self_interference_fraction(APP) == pytest.approx(2 / 3)
