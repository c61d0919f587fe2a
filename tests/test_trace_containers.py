"""Tests for SystemTrace / CpuTrace containers and locality stats."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import LocalityStats
from repro.execution.trace import CpuTrace, SystemTrace


def make_trace():
    cpu0 = CpuTrace(
        blocks=np.array([0, 1, 10, 2], dtype=np.int64),
        pids=np.array([0, 0, 0, 1], dtype=np.int16),
    )
    cpu1 = CpuTrace(
        blocks=np.array([3, 11], dtype=np.int64),
        pids=np.array([2, 2], dtype=np.int16),
    )
    return SystemTrace(
        cpus=[cpu0, cpu1],
        data_addresses=[np.zeros(0, np.int64), np.zeros(0, np.int64)],
        data_positions=[np.zeros(0, np.int64), np.zeros(0, np.int64)],
        kernel_offset=10,
        transactions=2,
    )


class TestTraceContainers:
    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            CpuTrace(blocks=np.array([1, 2]), pids=np.array([0], dtype=np.int16))

    def test_app_block_stream_filters_kernel(self):
        trace = make_trace()
        assert trace.app_block_stream(0).tolist() == [0, 1, 2]
        assert trace.app_block_stream(1).tolist() == [3]

    def test_per_process_streams_grouped(self):
        trace = make_trace()
        streams = trace.per_process_app_streams()
        as_lists = sorted(s.tolist() for s in streams)
        assert as_lists == [[0, 1], [2], [3]]

    def test_num_blocks(self):
        trace = make_trace()
        assert trace.cpus[0].num_blocks == 4


class TestLocalityStats:
    def test_record_replacement_accumulates(self):
        stats = LocalityStats(words_per_line=8)
        stats.record_replacement(np.array([2, 1, 0, 0, 0, 0, 0, 3]), lifetime=100)
        assert stats.lines_loaded == 1
        assert stats.words_loaded == 8
        assert stats.words_used == 3
        assert stats.unique_words[3] == 1

    def test_reuse_capped(self):
        stats = LocalityStats(words_per_line=4, reuse_cap=15)
        stats.record_replacement(np.array([100, 1, 0, 0]), lifetime=1)
        assert stats.word_reuse[15] == 1  # capped bucket
        assert stats.word_reuse[1] == 1
        assert stats.word_reuse[0] == 2

    def test_lifetime_log2_bucket(self):
        stats = LocalityStats(words_per_line=4)
        stats.record_replacement(np.array([1, 0, 0, 0]), lifetime=1024)
        assert stats.lifetimes[10] == 1

    def test_unused_fraction(self):
        stats = LocalityStats(words_per_line=4)
        stats.record_replacement(np.array([1, 1, 0, 0]), lifetime=1)
        assert stats.unused_fraction == pytest.approx(0.5)

    def test_fraction_helpers_normalize(self):
        stats = LocalityStats(words_per_line=4)
        stats.record_replacement(np.array([1, 0, 0, 0]), lifetime=2)
        stats.record_replacement(np.array([1, 1, 1, 1]), lifetime=2)
        assert stats.unique_words_fractions().sum() == pytest.approx(1.0)
        assert stats.lifetime_fractions().sum() == pytest.approx(1.0)
        assert stats.word_reuse_fractions().sum() == pytest.approx(1.0)

    def test_empty_stats_safe(self):
        stats = LocalityStats(words_per_line=4)
        assert stats.unused_fraction == 0.0
        assert stats.unique_words_fractions().sum() == 0.0
