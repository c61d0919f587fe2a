"""Regression guard: headline metrics of the quick experiment.

Seeds are fixed, so these numbers are deterministic per code version;
the assertions use generous ranges so legitimate re-tuning passes while
silent behavioral regressions (lost optimizations, broken replay,
protocol drift) fail loudly.
"""

import numpy as np
import pytest

from repro.analysis import (
    dynamic_footprint_bytes,
    merge_sequence_stats,
    sequence_lengths,
    union_footprint_in_lines,
)
from repro.cache import CacheGeometry
from repro.sim import direct_mapped_misses, itlb_result
from repro.harness import quick_experiment


@pytest.fixture(scope="module")
def exp():
    experiment = quick_experiment()
    _ = experiment.profile
    _ = experiment.trace
    return experiment


def dm_misses(exp, combo, size_kb=32, line=128):
    geometry = CacheGeometry(size_kb * 1024, line, 1)
    return sum(
        direct_mapped_misses(s, c, geometry) for s, c in exp.streams(combo, scope="app")
    )


class TestHeadlineRegression:
    def test_footprint_scale(self, exp):
        footprint = dynamic_footprint_bytes(exp.profile)
        assert 15_000 < footprint < 80_000  # quick config: tens of KB

    def test_miss_reduction_holds(self, exp):
        base = dm_misses(exp, "base")
        optimized = dm_misses(exp, "all")
        assert optimized < 0.6 * base

    def test_chain_alone_helps(self, exp):
        base = dm_misses(exp, "base")
        chain = dm_misses(exp, "chain")
        assert chain < 0.8 * base

    def test_sequence_lengths_band(self, exp):
        base = merge_sequence_stats(
            [sequence_lengths(s, c) for s, c in exp.streams("base", scope="app")]
        )
        optimized = merge_sequence_stats(
            [sequence_lengths(s, c) for s, c in exp.streams("all", scope="app")]
        )
        assert 5.0 < base.mean_length < 11.0
        assert optimized.mean_length > 1.2 * base.mean_length

    def test_packing_improves(self, exp):
        base_lines = union_footprint_in_lines(exp.streams("base", scope="app"), 128)
        opt_lines = union_footprint_in_lines(exp.streams("all", scope="app"), 128)
        assert opt_lines < base_lines

    def test_itlb_improves(self, exp):
        base = itlb_result(exp.streams("base", scope="combined"), entries=16).misses
        optimized = itlb_result(exp.streams("all", scope="combined"), entries=16).misses
        assert optimized < base

    def test_kernel_fraction_band(self, exp):
        trace = exp.trace
        kernel = sum(
            int((cpu.blocks >= trace.kernel_offset).sum()) for cpu in trace.cpus
        )
        total = sum(cpu.num_blocks for cpu in trace.cpus)
        assert 0.02 < kernel / total < 0.30

    def test_lock_waits_occur(self, exp):
        """The 40-branch hot rows must produce real contention."""
        # The quick experiment shares an engine per run; re-derive from
        # a fresh system at the same scale.
        from repro.execution import OltpSystem
        from repro.workloads import TpcbConfig

        system = OltpSystem(
            exp.app, exp.kernel,
            tpcb_config=TpcbConfig(branches=2, accounts_per_branch=50),
        )
        system.run(transactions=60)
        assert system.engine.locks.waits > 0

    @pytest.mark.parametrize("combo", ["base", "porder", "chain",
                                       "chain+split", "chain+porder", "all",
                                       "split", "hotcold"])
    def test_every_combo_replayable(self, exp, combo):
        streams = exp.streams(combo, scope="app")
        for starts, counts in streams:
            assert (starts >= 0).all()
            assert (counts >= 0).all()
            assert int(counts.sum()) > 0
