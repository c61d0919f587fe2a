"""Regression guard: headline metrics of the quick experiment.

Seeds are fixed, so these numbers are deterministic per code version;
the assertions use generous ranges so legitimate re-tuning passes while
silent behavioral regressions (lost optimizations, broken replay,
protocol drift) fail loudly.
"""

import hashlib

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
from repro.harness.store import save_trace


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


#: sha256 of every array of the quick experiment's ``trace.npz``.  The
#: trace is the input of every profile, layout and simulation, so any
#: change to the system model, the engine or the CFG walker that moves a
#: single block id, pid or data address shows up here.
TRACE_SHA256 = {
    "cpu0_blocks": "831ded13d0aa8f37005fbde41098049aca97fd83b4505806ae3504e5de1b639a",
    "cpu0_pids": "fc0cfeb5e46193b911a4ef74750689f0bf43f6a40e3eb30101a931885274f3a1",
    "cpu1_blocks": "ba0b99a1bace846adc4da610fc3f1b8fcaa016436092b37fdc618d95621515b8",
    "cpu1_pids": "501faee29e587b51634a0064902452f4d16a3999cb0a8e6d74128acf4a3f7d37",
    "cpu2_blocks": "f6587403e6481f1aef9bfabdc63baac221b4a21cee4f3d6cdd371722c3762d10",
    "cpu2_pids": "8e9bb1112ab171c1c23e897e951a2b9b9a39ffe244e74824c44b99ac5c705daf",
    "cpu3_blocks": "9e26cbc8ecbe330be1d9d35d2452c5902e5ca938ca3610df1eb90db73b54a109",
    "cpu3_pids": "9392fd21c8e2feef3719cfc4b6d7801201408e87a36717cb2ab78855feb4b046",
    "data0_addr": "cd14c9e69e108d5404ecdf4262e7b19806403f014d6a984597b21cfe475272d4",
    "data0_pos": "45ee600020189fdcaa799f4baf8f987d7bfebab5a30aadb906cfa0101af4750f",
    "data1_addr": "838d76160169e4f3a376db1babaaf80903de8869f762098fd325414b484547a7",
    "data1_pos": "bb72437b09840c4a1e31c188459d4e1f0495d8d99b17c605d6ece0e57874aea8",
    "data2_addr": "4f506e21b4e7a02868cc17ed335eb7f40a1457cf249b0250aaf9797d6925ec99",
    "data2_pos": "d68bad377e63515a96e8f3b6a66deafa806470c77d22032313a4922d5020a519",
    "data3_addr": "773156657fb6a0017ba8b4e27f1b8af5b499e730014f6ecdd94122e737caca02",
    "data3_pos": "c549073bfa715e95a3976b090f47aa0cf43b6a33b43a380e922b33868d44eaaa",
    "meta": "80c5eeb6122d98265ff7d811a5a35eb6a3c559dd10302dfcccbb129958718898",
}


class TestTracePin:
    def test_trace_arrays_pinned(self, exp, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(exp.trace, path)
        with np.load(path) as arrays:
            digests = {
                name: hashlib.sha256(np.ascontiguousarray(arrays[name]).tobytes()).hexdigest()
                for name in arrays.files
            }
        assert digests == TRACE_SHA256
