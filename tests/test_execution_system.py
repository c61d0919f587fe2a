"""Integration tests for the multiprocessor system and trace machinery."""

import numpy as np
import pytest

from repro.execution import (
    CombinedAddressMap,
    OltpSystem,
    SystemConfig,
)
from repro.ir import KERNEL_BASE, assign_addresses, baseline_layout
from repro.osmodel import KernelCodeConfig, build_kernel_program
from repro.progen import AppCodeConfig, build_app_program
from repro.workloads import TpcbConfig


@pytest.fixture(scope="module")
def programs():
    app = build_app_program(
        AppCodeConfig(scale=1.0, filler_routines=40, filler_instructions=20_000)
    )
    kernel = build_kernel_program(
        KernelCodeConfig(scale=1.0, filler_routines=10, filler_instructions=4_000)
    )
    return app, kernel


@pytest.fixture(scope="module")
def system_trace(programs):
    app, kernel = programs
    system = OltpSystem(
        app,
        kernel,
        tpcb_config=TpcbConfig(branches=4, accounts_per_branch=50),
        system_config=SystemConfig(cpus=2, processes_per_cpu=4),
        pool_capacity=512,
    )
    trace = system.run(transactions=40, warmup=5)
    return system, trace


class TestSystemRun:
    def test_transaction_quota_met(self, system_trace):
        _, trace = system_trace
        assert trace.transactions == 40

    def test_all_cpus_active(self, system_trace):
        _, trace = system_trace
        assert len(trace.cpus) == 2
        for cpu in trace.cpus:
            assert cpu.num_blocks > 0

    def test_kernel_blocks_present(self, system_trace):
        _, trace = system_trace
        for cpu in trace.cpus:
            assert (cpu.blocks >= trace.kernel_offset).any()
            assert (cpu.blocks < trace.kernel_offset).any()

    def test_pids_match_affinity(self, system_trace):
        system, trace = system_trace
        per_cpu = system.config.processes_per_cpu
        for cpu_index, cpu in enumerate(trace.cpus):
            pids = np.unique(cpu.pids)
            for pid in pids:
                assert pid // per_cpu == cpu_index

    def test_balance_conservation_under_concurrency(self, system_trace):
        system, _ = system_trace
        engine = system.engine
        txn = engine.begin()
        branches = system.tpcb_config.branches
        branch_total = sum(
            engine.get_row(txn, "branch", b)["balance"] for b in range(branches)
        )
        teller_total = sum(
            engine.get_row(txn, "teller", t)["balance"]
            for t in range(system.tpcb_config.tellers)
        )
        engine.commit(txn)
        assert branch_total == teller_total
        # History records match committed transactions (some in-flight
        # transactions may still hold uncommitted inserts).
        assert engine.txns.committed >= 45  # 40 measured + 5 warmup

    def test_per_process_app_streams_cover_app_blocks(self, system_trace):
        _, trace = system_trace
        total = sum(len(s) for s in trace.per_process_app_streams())
        app_blocks = sum(
            int((cpu.blocks < trace.kernel_offset).sum()) for cpu in trace.cpus
        )
        assert total == app_blocks

    def test_warmup_discarded(self, programs):
        app, kernel = programs
        system = OltpSystem(
            app,
            kernel,
            tpcb_config=TpcbConfig(branches=2, accounts_per_branch=40),
            system_config=SystemConfig(cpus=1, processes_per_cpu=2),
        )
        trace = system.run(transactions=5, warmup=3)
        assert trace.transactions == 5

    def test_data_accesses_recorded(self, system_trace):
        _, trace = system_trace
        assert sum(len(d) for d in trace.data_addresses) > 0
        for addrs, positions in zip(trace.data_addresses, trace.data_positions):
            assert len(addrs) == len(positions)
            assert (np.diff(positions) >= 0).all()


class TestCombinedAddressMap:
    def test_kernel_offset_applied(self, programs):
        app, kernel = programs
        amap = CombinedAddressMap(
            assign_addresses(app.binary, baseline_layout(app.binary)),
            assign_addresses(kernel.binary, baseline_layout(kernel.binary)),
        )
        kernel_addrs = amap.addr[amap.kernel_offset :]
        assert (kernel_addrs >= KERNEL_BASE).all()
        assert (amap.addr[: amap.kernel_offset] < KERNEL_BASE).all()

    def test_fetch_counts_match_block_replay(self, programs, system_trace):
        app, kernel = programs
        _, trace = system_trace
        amap = CombinedAddressMap(
            assign_addresses(app.binary, baseline_layout(app.binary)),
            assign_addresses(kernel.binary, baseline_layout(kernel.binary)),
        )
        blocks = trace.cpus[0].blocks[:500]
        counts = amap.fetch_counts(blocks)
        assert len(counts) == len(blocks)
        assert (counts >= 0).all()

    def test_block_sequence_is_layout_invariant(self, programs, system_trace):
        """The executed blocks never change; only addresses do."""
        app, kernel = programs
        _, trace = system_trace
        from repro.profiles import PixieProfiler
        from repro.layout import SpikeOptimizer

        profiler = PixieProfiler(app.binary)
        for stream in trace.per_process_app_streams():
            profiler.add_stream(stream)
        optimizer = SpikeOptimizer(app.binary, profiler.profile())
        base_map = assign_addresses(app.binary, optimizer.layout("base"))
        opt_map = assign_addresses(app.binary, optimizer.layout("all"))
        # Same blocks, different addresses.
        blocks = trace.app_block_stream(0)[:1000]
        assert not np.array_equal(base_map.addr[blocks], opt_map.addr[blocks])

    def test_sequential_breaks_detects_jumps(self, programs):
        app, kernel = programs
        amap = CombinedAddressMap(
            assign_addresses(app.binary, baseline_layout(app.binary)),
            assign_addresses(kernel.binary, baseline_layout(kernel.binary)),
        )
        blocks = np.array([0, 1], dtype=np.int64)
        breaks = amap.sequential_breaks(blocks)
        assert breaks.shape == (1,)
