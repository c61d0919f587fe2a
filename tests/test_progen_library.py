"""Tests for the application routine library and the kernel program."""

import random

import pytest

from repro.ir import KERNEL_BASE
from repro.osmodel import KernelCodeConfig, build_kernel_program
from repro.progen import AppCodeConfig, build_app_program, generate_code_run
from repro.progen.builder import iter_nodes
from repro.progen.dsl import ColdPath, If, Loop, Straight, SubCall
from repro.progen.library import CodeFactory, HELPERS


class TestGenerateCodeRun:
    def test_budget_roughly_respected(self):
        rng = random.Random(1)
        nodes = generate_code_run(rng, 200)
        static = sum(
            getattr(n, "size", 4) for n in iter_nodes(nodes)
            if isinstance(n, (Straight, If, Loop))
        )
        assert static > 100  # warm content near the budget

    def test_deterministic_for_seed(self):
        a = generate_code_run(random.Random(7), 100)
        b = generate_code_run(random.Random(7), 100)
        assert [type(n).__name__ for n in iter_nodes(a)] == [
            type(n).__name__ for n in iter_nodes(b)
        ]

    def test_block_sizes_small(self):
        rng = random.Random(2)
        nodes = generate_code_run(rng, 500)
        for node in iter_nodes(nodes):
            if isinstance(node, Straight):
                assert 3 <= node.size <= 9

    def test_contains_mixture(self):
        rng = random.Random(3)
        kinds = {type(n).__name__ for n in iter_nodes(generate_code_run(rng, 2000))}
        assert {"Straight", "If", "ColdPath"} <= kinds

    def test_helpers_optional(self):
        rng = random.Random(4)
        nodes = generate_code_run(rng, 2000, helpers=None)
        assert not any(isinstance(n, SubCall) for n in iter_nodes(nodes))


class TestCodeFactory:
    def test_outlines_private_functions(self):
        rng = random.Random(5)
        collector = []
        factory = CodeFactory(rng, HELPERS, collector=collector)
        nodes = factory.run(800, owner="myroutine")
        assert collector, "expected outlined private functions"
        for spec in collector:
            assert spec.name.startswith("myroutine.p")
        subcalls = [n for n in nodes if isinstance(n, SubCall)]
        private_targets = {s.target for s in subcalls if ".p" in s.target}
        assert private_targets == {s.name for s in collector}

    def test_no_collector_inlines_everything(self):
        rng = random.Random(6)
        factory = CodeFactory(rng, HELPERS, collector=None)
        nodes = factory.run(800, owner="myroutine")
        assert not any(
            isinstance(n, SubCall) and ".p" in n.target for n in nodes
        )


class TestAppProgram:
    @pytest.fixture(scope="class")
    def program(self):
        return build_app_program(
            AppCodeConfig(scale=1.0, filler_routines=50, filler_instructions=10_000)
        )

    def test_every_engine_event_has_a_routine(self, program):
        shared = ["buffer_get", "buffer_new", "lock_acquire", "stmt_lookup",
                  "sql_parse", "wal_append", "wal_flush", "txn_begin",
                  "txn_commit", "txn_abort"]
        for name in shared:
            assert name in program.specs
        for table in ("account", "teller", "branch", "history"):
            for base in ("sql_update", "sql_select", "sql_insert",
                         "btree_lookup", "row_fetch", "row_update",
                         "heap_insert", "plan_bind"):
                assert f"{base}@{table}" in program.specs

    def test_history_has_no_index_insert(self, program):
        assert "index_insert@account" in program.specs
        assert "index_insert@history" not in program.specs

    def test_filler_interleaved_with_hot(self, program):
        order = program.binary.proc_order()
        cold_positions = [i for i, n in enumerate(order) if n.startswith("cold_")]
        hot_positions = [i for i, n in enumerate(order) if not n.startswith("cold_")]
        # Cold filler appears before some hot code (scattered, not banked).
        assert min(cold_positions) < max(hot_positions)

    def test_private_functions_grouped_with_owner(self, program):
        order = program.binary.proc_order()
        for i, name in enumerate(order):
            if ".p" in name and not name.startswith("h."):
                owner = name.split(".p")[0]
                assert owner in order
                # The owner sits earlier, with no other protocol routine
                # in between (same module group).
                owner_pos = order.index(owner)
                assert owner_pos < i

    def test_deterministic(self):
        config = AppCodeConfig(scale=1.0, filler_routines=10,
                               filler_instructions=2_000, seed=77)
        a = build_app_program(config)
        b = build_app_program(config)
        assert a.binary.proc_order() == b.binary.proc_order()
        assert a.binary.static_size == b.binary.static_size

    def test_scale_grows_footprint(self):
        small = build_app_program(AppCodeConfig(scale=0.5, filler_routines=0))
        big = build_app_program(AppCodeConfig(scale=2.0, filler_routines=0))
        assert big.binary.static_size > 1.5 * small.binary.static_size


class TestKernelProgram:
    @pytest.fixture(scope="class")
    def kernel(self):
        return build_kernel_program(KernelCodeConfig(scale=1.0))

    def test_entry_points_present(self, kernel):
        for name in ("k.read", "k.write", "k.yield", "k.switch", "k.timer"):
            assert name in kernel.specs

    def test_kernel_base_above_typical_app(self):
        assert KERNEL_BASE >= 1 << 24

    def test_loops_bound_to_pages(self, kernel):
        spec = kernel.spec("k.read")
        loops = [n for n in iter_nodes(spec.body) if isinstance(n, Loop)]
        assert any(loop.count == "pages" for loop in loops)

    def test_filler_present(self, kernel):
        assert any(n.startswith("kcold_") for n in kernel.binary.proc_order())


class TestCalibration:
    def test_warm_footprint_excludes_filler(self):
        from repro.progen import (
            AppCodeConfig,
            build_app_program,
            warm_footprint_bytes,
        )

        with_filler = build_app_program(
            AppCodeConfig(scale=0.5, filler_routines=50,
                          filler_instructions=50_000, seed=5)
        )
        without = build_app_program(
            AppCodeConfig(scale=0.5, filler_routines=0, seed=5)
        )
        assert warm_footprint_bytes(with_filler) == warm_footprint_bytes(without)

    def test_calibrate_hits_target(self):
        from repro.progen import AppCodeConfig, calibrate_scale

        target = 60_000
        config, result = calibrate_scale(
            target, AppCodeConfig(scale=1.0, filler_routines=0),
            tolerance=0.10,
        )
        assert result.relative_error <= 0.10
        assert config.scale == result.scale

    def test_calibrate_scales_up_and_down(self):
        from repro.progen import AppCodeConfig, calibrate_scale

        small, small_result = calibrate_scale(
            30_000, AppCodeConfig(scale=1.0, filler_routines=0),
            tolerance=0.15,
        )
        big, big_result = calibrate_scale(
            200_000, AppCodeConfig(scale=1.0, filler_routines=0),
            tolerance=0.15,
        )
        assert big.scale > small.scale

    def test_bad_target_rejected(self):
        from repro.progen import calibrate_scale

        with pytest.raises(ValueError):
            calibrate_scale(0)
