"""Tests for the seeded synthetic Markov workload generator."""

import pytest

from repro.db import Engine
from repro.errors import WorkloadError
from repro.workloads.synth import (
    MIX_PRESETS,
    OP_KINDS,
    SynthOp,
    SynthPhase,
    SyntheticClient,
    SyntheticConfig,
    SyntheticWorkload,
    _renormalized,
)
from repro.workloads.tpcb import TpcbConfig


def small_config(**kwargs):
    kwargs.setdefault("tpcb", TpcbConfig(branches=3, accounts_per_branch=80))
    return SyntheticConfig(**kwargs)


def loaded_engine(config):
    engine = Engine(pool_capacity=2048, btree_order=32)
    SyntheticWorkload(config).load(engine)
    return engine


def run_to_completion(txn):
    while not txn.done:
        txn.run_step()
    return txn


class TestConfigValidation:
    def test_presets_rows_cover_all_ops(self):
        for preset in MIX_PRESETS.values():
            assert set(preset) == set(OP_KINDS)
            for row in preset.values():
                assert abs(sum(row.values()) - 1.0) < 1e-9

    def test_bad_ops_per_txn(self):
        with pytest.raises(WorkloadError, match="ops_per_txn"):
            small_config(ops_per_txn=0)

    def test_bad_hot_fraction(self):
        with pytest.raises(WorkloadError, match="hot_fraction"):
            small_config(hot_fraction=0.0)

    def test_bad_hot_probability(self):
        with pytest.raises(WorkloadError, match="hot_probability"):
            small_config(hot_probability=1.5)

    def test_unknown_op(self):
        with pytest.raises(WorkloadError, match="unknown op"):
            small_config(ops=("read", "delete"))

    def test_empty_ops(self):
        with pytest.raises(WorkloadError, match="at least one op"):
            small_config(ops=())

    def test_unknown_phase_mix(self):
        with pytest.raises(WorkloadError, match="unknown synthetic mix"):
            SynthPhase("olap", 5)

    def test_unbounded_non_final_phase(self):
        with pytest.raises(WorkloadError, match="final phase"):
            small_config(phases=(SynthPhase("oltp", 0), SynthPhase("scan", 0)))

    def test_hot_keys_at_least_one(self):
        config = small_config(hot_fraction=0.001)
        assert config.hot_keys == 1


class TestDeterminism:
    def test_equal_configs_draw_identical_streams(self):
        ops_a = SyntheticClient(small_config(), pid=3)._draw_ops("oltp")
        ops_b = SyntheticClient(small_config(), pid=3)._draw_ops("oltp")
        assert ops_a == ops_b

    def test_pids_differ(self):
        config = small_config()
        ops_a = SyntheticClient(config, pid=0)._draw_ops("oltp")
        ops_b = SyntheticClient(config, pid=1)._draw_ops("oltp")
        assert ops_a != ops_b

    def test_seeds_differ(self):
        ops_a = SyntheticClient(small_config(seed=1), pid=0)._draw_ops("oltp")
        ops_b = SyntheticClient(small_config(seed=2), pid=0)._draw_ops("oltp")
        assert ops_a != ops_b


class TestLockDiscipline:
    def test_lock_ops_sorted_by_key(self):
        ops = [
            SynthOp("update", key=9),
            SynthOp("scan", key=1),
            SynthOp("read", key=2),
            SynthOp("update", key=5),
        ]
        ordered = SyntheticClient._order_locks(ops)
        keys = [op.key for op in ordered if op.kind in ("read", "update")]
        assert keys == sorted(keys)
        # Non-locking ops keep their positions.
        assert ordered[1].kind == "scan"

    def test_read_of_updated_key_takes_x_lock_up_front(self):
        ops = [SynthOp("read", key=4), SynthOp("update", key=4)]
        ordered = SyntheticClient._order_locks(ops)
        read = next(op for op in ordered if op.kind == "read")
        assert read.for_update

    def test_plain_read_keeps_shared_lock(self):
        ops = [SynthOp("read", key=4), SynthOp("update", key=7)]
        ordered = SyntheticClient._order_locks(ops)
        read = next(op for op in ordered if op.kind == "read")
        assert not read.for_update

    def test_drawn_transactions_obey_the_discipline(self):
        client = SyntheticClient(small_config(ops_per_txn=8), pid=0)
        for _ in range(50):
            ops = client._draw_ops("oltp")
            keys = [op.key for op in ops if op.kind in ("read", "update")]
            assert keys == sorted(keys)


class TestPhaseSchedule:
    def test_walks_the_schedule(self):
        config = small_config(
            phases=(SynthPhase("oltp", 2), SynthPhase("scan", 0))
        )
        engine = loaded_engine(config)
        client = SyntheticWorkload(config).client(pid=0)
        mixes = []
        for _ in range(4):
            mixes.append(client.phase.mix)
            run_to_completion(client.next_transaction(engine))
        assert mixes == ["oltp", "oltp", "scan", "scan"]

    def test_clients_advance_independently(self):
        config = small_config(
            phases=(SynthPhase("oltp", 1), SynthPhase("scan", 0))
        )
        engine = loaded_engine(config)
        workload = SyntheticWorkload(config)
        ahead, behind = workload.client(pid=0), workload.client(pid=1)
        run_to_completion(ahead.next_transaction(engine))
        assert ahead.phase.mix == "scan"
        assert behind.phase.mix == "oltp"


class TestRenormalization:
    def test_restricted_vocabulary_rows_sum_to_one(self):
        rows = _renormalized(MIX_PRESETS["oltp"], ("read", "update"))
        for row in rows.values():
            assert abs(sum(w for _, w in row) - 1.0) < 1e-9
            assert {dst for dst, _ in row} == {"read", "update"}

    def test_zero_mass_row_degrades_to_uniform(self):
        # The scan preset gives "insert" zero outgoing mass toward
        # {update, insert}; the chain must still be able to move.
        rows = _renormalized(MIX_PRESETS["scan"], ("update", "insert"))
        weights = [w for _, w in rows["insert"]]
        assert all(abs(w - 0.5) < 1e-9 for w in weights)


class TestProtocol:
    def test_transactions_execute_against_the_engine(self):
        config = small_config(ops_per_txn=6)
        engine = loaded_engine(config)
        client = SyntheticWorkload(config).client(pid=0)
        for _ in range(10):
            txn = client.next_transaction(engine)
            steps = 0
            while not txn.done:
                assert txn.step_index == steps
                txn.run_step()
                steps += 1
            assert steps == config.ops_per_txn + 2  # begin + ops + commit

    def test_completed_transaction_refuses_more_steps(self):
        config = small_config()
        engine = loaded_engine(config)
        txn = run_to_completion(
            SyntheticWorkload(config).client(pid=0).next_transaction(engine)
        )
        with pytest.raises(WorkloadError, match="complete"):
            txn.run_step()

    def test_workload_reexported_from_repro_workloads(self):
        from repro.workloads import SyntheticWorkload as reexported

        assert reexported is SyntheticWorkload
