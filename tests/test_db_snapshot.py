"""Restoring a database snapshot equals a fresh load, field by field.

The oracle is the historical path: ``load_database`` through a
recording ``CallTrace`` (what ``OltpSystem`` does without a snapshot).
The state is read here straight off the engine, independently of the
snapshot's own capture code, and a few transactions then run on both
engines to show they behave alike afterwards.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import CallTrace, DatabaseSnapshot, Engine, SaltCounter
from repro.errors import ConfigError, DatabaseError
from repro.workloads import (
    TpcbConfig,
    TpcbWorkload,
    database_scale,
    load_database,
    run_transactions,
    snapshot_database,
)


def engine_state(engine, trace):
    """Everything a later run reads, as plain values."""
    store, pool, log = engine.store, engine.pool, engine.log
    return {
        "pages": dict(store._images),
        "next_page_id": store._next_page_id,
        "store_counters": (store.reads, store.writes),
        "frames": [
            (page_id, frame.pins, frame.dirty, bytes(frame.page.buf))
            for page_id, frame in pool._frames.items()
        ],
        "pool_counters": (pool.hits, pool.misses, pool.evictions),
        "wal": (
            log._next_lsn, log.flushed_lsn, log.flushes,
            list(log.group_sizes), log._pending_commits,
            list(log._buffer), list(log._flushed),
        ),
        "txns": (
            engine.txns._next_id, engine.txns.committed,
            engine.txns.aborted, dict(engine.txns.active),
        ),
        "locks": (
            engine.locks.grants, engine.locks.waits, engine.locks.deadlocks,
        ),
        "catalog": [
            (
                name, table.name, table.key_column,
                [(c.name, c.kind, c.width) for c in table.codec.columns],
                list(table.heap.page_ids), table.heap._insert_hint,
                None if table.index is None else (
                    table.index.name, table.index.root_page_id,
                    table.index.height, table.index.order,
                    table.index._node_bytes,
                ),
            )
            for name, table in engine.tables.items()
        ],
        "statements": set(engine._stmt_cache),
        "salt": trace.salts,
    }


def fresh(config, pool, order):
    trace = CallTrace()
    engine = Engine(pool_capacity=pool, btree_order=order, trace=trace)
    load_database(engine, config)
    trace.take()
    return engine, trace


def restored(snapshot, pool, order):
    trace = CallTrace(salts=snapshot.salt)
    engine = Engine(pool_capacity=pool, btree_order=order, trace=trace)
    snapshot.restore(engine)
    return engine, trace


def events(trace):
    """The recorded event forest as nested plain tuples."""
    def walk(event):
        return (
            event.name, sorted(event.bindings.items()),
            [walk(child) for child in event.children],
        )
    return [walk(event) for event in trace.take()]


scales = st.builds(
    TpcbConfig,
    branches=st.integers(1, 3),
    accounts_per_branch=st.integers(1, 60),
    tellers_per_branch=st.integers(1, 4),
    seed=st.integers(0, 1000),
)


@given(
    config=scales,
    pool=st.sampled_from([4, 6, 8, 16, 1024]),
    order=st.sampled_from([4, 5, 8, 64]),
)
def test_restored_database_equals_a_fresh_load(config, pool, order):
    snapshot = DatabaseSnapshot.from_bytes(
        snapshot_database(config, pool, order).to_bytes()
    )
    assert snapshot.key == database_scale(config) + (pool, order)
    want_engine, want_trace = fresh(config, pool, order)
    got_engine, got_trace = restored(snapshot, pool, order)
    assert engine_state(got_engine, got_trace) == engine_state(
        want_engine, want_trace
    )
    # ... and both behave alike from there on.
    assert run_transactions(got_engine, config, 3) == run_transactions(
        want_engine, config, 3
    )
    assert events(got_trace) == events(want_trace)
    assert engine_state(got_engine, got_trace) == engine_state(
        want_engine, want_trace
    )


@given(
    config=scales,
    pool=st.sampled_from([4, 8, 1024]),
    order=st.sampled_from([4, 8, 64]),
)
def test_restoring_leaves_the_snapshot_unchanged(config, pool, order):
    """One snapshot object restored into two engines: both runs are
    bit-identical and the snapshot is as it was (experiments over one
    store share one snapshot object)."""
    snapshot = snapshot_database(config, pool, order)
    data = snapshot.to_bytes()
    runs = []
    for _ in range(2):
        engine, trace = restored(snapshot, pool, order)
        results = run_transactions(engine, config, 3)
        runs.append(
            (results, events(trace), engine_state(engine, trace))
        )
    assert runs[0] == runs[1]
    assert snapshot.to_bytes() == data


def test_salt_counter_matches_a_recording_trace():
    config = TpcbConfig(branches=2, accounts_per_branch=30)
    counter = SaltCounter()
    load_database(Engine(pool_capacity=8, btree_order=8, trace=counter), config)
    _, trace = fresh(config, 8, 8)
    assert counter.salts == trace.salts > 0


def test_quick_load_draws_3545_salts():
    snapshot = snapshot_database(
        TpcbConfig(branches=8, accounts_per_branch=100), 1024, 64
    )
    assert snapshot.salt == 3545


def test_pool_capacity_is_part_of_the_snapshot():
    config = TpcbConfig(branches=2, accounts_per_branch=30)
    small, large = (snapshot_database(config, pool, 8) for pool in (4, 1024))
    assert small.key != large.key
    # A thrashing pool re-reads evicted pages: more k.read salts.
    assert small.salt > large.salt
    with pytest.raises(DatabaseError, match="restored into pool"):
        small.restore(Engine(pool_capacity=1024, btree_order=8))


@pytest.mark.parametrize("damage", ["truncate", "flip", "magic"])
def test_damaged_bytes_are_rejected(damage):
    data = bytearray(
        snapshot_database(TpcbConfig(branches=1, accounts_per_branch=5), 8, 8)
        .to_bytes()
    )
    if damage == "truncate":
        data = data[: len(data) // 2]
    elif damage == "flip":
        data[len(data) - 100] ^= 0x10
    else:
        data[0] ^= 0x01
    with pytest.raises(DatabaseError):
        DatabaseSnapshot.from_bytes(bytes(data))


@pytest.fixture(scope="module")
def programs():
    from repro.osmodel import KernelCodeConfig, build_kernel_program
    from repro.progen import AppCodeConfig, build_app_program

    return (
        build_app_program(
            AppCodeConfig(scale=0.5, filler_routines=10, filler_instructions=2_000)
        ),
        build_kernel_program(
            KernelCodeConfig(scale=0.5, filler_routines=2, filler_instructions=500)
        ),
    )


@pytest.mark.parametrize("pool", [8, 64])
def test_system_run_from_a_snapshot_equals_one_that_loaded(programs, pool):
    import numpy as np

    from repro.execution import OltpSystem, SystemConfig

    tpcb = TpcbConfig(branches=2, accounts_per_branch=40)
    snapshot = snapshot_database(tpcb, pool, 8)

    def run(database):
        system = OltpSystem(
            *programs, tpcb_config=tpcb,
            system_config=SystemConfig(cpus=2, processes_per_cpu=2),
            pool_capacity=pool, btree_order=8, database=database,
        )
        return system.run(12, warmup=2)

    want, got = run(None), run(snapshot)
    for a, b in zip(want.cpus, got.cpus):
        assert np.array_equal(a.blocks, b.blocks)
        assert np.array_equal(a.pids, b.pids)
    for a, b in zip(want.data_addresses, got.data_addresses):
        assert np.array_equal(a, b)


def test_oltp_system_rejects_a_snapshot_of_another_scale(programs):
    from repro.execution import OltpSystem

    snapshot = snapshot_database(
        TpcbConfig(branches=1, accounts_per_branch=5), 64, 64
    )
    with pytest.raises(ConfigError, match="does not match"):
        OltpSystem(
            *programs, pool_capacity=64, btree_order=64,
            workload=TpcbWorkload(TpcbConfig(branches=2, accounts_per_branch=5)),
            database=snapshot,
        )
