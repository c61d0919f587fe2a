"""Share keys: stages keyed by what they read reuse one store file.

The programs are keyed by their codegen config and the loaded database
by its scale, pool capacity and B+tree order, so experiments that
differ elsewhere (workload factory, cache salt, seeds) build each once.
Over one store they also share one in-memory object of each, with its
compiled walker templates.  A damaged shared file is a store miss that
rebuilds the same bytes.
"""

import hashlib
import os
import pickle
import zipfile
from dataclasses import replace

import pytest

from repro import obs
from repro.execution import interpreter
from repro.harness.experiment import Experiment
from repro.harness.store import ArtifactStore, save_snapshot
from repro.osmodel import build_kernel_program
from repro.progen import build_app_program
from repro.scenarios import matrix as matrix_mod
from repro.scenarios.spec import default_matrix
from repro.workloads import TpcbConfig, TpcbWorkload, snapshot_database

from tests.test_pipeline_cache import tiny_config


def other_workload(tpcb, _offset):
    return TpcbWorkload(tpcb)


def stage_states(exp):
    """``name[detail]`` -> cache state of each run-log record."""
    return {
        (f"{r.stage}[{r.detail}]" if r.detail else r.stage): r.cache
        for r in exp.runlog.records
    }


def shared_path(exp, key, name):
    stage = exp.pipeline.stage(key)
    return exp.store.path(stage.share_key, name)


def npz_members(path):
    """Every array member of an .npz, as raw bytes (the zip entry
    timestamps are the only part that depends on when it was saved)."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def counters(*names):
    return {name: obs.counter(name).value for name in names}


def other_config():
    return replace(
        tiny_config(), workload_factory=other_workload, cache_salt="other"
    )


class TestSharing:
    def test_workload_only_configs_share_programs_and_database(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = Experiment(tiny_config(), store=store)
        _ = first.trace
        config = replace(
            tiny_config(), workload_factory=other_workload, cache_salt="other"
        )
        second = Experiment(config, store=store)
        assert second.fingerprint != first.fingerprint
        _ = second.trace
        states = stage_states(second)
        assert states["codegen[app]"] == "hit"
        assert states["codegen[kernel]"] == "hit"
        assert states["database"] == "hit"
        assert states["trace"] == "miss"
        assert pickle.dumps(second.app) == pickle.dumps(
            build_app_program(config.app)
        )
        assert pickle.dumps(second.kernel) == pickle.dumps(
            build_kernel_program(config.kernel)
        )
        for exp in (first, second):
            for name in ("app.pkl", "kernel.pkl", "database.snap"):
                assert store.has(exp.fingerprint, name), (exp.fingerprint, name)
        inodes = {
            store.path(exp.fingerprint, name).stat().st_ino
            for exp in (first, second)
            for name in ("app.pkl",)
        }
        assert len(inodes) == 1

    def test_an_app_change_does_not_share_the_app(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = Experiment(tiny_config(), store=store)
        _ = first.app, first.kernel
        base = tiny_config()
        config = replace(base, app=replace(base.app, filler_routines=31))
        second = Experiment(config, store=store)
        app_key = "codegen:app"
        assert (
            second.pipeline.stage(app_key).share_key
            != first.pipeline.stage(app_key).share_key
        )
        _ = second.app, second.kernel
        states = stage_states(second)
        assert states["codegen[app]"] == "miss"
        # The kernel and database do not read config.app.
        assert states["codegen[kernel]"] == "hit"
        assert pickle.dumps(second.app) != pickle.dumps(first.app)

    def test_experiment_file_exists_after_build_and_after_share_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        built = Experiment(tiny_config(), store=store)
        _ = built.app
        assert store.path(built.fingerprint, "app.pkl").is_file()
        assert shared_path(built, "codegen:app", "app.pkl").is_file()
        config = replace(
            tiny_config(), workload_factory=other_workload, cache_salt="other"
        )
        linked = Experiment(config, store=store)
        states = {row.key: row.state for row in linked.pipeline.status()}
        assert states["codegen:app"] == "ready"  # a replay would link it
        assert states["trace"] == "missing"
        _ = linked.app
        assert stage_states(linked)["codegen[app]"] == "hit"
        assert store.path(linked.fingerprint, "app.pkl").is_file()
        assert store.info().experiments == 2

    def test_seed_is_not_part_of_the_database_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = Experiment(tiny_config(), store=store)
        base = tiny_config()
        second = Experiment(
            replace(base, tpcb=replace(base.tpcb, seed=base.tpcb.seed + 7)),
            store=store,
        )
        keys = [
            exp.pipeline.stage("database").share_key
            for exp in (first, second)
        ]
        assert keys[0] == keys[1]
        pools = [
            Experiment(tiny_config(pool_capacity=pool)).pipeline
            .stage("database").share_key
            for pool in (512, 1024)
        ]
        assert pools[0] != pools[1]


class TestHeldValues:
    def test_second_pipeline_gets_the_same_objects_and_templates(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        first = Experiment(tiny_config(), store=store)
        _ = first.trace
        compiled = []
        build = interpreter._RoutineCompiler.build

        def counting(compiler):
            compiled.append(compiler.spec.name)
            return build(compiler)

        monkeypatch.setattr(interpreter._RoutineCompiler, "build", counting)
        before = counters("store.shared_hits", "store.hits")
        second = Experiment(other_config(), store=store)
        _ = second.trace
        assert stage_states(second)["trace"] == "miss"
        assert second.app is first.app
        assert second.kernel is first.kernel
        assert second.pipeline.value("database") is first.pipeline.value(
            "database"
        )
        assert compiled == []
        after = counters("store.shared_hits", "store.hits")
        assert after["store.shared_hits"] == before["store.shared_hits"] + 3
        assert after["store.hits"] == before["store.hits"]

    def test_rewrite_within_one_clock_tick_is_a_miss(self, tmp_path):
        """A coarse file-system clock can give an in-place rewrite the
        held (inode, size, mtime); the digest of a fresh file catches it."""
        store = ArtifactStore(tmp_path)
        path = store.prepare("shared-x", "blob")
        path.write_bytes(b"abcd")
        store.hold("shared-x", "blob", "value", "shared-x")
        assert store.recall("shared-x", "blob") == "value"
        mtime = path.stat().st_mtime_ns
        path.write_bytes(b"abce")
        os.utime(path, ns=(mtime, mtime))
        assert store.recall("shared-x", "blob") is None
        assert store.recall("shared-x", "blob") is None  # dropped

    def test_a_new_store_holds_nothing(self, tmp_path):
        first = Experiment(tiny_config(), store=ArtifactStore(tmp_path))
        _ = first.app
        second = Experiment(other_config(), store=ArtifactStore(tmp_path))
        _ = second.app
        assert stage_states(second)["codegen[app]"] == "hit"
        assert second.app is not first.app

    def test_clear_drops_held_values(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = Experiment(tiny_config(), store=store)
        _ = first.app
        store.clear()
        second = Experiment(other_config(), store=store)
        _ = second.app
        assert stage_states(second)["codegen[app]"] == "miss"
        assert second.app is not first.app


def trace_digests(store, exp):
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in npz_members(
            store.path(exp.fingerprint, "trace.npz")
        ).items()
    }


def test_sharing_one_store_equals_a_store_per_experiment(
    tmp_path, monkeypatch
):
    """Two workloads over one store (the second pipeline takes the
    first's held programs and database) give the same traces and table
    rows as each workload over its own store."""
    specs = [
        spec for spec in default_matrix(quick=True)
        if spec.name in ("tpcb-i32", "dss-i32")
    ]
    assert len(specs) == 2

    def run(stores):
        monkeypatch.setattr(matrix_mod, "_EXPERIMENT_MEMO", {})
        shared = obs.counter("store.shared_hits").value
        rows, digests = [], []
        for group, store in stores:
            rows += matrix_mod.run_matrix(group, store=store).to_table().rows
            for spec in group:
                exp = matrix_mod._experiment_for(spec, store)
                digests.append(trace_digests(store, exp))
        return rows, digests, obs.counter("store.shared_hits").value - shared

    one = ArtifactStore(tmp_path / "one")
    rows, digests, shared = run([(specs, one)])
    assert shared == 3
    alone = [
        ([spec], ArtifactStore(tmp_path / spec.name)) for spec in specs
    ]
    assert run(alone) == (rows, digests, 0)


class TestDatabaseArtifactRobustness:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """The trace of an undamaged run."""
        store = ArtifactStore(tmp_path_factory.mktemp("reference"))
        exp = Experiment(tiny_config(), store=store)
        _ = exp.trace
        return npz_members(store.path(exp.fingerprint, "trace.npz"))

    @pytest.mark.parametrize("damage", ["truncate", "flip", "wrong-scale"])
    def test_damaged_database_is_a_miss_then_rebuilt(
        self, tmp_path, reference, damage
    ):
        store = ArtifactStore(tmp_path)
        first = Experiment(tiny_config(), store=store)
        first.pipeline.value("database")
        path = store.path(first.fingerprint, "database.snap")
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            path.write_bytes(bytes(data[: len(data) // 3]))
        elif damage == "flip":
            data[len(data) // 2] ^= 0x04
            path.write_bytes(bytes(data))
        else:
            config = tiny_config()
            wrong = replace(config.tpcb, branches=config.tpcb.branches + 1)
            save_snapshot(
                snapshot_database(wrong, config.pool_capacity, config.btree_order),
                path,
            )
        # In-place damage reaches the shared link too.
        shared = shared_path(first, "database", "database.snap")
        assert shared.stat().st_ino == path.stat().st_ino

        errors = obs.counter("store.errors").value
        second = Experiment(tiny_config(), store=store)
        _ = second.trace
        assert stage_states(second)["database"] == "miss"
        assert obs.counter("store.errors").value == errors + 1
        assert npz_members(store.path(second.fingerprint, "trace.npz")) == reference
        # The rebuild healed both names with one new file.
        assert shared.stat().st_ino == path.stat().st_ino
        third = Experiment(tiny_config(), store=store)
        third.pipeline.value("database")
        assert stage_states(third)["database"] == "hit"

    def test_quick_pools_share_a_salt_count_but_not_a_key(self):
        tpcb = TpcbConfig(branches=8, accounts_per_branch=100)
        small, large = (snapshot_database(tpcb, pool, 64) for pool in (512, 1024))
        assert small.key != large.key
        # All 43 pages stay resident in either pool, so the loads are
        # alike; only the key (and so the later runs) tells them apart.
        assert small.salt == large.salt == 3545

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    @pytest.mark.parametrize(
        "key, name", [("codegen:app", "app.pkl"), ("codegen:kernel", "kernel.pkl")]
    )
    def test_damaged_program_is_a_miss_then_rebuilt(
        self, tmp_path, reference, key, name, damage
    ):
        store = ArtifactStore(tmp_path)
        first = Experiment(tiny_config(), store=store)
        first.pipeline.value(key)
        path = store.path(first.fingerprint, name)
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            path.write_bytes(bytes(data[: len(data) // 3]))
        else:
            # Same size, same inode: one bit in the middle of the
            # pickled program, which only the checksum catches.
            data[len(data) // 2] ^= 0x04
            path.write_bytes(bytes(data))

        errors = obs.counter("store.errors").value
        second = Experiment(tiny_config(), store=store)
        _ = second.trace
        assert stage_states(second)[f"codegen[{key.split(':')[1]}]"] == "miss"
        assert obs.counter("store.errors").value == errors + 1
        assert npz_members(store.path(second.fingerprint, "trace.npz")) == reference
        third = Experiment(tiny_config(), store=store)
        assert third.pipeline.value(key) is second.pipeline.value(key)
