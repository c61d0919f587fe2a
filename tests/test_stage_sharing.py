"""Share keys: stages keyed by what they read reuse one store file.

The programs are keyed by their codegen config and the loaded database
by its scale, pool capacity and B+tree order, so experiments that
differ elsewhere (workload factory, cache salt, seeds) build each once.
A damaged shared file is a store miss that rebuilds the same bytes.
"""

import pickle
import zipfile
from dataclasses import replace

import pytest

from repro import obs
from repro.harness.experiment import Experiment
from repro.harness.store import ArtifactStore, save_snapshot
from repro.osmodel import build_kernel_program
from repro.progen import build_app_program
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
    stage = exp.pipeline.graph.stage(key)
    return exp.store.path(stage.share_key, name)


def npz_members(path):
    """Every array member of an .npz, as raw bytes (the zip entry
    timestamps are the only part that depends on when it was saved)."""
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


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
            second.pipeline.graph.stage(app_key).share_key
            != first.pipeline.graph.stage(app_key).share_key
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
            exp.pipeline.graph.stage("database").share_key
            for exp in (first, second)
        ]
        assert keys[0] == keys[1]
        pools = [
            Experiment(tiny_config(pool_capacity=pool)).pipeline.graph
            .stage("database").share_key
            for pool in (512, 1024)
        ]
        assert pools[0] != pools[1]


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
