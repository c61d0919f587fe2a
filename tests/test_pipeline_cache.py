"""Tests for the cached, parallel experiment pipeline: config
fingerprints, the ArtifactStore cold/warm cycle, corruption fallback,
and serial/parallel output equality."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.execution import SystemConfig
from repro.harness import (
    ArtifactStore,
    Experiment,
    ExperimentConfig,
    figures,
)
from repro.osmodel import KernelCodeConfig
from repro.pipeline import parallel_map, resolve_jobs
from repro.progen import AppCodeConfig
from repro.workloads import TpcbConfig


def tiny_config(**overrides):
    """A deliberately small pipeline so each test run stays sub-second."""
    base = dict(
        app=AppCodeConfig(scale=0.5, filler_routines=30, filler_instructions=10_000),
        kernel=KernelCodeConfig(scale=0.5, filler_routines=10, filler_instructions=2_000),
        tpcb=TpcbConfig(branches=2, accounts_per_branch=50),
        system=SystemConfig(cpus=2, processes_per_cpu=2),
        profile_transactions=12,
        measure_transactions=12,
        warmup_transactions=2,
        pool_capacity=256,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert tiny_config().fingerprint() == tiny_config().fingerprint()

    def test_sensitive_to_config_changes(self):
        fingerprints = {
            tiny_config().fingerprint(),
            tiny_config(measure_transactions=13).fingerprint(),
            tiny_config(tpcb=TpcbConfig(branches=3, accounts_per_branch=50)).fingerprint(),
            tiny_config(cache_salt="other").fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_workload_factory_requires_salt(self):
        config = tiny_config(workload_factory=lambda tpcb, offset: None)
        with pytest.raises(ConfigError):
            config.fingerprint()

    def test_workload_factory_excluded_given_salt(self):
        salted = tiny_config(cache_salt="dss")
        with_factory = tiny_config(
            cache_salt="dss", workload_factory=lambda tpcb, offset: None
        )
        assert salted.fingerprint() == with_factory.fingerprint()

    def test_workload_factory_typed_as_callable(self):
        fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
        assert "Callable" in str(fields["workload_factory"].type)


class TestArtifactStoreRoundtrip:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = Experiment(tiny_config(), store=store)
        cold_grid = figures.fig04_cache_sweep(cold, "all")
        assert "miss" in cold.runlog.cache_states("codegen")
        assert cold.runlog.cache_states("profile") == ["miss"]
        assert cold.runlog.cache_states("trace") == ["miss"]

        warm = Experiment(tiny_config(), store=store)
        warm_grid = figures.fig04_cache_sweep(warm, "all")
        _ = warm.profile
        assert warm.runlog.all_hits("codegen", "profile", "trace", "layout")
        assert warm_grid == cold_grid

    def test_warm_products_bit_identical(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = Experiment(tiny_config(), store=store)
        warm = Experiment(tiny_config(), store=store)
        _ = cold.profile, cold.trace
        _ = warm.profile, warm.trace
        assert np.array_equal(cold.profile.block_counts, warm.profile.block_counts)
        assert dict(cold.profile.edge_counts) == dict(warm.profile.edge_counts)
        for mine, theirs in zip(cold.trace.cpus, warm.trace.cpus):
            assert np.array_equal(mine.blocks, theirs.blocks)
            assert np.array_equal(mine.pids, theirs.pids)
        assert [u.name for u in cold.layout("all").units] == \
            [u.name for u in warm.layout("all").units]

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        cold = Experiment(tiny_config(), store=store)
        _ = cold.trace
        reference = cold.trace.cpus[0].blocks.copy()
        fingerprint = cold.fingerprint
        store.path(fingerprint, "trace.npz").write_bytes(b"not a trace")
        store.path(fingerprint, "layout-all.json").write_text("{broken json")

        recovered = Experiment(tiny_config(), store=store)
        assert np.array_equal(recovered.trace.cpus[0].blocks, reference)
        assert recovered.runlog.cache_states("trace") == ["miss"]
        assert [u.name for u in recovered.layout("all").units] == \
            [u.name for u in cold.layout("all").units]

    def test_stale_entry_for_other_binary_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        small = Experiment(tiny_config(), store=store)
        _ = small.profile
        # Forge a cache dir collision: copy the small experiment's
        # profile under a bigger config's fingerprint.
        other_config = tiny_config(
            app=AppCodeConfig(scale=1.0, filler_routines=60, filler_instructions=20_000)
        )
        forged = store.prepare(other_config.fingerprint(), "profile-app.npz")
        forged.write_bytes(
            store.path(small.fingerprint, "profile-app.npz").read_bytes()
        )
        other = Experiment(other_config, store=store)
        _ = other.profile  # must reject the stale entry, not crash
        assert other.runlog.cache_states("profile") == ["miss"]

    def test_store_info_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        assert store.info().experiments == 0
        exp = Experiment(tiny_config(), store=store)
        _ = exp.trace
        info = store.info()
        assert info.experiments == 1
        assert info.files >= 3  # app.pkl, kernel.pkl, trace.npz
        assert info.total_bytes > 0
        assert store.clear() == 1
        assert store.info().experiments == 0

    def test_static_layouts_persist(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        exp = Experiment(tiny_config(), store=store)
        assert exp.layout("all", "static") is exp.layout("all", "static")
        assert exp.kernel_layout("all", "static").units
        written = {
            path.name for path in (store.root / exp.fingerprint).iterdir()
        }
        static = {"layout-static-all.json", "klayout-static-all.json"}
        assert written & static == static

    def test_no_store_means_cache_off(self):
        exp = Experiment(tiny_config())
        _ = exp.trace
        assert exp.runlog.cache_states("trace") == ["off"]


class TestParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def exp(self):
        return Experiment(tiny_config())

    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=4) == [i * i for i in items]

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1

    def test_fig04_jobs4_matches_serial(self, exp):
        serial = figures.fig04_table(
            figures.fig04_cache_sweep(exp, "base", jobs=1), "base"
        ).render()
        parallel = figures.fig04_table(
            figures.fig04_cache_sweep(exp, "base", jobs=4), "base"
        ).render()
        assert parallel == serial

    def test_fig06_jobs4_matches_serial(self, exp):
        serial = figures.fig06_associativity(exp, jobs=1).render()
        parallel = figures.fig06_associativity(exp, jobs=4).render()
        assert parallel == serial

    def test_fig07_jobs4_matches_serial(self, exp):
        combos = ("base", "chain")
        serial = figures.fig07_ablation(exp, combos=combos, jobs=1).render()
        parallel = figures.fig07_ablation(exp, combos=combos, jobs=4).render()
        assert parallel == serial


def _square(value):
    return value * value
