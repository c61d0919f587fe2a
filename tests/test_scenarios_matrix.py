"""Tests for the resumable scenario-matrix runner."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import ScenarioError
from repro.harness.store import ArtifactStore
from repro.scenarios import matrix as matrix_mod
from repro.scenarios.matrix import (
    CELL_SCHEMA_VERSION,
    CellResult,
    MatrixResult,
    _cell_artifact_name,
    run_matrix,
)
from repro.scenarios.spec import HierarchySpec, ScenarioSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tpcb_cells(*sizes_kb):
    """Cells sharing one (quick TPC-B) pipeline, one per L1I size."""
    return [
        ScenarioSpec(
            name=f"tpcb-{kb}k",
            hierarchy=HierarchySpec(l1i_kb=kb, line=64, assoc=1),
            engine="batched",
        )
        for kb in sizes_kb
    ]


def make_cell(name, base=10.0, opt=2.0, **kwargs):
    defaults = dict(
        family="oltp", workload_kind="tpcb", hierarchy="32K/64B/1w",
        combo="all", drift="none", engine="batched", scope="app",
        status="simulated", instructions=100_000,
        base_mpki=base, opt_mpki=opt,
        recovery_pct=100.0 * (base - opt) / base if base else 0.0,
    )
    defaults.update(kwargs)
    return CellResult(name=name, **defaults)


class TestRunAndResume:
    def test_two_cell_run(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        result = run_matrix(tpcb_cells(16, 32), store=store, verify=False)
        assert result.simulated == 2 and result.cached == 0
        assert not result.failed
        small, large = result.cells
        assert small.instructions == large.instructions > 0
        # A smaller cache misses at least as much, both ways.
        assert small.base_mpki >= large.base_mpki
        assert all(c.opt_mpki < c.base_mpki for c in result.cells)

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        specs = tpcb_cells(16, 32)
        first = run_matrix(specs, store=store, verify=False)
        simulated = []
        original = matrix_mod._simulate_misses

        def recording(spec, streams):
            simulated.append(spec.name)
            return original(spec, streams)

        monkeypatch.setattr(matrix_mod, "_simulate_misses", recording)
        second = run_matrix(specs, store=store, verify=False)
        assert simulated == []
        assert second.cached == 2 and second.simulated == 0
        for before, after in zip(first.cells, second.cells):
            assert after.status == "cached"
            assert after.base_misses == before.base_misses
            assert after.opt_misses == before.opt_misses

    def test_fresh_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        specs = tpcb_cells(16)
        run_matrix(specs, store=store, verify=False)
        again = run_matrix(specs, store=store, verify=False, fresh=True)
        assert again.simulated == 1 and again.cached == 0

    def test_corrupt_cached_cell_degrades_to_recompute(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        specs = tpcb_cells(16)
        run_matrix(specs, store=store, verify=False)
        path = store.path(
            specs[0].experiment_config().fingerprint(),
            _cell_artifact_name(specs[0]),
        )
        path.write_text('{"schema": -1}')
        result = run_matrix(specs, store=store, verify=False)
        assert result.simulated == 1 and result.cached == 0

    def test_renamed_cell_reuses_cached_result(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_matrix(tpcb_cells(16), store=store, verify=False)
        renamed = tpcb_cells(16)[0]
        renamed = ScenarioSpec(**{**renamed.__dict__, "name": "alias-16k"})
        result = run_matrix([renamed], store=store, verify=False)
        assert result.cached == 1
        assert result.cells[0].name == "alias-16k"

    def test_failed_cell_does_not_kill_the_sweep(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "cache")
        original = matrix_mod._simulate_misses

        def sabotaged(spec, streams):
            if spec.name == "tpcb-16k":
                raise RuntimeError("boom")
            return original(spec, streams)

        monkeypatch.setattr(matrix_mod, "_simulate_misses", sabotaged)
        result = run_matrix(tpcb_cells(16, 32), store=store, verify=False)
        assert [c.name for c in result.failed] == ["tpcb-16k"]
        assert "boom" in result.failed[0].error
        assert result.simulated == 1
        assert not result.passes()
        assert "FAILED tpcb-16k" in result.render()
        # The failed cell was not persisted: the next run retries it.
        assert not store.has(
            tpcb_cells(16)[0].experiment_config().fingerprint(),
            _cell_artifact_name(tpcb_cells(16)[0]),
        )

    def test_gate_runs_by_default(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        result = run_matrix(tpcb_cells(16), store=store)
        assert result.cells[0].gate_ok
        assert result.cells[0].gate_errors == 0

    def test_cells_of_one_pipeline_gate_and_place_each_layout_once(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import experiment as experiment_mod

        calls = {"check_all": 0, "assign_addresses": 0}

        def counting(name):
            original = getattr(experiment_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiment_mod, name, counting(name))
        monkeypatch.setattr(matrix_mod, "_EXPERIMENT_MEMO", {})
        result = run_matrix(
            tpcb_cells(16, 32), store=ArtifactStore(tmp_path / "cache")
        )
        assert all(cell.gate_ok for cell in result.cells)
        # One gate for the shared (all, measured) layout, and one
        # placement each for app base, app all and the kernel base.
        assert calls == {"check_all": 1, "assign_addresses": 3}

    def test_empty_matrix_rejected(self):
        with pytest.raises(ScenarioError, match="at least one"):
            run_matrix([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            run_matrix(tpcb_cells(16) + tpcb_cells(16))


class TestExperimentMemo:
    """One experiment per pipeline per process, whatever the fan-out."""

    SHARED = ("codegen", "database", "profile", "trace")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_reuse_the_warmed_experiment(self, tmp_path, monkeypatch, jobs):
        monkeypatch.setattr(matrix_mod, "_EXPERIMENT_MEMO", {})
        store = ArtifactStore(tmp_path / "cache")
        specs = tpcb_cells(16, 32)
        exp = matrix_mod._experiment_for(specs[0], store)
        _ = exp.trace, exp.profile
        warmed = len(exp.runlog.records)

        def rebuilt():
            return [
                r.stage for r in exp.runlog.records[warmed:]
                if r.stage in self.SHARED
            ]

        original = matrix_mod._simulate_misses

        def checked(spec, streams):
            # At jobs=2 this runs in a forked worker, where a failed
            # check comes back as a failed cell.
            fingerprint = spec.experiment_config().fingerprint()
            assert matrix_mod._EXPERIMENT_MEMO[fingerprint] is exp
            assert not rebuilt(), rebuilt()
            return original(spec, streams)

        monkeypatch.setattr(matrix_mod, "_simulate_misses", checked)
        result = run_matrix(specs, store=store, jobs=jobs, verify=False)
        assert not result.failed, [cell.error for cell in result.failed]
        assert result.simulated == 2
        assert not rebuilt(), rebuilt()

    def test_a_store_replaces_a_storeless_entry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matrix_mod, "_EXPERIMENT_MEMO", {})
        spec = tpcb_cells(16)[0]
        storeless = matrix_mod._experiment_for(spec, None)
        assert storeless.store is None
        store = ArtifactStore(tmp_path / "cache")
        exp = matrix_mod._experiment_for(spec, store)
        assert exp.store is store
        assert matrix_mod._experiment_for(spec, None) is exp
        _ = exp.trace
        for name in ("app.pkl", "kernel.pkl", "trace.npz"):
            assert store.has(exp.fingerprint, name), name


class TestCrashResume:
    def test_killed_sweep_resumes_without_resimulating(self, tmp_path):
        """Kill the runner mid-sweep; completed cells must come back
        from the store and must not be simulated again."""
        cache = tmp_path / "cache"
        store = ArtifactStore(cache)
        specs = tpcb_cells(8, 16, 32, 64)
        # Warm the shared pipeline into the store so the subprocess
        # spends its time in per-cell simulation, not codegen.
        exp = matrix_mod._experiment_for(specs[0], store)
        _ = exp.trace
        script = textwrap.dedent("""
            from repro.harness.store import ArtifactStore
            from repro.scenarios.matrix import run_matrix
            from repro.scenarios.spec import HierarchySpec, ScenarioSpec

            specs = [
                ScenarioSpec(
                    name=f"tpcb-{kb}k",
                    hierarchy=HierarchySpec(l1i_kb=kb, line=64, assoc=1),
                    engine="batched",
                )
                for kb in (8, 16, 32, 64)
            ]
            run_matrix(specs, store=ArtifactStore(%r), verify=False)
        """ % str(cache))
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            REPRO_CACHE_DIR=str(cache),
        )
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.time() + 120
            fingerprint = specs[0].experiment_config().fingerprint()
            while time.time() < deadline and proc.poll() is None:
                done = list((cache / fingerprint).glob("scenario-*.json"))
                if done:
                    break
                time.sleep(0.02)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        completed = list((cache / fingerprint).glob("scenario-*.json"))
        assert completed, "no cell completed before the kill"

        simulated = []
        original = matrix_mod._simulate_misses

        def recording(spec, streams):
            simulated.append(spec.name)
            return original(spec, streams)

        from unittest import mock

        with mock.patch.object(
            matrix_mod, "_simulate_misses", recording
        ):
            result = run_matrix(specs, store=store, verify=False)
        assert not result.failed
        assert result.cached >= 1
        assert result.cached + result.simulated == len(specs)
        resumed = {c.name for c in result.cells if c.status == "cached"}
        assert resumed.isdisjoint(set(simulated))


class TestRollups:
    def result(self):
        return MatrixResult(cells=[
            make_cell("tpcb-a", base=30.0, opt=3.0),
            make_cell("tpcb-b", base=10.0, opt=2.0),
            make_cell("dss-a", base=4.0, opt=0.5, family="dss",
                      workload_kind="dss"),
            make_cell("tpcb-drift", base=25.0, opt=3.0, drift="shift"),
        ])

    def test_family_sensitivity_ranks_by_recovered_mpki(self):
        ranked = self.result().family_sensitivity()
        assert [family for family, _, _, _ in ranked] == ["oltp", "dss"]
        oltp = ranked[0]
        assert oltp[1] == pytest.approx((27.0 + 8.0) / 2)
        assert oltp[3] == 2  # the drifted cell is excluded

    def test_ordering_ok_compares_absolute_recovery(self):
        assert self.result().ordering_ok()
        inverted = MatrixResult(cells=[
            make_cell("tpcb-a", base=2.0, opt=1.0),
            make_cell("dss-a", base=9.0, opt=1.0, family="dss"),
        ])
        assert not inverted.ordering_ok()
        assert not inverted.passes()

    def test_ordering_vacuous_without_both_families(self):
        only_oltp = MatrixResult(cells=[make_cell("tpcb-a")])
        assert only_oltp.ordering_ok()

    def test_gate_failure_fails_the_matrix(self):
        result = self.result()
        result.cells[0].gate_ok = False
        assert not result.passes()

    def test_document_shape(self):
        document = self.result().to_document()
        assert document["columns"][0] == "scenario"
        assert len(document["cells"]) == 4
        assert document["ordering_ok"] == 1
        assert document["gate_ok"] == 1
        families = {f["family"] for f in document["families"]}
        assert families == {"oltp", "dss"}

    def test_table_skips_failed_cells(self):
        result = self.result()
        result.cells.append(make_cell("broken", status="failed"))
        table = result.to_table()
        assert all(row[0] != "broken" for row in table.rows)
