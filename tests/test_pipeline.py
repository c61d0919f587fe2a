"""The stage execution core: stage declaration and cache semantics of
:class:`~repro.pipeline.runner.PipelineRunner`, resilient fan-out, and
crash-resume of a half-finished chain of stages."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import ParallelError, PipelineError
from repro.pipeline.runlog import CACHE_MISS, CACHE_OFF
from repro.harness.store import ArtifactStore
from repro.pipeline import (
    ArtifactSpec,
    PipelineRunner,
    Stage,
    fork_available,
    parallel_map,
    resilient_map,
    shared_state,
)
from repro.pipeline import fanout as fanout_mod
from repro.sim import simulate_grid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def save_json(obj, path):
    path.write_text(json.dumps(obj))


def load_json(path):
    return json.loads(path.read_text())


def json_spec(name):
    return ArtifactSpec(name, load_json, save_json)


def chain_stages(n, prefix="s"):
    """A linear chain s0 <- s1 <- ... <- s(n-1), each build reading its
    predecessor and persisting one JSON artifact."""
    stages = []
    for i in range(n):
        stages.append(
            Stage(
                name=f"{prefix}{i}",
                outputs=(json_spec(f"{prefix}{i}.json"),),
                build=(
                    lambda r, i=i: (r.value(f"{prefix}{i - 1}") if i else 0) + 1
                ),
            )
        )
    return stages


class TestGraphProperties:
    """What the runner kept from the stage graph it replaced."""

    def test_duplicate_key_rejected(self):
        runner = PipelineRunner([Stage(name="a", build=lambda _: 1)])
        with pytest.raises(PipelineError, match="already declared"):
            runner.add(Stage(name="a", build=lambda _: 2))
        runner.add(Stage(name="a", detail="x", build=lambda _: 3))
        assert "a" in runner and "a:x" in runner and "b" not in runner

    def test_unknown_stage_lookup_names_known_stages(self):
        runner = PipelineRunner([Stage(name="a", build=lambda _: 1)])
        with pytest.raises(PipelineError, match="declared stages: a"):
            runner.stage("zzz")
        with pytest.raises(PipelineError, match="declared stages: a"):
            runner.value("zzz")


class TestRunnerCacheSemantics:
    def test_cold_run_builds_then_warm_run_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = PipelineRunner(
            chain_stages(3), store=store, fingerprint="fp"
        )
        assert cold.value("s2") == 3
        assert cold.runlog.cache_states("s2") == [CACHE_MISS]

        warm = PipelineRunner(
            chain_stages(3), store=store, fingerprint="fp"
        )
        assert warm.value("s2") == 3
        assert warm.runlog.all_hits("s2")

    def test_cache_hit_never_forces_dependencies(self, tmp_path):
        store = ArtifactStore(tmp_path)
        PipelineRunner(
            chain_stages(3), store=store, fingerprint="fp"
        ).value("s2")

        built = []
        stages = chain_stages(3)
        spied = [
            Stage(
                name=s.name, outputs=s.outputs,
                build=lambda r, s=s: built.append(s.name) or s.build(r),
            )
            for s in stages
        ]
        warm = PipelineRunner(spied, store=store, fingerprint="fp")
        assert warm.value("s2") == 3
        assert built == []
        assert [r.stage for r in warm.runlog.records] == ["s2"]

    def test_no_store_runs_with_cache_off(self):
        runner = PipelineRunner(chain_stages(2))
        assert runner.value("s1") == 2
        assert runner.runlog.cache_states("s0") == [CACHE_OFF]
        assert runner.runlog.cache_states("s1") == [CACHE_OFF]

    def test_multi_output_stage_misses_when_one_artifact_is_stale(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path)

        def stages():
            return [Stage(
                name="pair",
                outputs=(json_spec("left.json"), json_spec("right.json")),
                build=lambda _: (1, 2),
            )]

        PipelineRunner(stages(), store=store, fingerprint="fp").value("pair")
        store.path("fp", "right.json").unlink()
        rerun = PipelineRunner(stages(), store=store, fingerprint="fp")
        assert rerun.value("pair") == (1, 2)
        assert rerun.runlog.cache_states("pair") == [CACHE_MISS]

    def test_loader_refusal_degrades_to_rebuild(self, tmp_path):
        # A consumer refuses a cached value it does not trust by
        # loading None (AdaptiveRelayout does so for a layout failing
        # the repro.check gate): the stage rebuilds and overwrites it.
        store = ArtifactStore(tmp_path)
        store.save("fp", "g.json", -1, save_json)
        refused = []

        def load_positive(path):
            value = load_json(path)
            if value > 0:
                return value
            refused.append(value)
            return None

        runner = PipelineRunner(
            [Stage(
                name="checked",
                outputs=(ArtifactSpec("g.json", load_positive, save_json),),
                build=lambda _: 7,
            )],
            store=store, fingerprint="fp",
        )
        assert runner.value("checked") == 7
        assert refused == [-1]
        assert runner.runlog.cache_states("checked") == [CACHE_MISS]
        assert load_json(store.path("fp", "g.json")) == 7

    def test_recursive_stage_rejected(self):
        runner = PipelineRunner([Stage(
            name="selfish", build=lambda r: r.value("selfish"),
        )])
        with pytest.raises(PipelineError, match="recursively"):
            runner.value("selfish")

    def test_status_tracks_store_contents(self, tmp_path):
        store = ArtifactStore(tmp_path)
        stages = chain_stages(2) + [
            Stage(name="ephemeral", build=lambda _: None)
        ]
        runner = PipelineRunner(stages, store=store, fingerprint="fp")
        rows = runner.status()
        assert [row.key for row in rows] == ["s0", "s1", "ephemeral"]
        by_key = {row.key: row for row in rows}
        assert by_key["s0"].state == "missing"
        assert by_key["ephemeral"].state == "transient"
        runner.value("s0")
        by_key = {row.key: row for row in runner.status()}
        assert by_key["s0"].state == "ready"
        assert by_key["s0"].bytes > 0
        assert by_key["s1"].state == "missing"


class TestExperimentPipeline:
    def fresh_quick_experiment(self, store):
        # quick_experiment() is lru_cached (same instance each call);
        # these tests need independent memo state over one config.
        from repro.harness.experiment import Experiment
        from repro.harness import quick_experiment

        return Experiment(quick_experiment().config, store=store)

    def test_experiment_persists_every_declared_stage(self, tmp_path):
        # Every persistent stage the experiment declares lands in the
        # store it was constructed with.
        exp = self.fresh_quick_experiment(ArtifactStore(tmp_path))
        _ = exp.app, exp.kernel, exp.profile, exp.trace
        persistent = {
            spec.name
            for stage in exp.declared_stages()
            for spec in stage.outputs
        }
        assert persistent == {
            "app.pkl", "kernel.pkl", "database.snap", "profile-app.npz",
            "profile-kernel.npz", "trace.npz",
        }
        for name in persistent:
            assert exp.store.has(exp.fingerprint, name), name

    def test_warm_replay_hits_every_persistent_stage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = self.fresh_quick_experiment(store)
        _ = first.app, first.kernel, first.profile, first.trace

        hits = obs.counter("pipeline.cache_hits").value
        replay = self.fresh_quick_experiment(store)
        _ = replay.app, replay.kernel, replay.profile, replay.trace
        assert replay.runlog.all_hits("codegen", "profile", "trace")
        assert obs.counter("pipeline.cache_hits").value >= hits + 4


class TestResilientMap:
    def test_retries_parallel_errors_with_backoff(self, monkeypatch):
        calls = []

        def flaky(fn, items, jobs=None, chunksize=1, timeout=None, shared=None):
            calls.append(list(items))
            if len(calls) < 3:
                raise ParallelError("worker died")
            return [fn(item) for item in items]

        monkeypatch.setattr(fanout_mod, "parallel_map", flaky)
        delays = []
        retries = obs.counter("pipeline.retries").value
        result = resilient_map(
            lambda x: x * 2, [1, 2, 3],
            retries=2, backoff=0.5, _sleep=delays.append,
        )
        assert result == [2, 4, 6]
        assert len(calls) == 3
        assert delays == [0.5, 1.0]  # exponential backoff
        assert obs.counter("pipeline.retries").value == retries + 2

    def test_reraises_after_retries_exhausted(self, monkeypatch):
        def always_dead(fn, items, jobs=None, chunksize=1, timeout=None,
                        shared=None):
            raise ParallelError("worker died")

        monkeypatch.setattr(fanout_mod, "parallel_map", always_dead)
        with pytest.raises(ParallelError, match="worker died"):
            resilient_map(
                lambda x: x, [1], retries=1, _sleep=lambda _: None
            )

    def test_other_exceptions_propagate_without_retry(self):
        calls = []

        def broken(x):
            calls.append(x)
            raise ValueError("not a crash")

        with pytest.raises(ValueError, match="not a crash"):
            resilient_map(broken, [1, 2], jobs=1, _sleep=lambda _: None)
        assert calls == [1]

    def test_matches_serial_map(self):
        assert resilient_map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]


class Unpicklable:
    """Shared state that cannot cross a pickle boundary."""

    def __reduce__(self):
        raise TypeError("shared state must not be pickled")


def _read_shared(item):
    state = shared_state()
    return item, state if isinstance(state, (str, tuple)) else type(state).__name__


def _nested_serial(item):
    inner = parallel_map(_read_shared, [item], jobs=1, shared="inner")
    return inner, shared_state()


GRID_SIZES = (1024, 4096)
GRID_LINES = (32, 64)


def _grid_in_worker(_index):
    return simulate_grid(shared_state(), GRID_SIZES, GRID_LINES, jobs=2)


class TestSharedHandoff:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_reaches_tasks(self, jobs):
        results = resilient_map(
            _read_shared, [0, 1, 2], jobs=jobs, shared=("streams", 7)
        )
        assert results == [(i, ("streams", 7)) for i in range(3)]
        assert shared_state() is None

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_forked_workers_inherit_without_pickling(self):
        results = parallel_map(_read_shared, [0, 1], jobs=2, shared=Unpicklable())
        assert results == [(0, "Unpicklable"), (1, "Unpicklable")]

    def test_nested_serial_map_restores_outer_state(self):
        results = parallel_map(_nested_serial, [1, 2], jobs=1, shared="outer")
        assert results == [([(1, "inner")], "outer"), ([(2, "inner")], "outer")]
        assert shared_state() is None

    def test_state_restored_when_a_task_raises(self):
        def boom(_item):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            parallel_map(boom, [1], jobs=1, shared="doomed")
        assert shared_state() is None

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_grid_inside_a_fanout_worker_matches_serial_classic(self):
        rng = np.random.default_rng(11)
        streams = [
            ((rng.integers(0, 16384, size=300) * 4).astype(np.int64),
             rng.integers(1, 40, size=300).astype(np.int64))
            for _ in range(2)
        ]
        expected = simulate_grid(streams, GRID_SIZES, GRID_LINES, engine="classic")
        results = resilient_map(_grid_in_worker, [0, 1], jobs=2, shared=streams)
        assert results == [expected, expected]


class TestCrashResume:
    def test_killed_graph_resumes_from_completed_stages(self, tmp_path):
        """Kill a runner mid-chain (mirroring the scenarios SIGKILL
        test); a rerun must hit the completed stages and build only the
        rest."""
        cache = tmp_path / "cache"
        script = textwrap.dedent("""
            import json, time

            from repro.harness.store import ArtifactStore
            from repro.pipeline import ArtifactSpec, PipelineRunner, Stage

            def save_json(obj, path): path.write_text(json.dumps(obj))
            def load_json(path): return json.loads(path.read_text())

            def build(i):
                def _build(r):
                    if i:
                        r.value(f"s{i-1}")
                        time.sleep(60)  # killed long before finishing
                    return i + 1
                return _build

            stages = [
                Stage(name=f"s{i}",
                      outputs=(ArtifactSpec(f"s{i}.json",
                                            load_json, save_json),),
                      build=build(i))
                for i in range(3)
            ]
            PipelineRunner(stages, store=ArtifactStore(%r),
                           fingerprint="fp").value("s2")
        """ % str(cache))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.time() + 120
            while time.time() < deadline and proc.poll() is None:
                if (cache / "fp" / "s0.json").is_file():
                    break
                time.sleep(0.02)
            assert (cache / "fp" / "s0.json").is_file(), \
                "no stage completed before the kill"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        resumed = PipelineRunner(
            chain_stages(3), store=ArtifactStore(cache), fingerprint="fp",
        )
        assert resumed.value("s2") == 3
        assert resumed.runlog.all_hits("s0")
        assert resumed.runlog.cache_states("s1") == [CACHE_MISS]
        assert resumed.runlog.cache_states("s2") == [CACHE_MISS]
