"""The stage-graph execution core: structural properties of
:class:`~repro.pipeline.graph.StageGraph` (order determinism, cycle
rejection, fingerprint stability), cache semantics and gate hooks of
:class:`~repro.pipeline.runner.PipelineRunner`, resilient fan-out, and
crash-resume of a half-finished graph."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ParallelError, PipelineError, StageGateError
from repro.pipeline.runlog import CACHE_MISS, CACHE_OFF
from repro.harness.store import ArtifactStore
from repro.pipeline import (
    ArtifactSpec,
    PipelineRunner,
    Stage,
    StageGraph,
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
    """A linear chain s0 <- s1 <- ... <- s(n-1), each persisting one
    JSON artifact."""
    stages = []
    for i in range(n):
        inputs = (f"{prefix}{i - 1}",) if i else ()
        stages.append(
            Stage(
                name=f"{prefix}{i}",
                inputs=inputs,
                outputs=(json_spec(f"{prefix}{i}.json"),),
                build=(
                    lambda r, i=i: (r.value(f"{prefix}{i - 1}") if i else 0) + 1
                ),
            )
        )
    return stages


# -- random DAGs for the property tests ----------------------------------

@st.composite
def dags(draw):
    """A random DAG as stages with edges from lower to higher index,
    plus a random insertion order."""
    n = draw(st.integers(min_value=1, max_value=8))
    stages = []
    for i in range(n):
        deps = (
            draw(st.sets(st.integers(min_value=0, max_value=i - 1)))
            if i else set()
        )
        salt = draw(st.sampled_from(["", "v2"]))
        stages.append(
            Stage(
                name=f"n{i}",
                inputs=tuple(f"n{d}" for d in sorted(deps)),
                outputs=(json_spec(f"n{i}.json"),),
                build=lambda _: None,
                cache_salt=salt,
            )
        )
    order = draw(st.permutations(range(n)))
    return stages, order


class TestGraphProperties:
    @given(dags())
    @settings(max_examples=50)
    def test_topological_order_is_insertion_order_independent(self, dag):
        stages, order = dag
        declared = StageGraph(stages).validate()
        shuffled = StageGraph([stages[i] for i in order]).validate()
        assert declared.topological_order() == shuffled.topological_order()

    @given(dags())
    @settings(max_examples=50)
    def test_topological_order_respects_dependencies(self, dag):
        stages, _ = dag
        order = StageGraph(stages).topological_order()
        assert sorted(order) == sorted(s.key for s in stages)
        position = {key: i for i, key in enumerate(order)}
        for stage in stages:
            for dep in stage.inputs:
                assert position[dep] < position[stage.key]

    @given(dags())
    @settings(max_examples=50)
    def test_fingerprint_stable_under_reordering(self, dag):
        stages, order = dag
        declared = StageGraph(stages)
        shuffled = StageGraph([stages[i] for i in order])
        assert declared.fingerprint() == shuffled.fingerprint()

    @given(dags())
    @settings(max_examples=25)
    def test_fingerprint_sensitive_to_cache_salt(self, dag):
        stages, _ = dag
        import dataclasses

        salted = [dataclasses.replace(stages[0], cache_salt="changed")]
        salted.extend(stages[1:])
        assert StageGraph(stages).fingerprint() != \
            StageGraph(salted).fingerprint()

    def test_cycle_rejected(self):
        graph = StageGraph([
            Stage(name="a", inputs=("b",), build=lambda _: 1),
            Stage(name="b", inputs=("a",), build=lambda _: 2),
        ])
        with pytest.raises(PipelineError, match="cycle"):
            graph.validate()

    def test_undeclared_input_rejected(self):
        graph = StageGraph([
            Stage(name="a", inputs=("ghost",), build=lambda _: 1)
        ])
        with pytest.raises(PipelineError, match="undeclared"):
            graph.validate()

    def test_duplicate_key_rejected(self):
        graph = StageGraph([Stage(name="a", build=lambda _: 1)])
        with pytest.raises(PipelineError, match="already declared"):
            graph.add(Stage(name="a", build=lambda _: 2))

    def test_unknown_stage_lookup_names_known_stages(self):
        graph = StageGraph([Stage(name="a", build=lambda _: 1)])
        with pytest.raises(PipelineError, match="declared stages: a"):
            graph.stage("zzz")


class TestRunnerCacheSemantics:
    def test_cold_run_builds_then_warm_run_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = PipelineRunner(
            StageGraph(chain_stages(3)), store=store, fingerprint="fp"
        )
        assert cold.value("s2") == 3
        assert cold.runlog.cache_states("s2") == [CACHE_MISS]

        warm = PipelineRunner(
            StageGraph(chain_stages(3)), store=store, fingerprint="fp"
        )
        assert warm.value("s2") == 3
        assert warm.runlog.all_hits("s2")

    def test_cache_hit_never_forces_dependencies(self, tmp_path):
        store = ArtifactStore(tmp_path)
        PipelineRunner(
            StageGraph(chain_stages(3)), store=store, fingerprint="fp"
        ).run()

        built = []
        stages = chain_stages(3)
        spied = [
            Stage(
                name=s.name, inputs=s.inputs, outputs=s.outputs,
                build=lambda r, s=s: built.append(s.name) or s.build(r),
            )
            for s in stages
        ]
        warm = PipelineRunner(
            StageGraph(spied), store=store, fingerprint="fp"
        )
        assert warm.value("s2") == 3
        assert built == []
        assert [r.stage for r in warm.runlog.records] == ["s2"]

    def test_no_store_runs_with_cache_off(self):
        runner = PipelineRunner(StageGraph(chain_stages(2)))
        assert runner.value("s1") == 2
        assert runner.runlog.cache_states("s0") == [CACHE_OFF]
        assert runner.runlog.cache_states("s1") == [CACHE_OFF]

    def test_multi_output_stage_misses_when_one_artifact_is_stale(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path)

        def graph():
            return StageGraph([Stage(
                name="pair",
                outputs=(json_spec("left.json"), json_spec("right.json")),
                build=lambda _: (1, 2),
            )])

        PipelineRunner(graph(), store=store, fingerprint="fp").run()
        store.path("fp", "right.json").unlink()
        rerun = PipelineRunner(graph(), store=store, fingerprint="fp")
        assert rerun.value("pair") == (1, 2)
        assert rerun.runlog.cache_states("pair") == [CACHE_MISS]

    def test_fresh_gate_failure_raises(self):
        runner = PipelineRunner(StageGraph([Stage(
            name="gated", outputs=(json_spec("g.json"),),
            build=lambda _: -1, gate=lambda value: value > 0,
        )]))
        with pytest.raises(StageGateError, match="gated"):
            runner.value("gated")

    def test_cached_gate_failure_degrades_to_rebuild(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("fp", "g.json", -1, save_json)
        rejected = []
        runner = PipelineRunner(
            StageGraph([Stage(
                name="gated", outputs=(json_spec("g.json"),),
                build=lambda _: 7, gate=lambda value: value > 0,
            )]),
            store=store, fingerprint="fp",
            on_cache_reject=lambda stage, value: rejected.append(
                (stage.key, value)
            ),
        )
        assert runner.value("gated") == 7
        assert rejected == [("gated", -1)]
        assert runner.runlog.cache_states("gated") == [CACHE_MISS]
        assert load_json(store.path("fp", "g.json")) == 7

    def test_persist_writes_every_declared_stage(self, tmp_path):
        # Regression for the hand-maintained stage list persist() used
        # to iterate: a declared stage must never be silently skipped.
        runner = PipelineRunner(StageGraph(chain_stages(4)))
        runner.run()
        runner.store = ArtifactStore(tmp_path)
        assert runner.persist() == 4
        for i in range(4):
            assert runner.store.has("", f"s{i}.json")
        assert runner.persist() == 0  # idempotent

    def test_recursive_stage_rejected(self):
        runner = PipelineRunner(StageGraph([Stage(
            name="selfish", build=lambda r: r.value("selfish"),
        )]))
        with pytest.raises(PipelineError, match="recursively"):
            runner.value("selfish")

    def test_run_rejects_unknown_keys(self):
        runner = PipelineRunner(StageGraph(chain_stages(2)))
        with pytest.raises(PipelineError, match="zzz"):
            runner.run(["s0", "zzz"])

    def test_status_tracks_store_contents(self, tmp_path):
        store = ArtifactStore(tmp_path)
        stages = chain_stages(2) + [
            Stage(name="ephemeral", build=lambda _: None)
        ]
        runner = PipelineRunner(
            StageGraph(stages), store=store, fingerprint="fp"
        )
        by_key = {row.key: row for row in runner.status()}
        assert by_key["s0"].state == "missing"
        assert by_key["ephemeral"].state == "transient"
        runner.run(["s0"])
        by_key = {row.key: row for row in runner.status()}
        assert by_key["s0"].state == "ready"
        assert by_key["s0"].bytes > 0
        assert by_key["s1"].state == "missing"


class TestExperimentPipeline:
    def fresh_quick_experiment(self):
        # quick_experiment() is lru_cached (same instance each call);
        # these tests need independent memo state over one config.
        from repro.harness.experiment import Experiment
        from repro.harness import quick_experiment

        return Experiment(quick_experiment().config)

    def test_experiment_persists_every_declared_stage(self, tmp_path):
        # Satellite regression: Experiment.persist() iterates the
        # declared graph, so every persistent stage lands in a late-
        # attached store -- no name list to forget to update.
        exp = self.fresh_quick_experiment()
        _ = exp.app, exp.kernel, exp.profile, exp.trace
        exp.attach_store(ArtifactStore(tmp_path))
        persistent = {
            spec.name
            for stage in exp.pipeline.graph
            for spec in stage.outputs
        }
        assert persistent == {
            "app.pkl", "kernel.pkl", "profile-app.npz",
            "profile-kernel.npz", "trace.npz",
        }
        for name in persistent:
            assert exp.store.has(exp.fingerprint, name), name

    def test_warm_replay_hits_every_persistent_stage(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = self.fresh_quick_experiment()
        first.attach_store(store)
        _ = first.app, first.kernel, first.profile, first.trace

        hits = obs.counter("pipeline.cache_hits").value
        replay = self.fresh_quick_experiment()
        replay.attach_store(store)
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
        """Kill a runner mid-graph (mirroring the scenarios SIGKILL
        test); a rerun must hit the completed stages and build only the
        rest."""
        cache = tmp_path / "cache"
        script = textwrap.dedent("""
            import json, time

            from repro.harness.store import ArtifactStore
            from repro.pipeline import ArtifactSpec, PipelineRunner, \\
                Stage, StageGraph

            def save_json(obj, path): path.write_text(json.dumps(obj))
            def load_json(path): return json.loads(path.read_text())

            def build(i):
                def _build(r):
                    if i:
                        time.sleep(60)  # killed long before finishing
                    return i + 1
                return _build

            graph = StageGraph([
                Stage(name=f"s{i}",
                      inputs=(f"s{i-1}",) if i else (),
                      outputs=(ArtifactSpec(f"s{i}.json",
                                            load_json, save_json),),
                      build=build(i))
                for i in range(3)
            ])
            PipelineRunner(graph, store=ArtifactStore(%r),
                           fingerprint="fp").run()
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
            StageGraph(chain_stages(3)),
            store=ArtifactStore(cache), fingerprint="fp",
        )
        assert resumed.value("s2") == 3
        assert resumed.runlog.all_hits("s0")
        assert resumed.runlog.cache_states("s1") == [CACHE_MISS]
        assert resumed.runlog.cache_states("s2") == [CACHE_MISS]
