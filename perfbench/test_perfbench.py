"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import ledger, matrix_cold, serve_mix, sim_warm  # noqa: E402
from perfbench.common import LAYER_METRICS, UNITS, Context  # noqa: E402

END_TO_END = list(UNITS)


def _ctx(tmp_path, **kwargs) -> Context:
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return Context(root=ROOT, work=work, seconds=0, setups=1, **kwargs)


def _small_matrix():
    from repro.scenarios.spec import default_matrix

    return [s for s in default_matrix(quick=True) if s.name in ("tpcb-i32", "dss-i32")]


def _reported(outcome):
    """The traced result line's per-layer values (zeros filled in)."""
    metrics = outcome.document(True)["metrics"]
    assert list(metrics) == list(LAYER_METRICS)
    return {name: metric["value"] for name, metric in metrics.items()}


@pytest.fixture(scope="module")
def serve_prep():
    return serve_mix.prepare()


# -- smoke runs of every workload --------------------------------------------


def test_matrix_cold_smoke_repeats_work_every_iteration(tmp_path, monkeypatch):
    from perfbench import common

    # Three iterations (traced, untraced, traced): the third must redo
    # every build the first did.
    original = common.iterate
    monkeypatch.setattr(
        common, "iterate",
        lambda seconds, body, minimum=1: original(0, body, minimum=3),
    )
    outcome = matrix_cold.run(_ctx(tmp_path, trace=True), specs=_small_matrix())
    assert outcome.correct, outcome.problems
    assert outcome.attempted == 6 and outcome.failed == 0
    assert set(outcome.metrics) == set(END_TO_END)
    first, last = outcome.samples
    for name in ("layout.builds", "execution.blocks", "check.runs", "ir.expand_instructions"):
        assert first[name] == last[name] > 0, name
    assert last["execution.s"] > 0.5 * first["execution.s"]
    attributed = sum(
        v for k, v in first.items() if ledger.is_time_metric(k) and "per_s" not in k
    )
    assert first.get("sim.grid_s", 0) + first.get("sim.lru_s", 0) < 0.5 * attributed


def test_sim_warm_smoke_traced_split(tmp_path):
    outcome = sim_warm.run(_ctx(tmp_path, trace=True))
    assert outcome.correct, outcome.problems
    layers = _reported(outcome)
    assert layers["layout.builds"] == layers["execution.s"] == 0
    assert layers["progen.s"] == layers["osmodel.s"] == 0
    assert layers["store.misses"] == 0 and layers["store.hits"] > 0
    assert layers["sim.lru_s"] > 0 and layers["sim.grid_s"] > 0
    assert layers["pipeline.fanout_tasks"] > 0
    assert abs(layers["bench.unattributed_frac"]) < 0.25


def test_serve_mix_smoke_and_split(tmp_path, serve_prep):
    outcome = serve_mix.run(_ctx(tmp_path, trace=True), prep=serve_prep)
    assert outcome.correct, outcome.problems
    assert outcome.failed == 0 and outcome.attempted >= 2 * 60
    layers = _reported(outcome)
    assert layers["sim.grid_s"] == layers["sim.lru_s"] == layers["sim.instructions"] == 0
    assert layers["execution.s"] == 0
    assert layers["layout.builds"] > 0 and layers["check.runs"] > 0
    assert layers["serve.cache_disk_hits"] > 0 and layers["serve.optimizations"] > 0
    assert layers["store.write_bytes"] > 0 and layers["store.read_bytes"] > 0
    assert set(outcome.metrics) == set(END_TO_END)


# -- wrappers ------------------------------------------------------------------


def test_wrappers_restore_originals():
    import repro.harness.figures as figures
    import repro.sim as sim
    from repro.harness.store import ArtifactStore
    from repro.layout import SpikeOptimizer
    from repro.pipeline import fanout

    before = (sim.simulate, figures.simulate_grid, SpikeOptimizer.__dict__["layout"],
              ArtifactStore.__dict__["load"], fanout.resilient_map)
    installation = ledger.install(ledger.Ledger())
    try:
        assert ledger.installed()
        assert sim.simulate is not before[0]
        assert figures.simulate_grid is not before[1]
        with pytest.raises(RuntimeError):
            ledger.install(ledger.Ledger())
    finally:
        installation.uninstall()
    after = (sim.simulate, figures.simulate_grid, SpikeOptimizer.__dict__["layout"],
             ArtifactStore.__dict__["load"], fanout.resilient_map)
    assert all(a is b for a, b in zip(before, after))
    assert not ledger.installed()


def test_untraced_run_installs_nothing(tmp_path, monkeypatch):
    def refuse(_ledger):
        raise AssertionError("untraced run installed the ledger")

    monkeypatch.setattr("perfbench.common.install", refuse)
    outcome = sim_warm.run(_ctx(tmp_path))
    assert outcome.correct and outcome.layers == {} and not ledger.installed()


def test_self_time_and_fanout_records():
    import repro.pipeline as pipeline

    book = ledger.Ledger()
    with ledger.install(book):
        pipeline.resilient_map(_lru_task, [0, 1], jobs=2)
    values = book.take()
    assert values["pipeline.fanout_tasks"] == 2
    assert values["sim.instructions"] == 2 * _STREAM_INSTRUCTIONS
    assert values["busy:sim.lru_s"] >= values["sim.lru_s"] > 0


_STREAM_INSTRUCTIONS = 4000


def _lru_task(_index):
    import numpy as np

    from repro.cache import CacheGeometry
    from repro.sim import MemoryHierarchy, simulate

    starts = np.arange(1000, dtype=np.int64) * 64
    counts = np.full(1000, 4, dtype=np.int64)
    hierarchy = MemoryHierarchy.l1i_only(CacheGeometry(32 * 1024, 64, 2))
    return simulate([(starts, counts)], hierarchy).misses


# -- seeds ---------------------------------------------------------------------


def test_second_seed_changes_inputs_and_passes(tmp_path, serve_prep):
    from collections import Counter

    first, second = serve_mix.sequence(0), serve_mix.sequence(1)
    assert first != second
    assert sorted(Counter(first[0][0]).values()) == sorted(Counter(second[0][0]).values())
    outcome = serve_mix.run(_ctx(tmp_path, seed=1), prep=serve_prep)
    assert outcome.correct, outcome.problems

    default = matrix_cold.run(_ctx(tmp_path), specs=_small_matrix())
    other = matrix_cold.run(_ctx(tmp_path, seed=1), specs=_small_matrix())
    assert default.correct and other.correct, other.problems
    assert (default.metrics["recovered_mpki_mean"]
            != other.metrics["recovered_mpki_mean"])

    outcome = sim_warm.run(_ctx(tmp_path, seed=1))
    assert outcome.correct, outcome.problems


# -- correctness checks --------------------------------------------------------


def test_corrupted_references_fail_the_check(tmp_path, serve_prep, monkeypatch):
    real = sim_warm.reference_tables

    def corrupted(ctx, exp):
        tables = real(ctx, exp)
        tables["fig06"][0][1] += 1
        return tables

    monkeypatch.setattr(sim_warm, "reference_tables", corrupted)
    outcome = sim_warm.run(_ctx(tmp_path))
    assert not outcome.correct and "fig06" in outcome.problems[0]

    references = list(serve_prep.references)
    broken = dict(references[0], units=list(reversed(references[0]["units"])))
    prep = serve_mix.Prepared(**{**vars(serve_prep), "references": [broken] + references[1:]})
    outcome = serve_mix.run(_ctx(tmp_path), prep=prep)
    assert not outcome.correct


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-warm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_stop_children_reaps_workers_and_resource_tracker():
    import multiprocessing
    import os
    from multiprocessing import resource_tracker, shared_memory

    from perfbench.common import stop_children

    block = shared_memory.SharedMemory(create=True, size=64)
    block.close()
    block.unlink()
    tracker = resource_tracker._resource_tracker._pid
    worker = multiprocessing.get_context("fork").Process(target=_sleep_briefly)
    worker.start()
    stop_children()
    assert not worker.is_alive() and worker.exitcode == 0
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker, os.WNOHANG)


def _sleep_briefly():
    import time

    time.sleep(0.2)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["matrix-cold", "sim-warm", "serve-mix"]
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS)
