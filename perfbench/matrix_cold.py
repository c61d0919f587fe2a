"""``matrix-cold``: the built-in quick scenario matrix, built from nothing.

The matrix is run one *pipeline group* at a time: the cells that share
one experiment pipeline (same config fingerprint) go through
``run_matrix(group, jobs=1, verify=True)`` together.  Each pass over the
groups starts on a new, empty :class:`ArtifactStore` after dropping the
in-process memos that would otherwise let the pass skip work
(``scenarios.matrix._EXPERIMENT_MEMO`` and the ``lru_cache`` of
``quick_experiment``).  No two groups share a pipeline, so a pass does
exactly the work of one cold ``run_matrix`` over the whole matrix, and
holds the same experiments in memory: codegen, the profiling and
measurement runs, layouts, the ``repro.check`` gate and the store writes
dominate, and simulation is a small share.

Timing a group rather than the whole matrix gives several short samples
of every part of the matrix in one run instead of two or three long
ones; a matrix's time is the sum of the per-group medians, so a slow
spell of the machine that covers one sample of a group does not move it.
A traced run times whole passes, so each ledger sample is one matrix.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List

from perfbench.common import (
    DEFAULT_SEED,
    Context,
    Outcome,
    cpu_seconds,
    iterate,
    median,
    peak_rss_mb,
    percentile,
    seeded_config,
    traced_iterations,
)

#: The committed matrix table the default seed must reproduce.
BASELINE = "benchmarks/baselines/BENCH_scenarios.json"

#: What a fresh process imports before it can run the matrix.
SETUP_IMPORTS = (
    "import repro.scenarios.matrix, repro.scenarios.spec, "
    "repro.harness.store, repro.check"
)


def recovered_mpki_mean(cells: List[Dict]) -> float:
    """Mean base-minus-optimized L1I MPKI over the non-drift cells."""
    values = [
        cell["base_mpki"] - cell["opt_mpki"]
        for cell in cells
        if cell["drift"] == "none" and cell["status"] != "failed"
    ]
    return sum(values) / len(values)


def pipeline_groups(specs) -> List[list]:
    """``specs`` split by experiment pipeline, in order of first use."""
    groups: Dict[str, list] = {}
    for spec in specs:
        groups.setdefault(spec.experiment_config().fingerprint(), []).append(spec)
    return list(groups.values())


def _setup_seconds(ctx: Context) -> float:
    """One set-up: a fresh interpreter importing the workload's modules."""
    env = dict(os.environ, PYTHONPATH=str(ctx.src))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_IMPORTS], env=env, check=True,
        timeout=120,
    )
    return time.perf_counter() - start


def run(ctx: Context, specs=None) -> Outcome:
    """Measure the workload; ``specs`` overrides the matrix (tests)."""
    from repro import obs
    from repro.harness.experiment import quick_experiment
    from repro.harness.store import ArtifactStore
    from repro.scenarios import matrix
    from repro.scenarios.spec import default_matrix

    outcome = Outcome()
    setups = [_setup_seconds(ctx) for _ in range(ctx.setups)]
    config = seeded_config(quick_experiment().config, ctx.seed)

    def reset() -> None:
        matrix._EXPERIMENT_MEMO.clear()
        quick_experiment.cache_clear()
        quick_experiment().config = config

    reset()
    cells = specs if specs is not None else default_matrix(quick=True)
    order = {spec.name: index for index, spec in enumerate(cells)}
    groups = pipeline_groups(cells)
    #: Cell name -> its table row; at the default seed the committed
    #: table, otherwise each cell's first run (later runs must repeat it).
    expected_rows: Dict[str, list] = {}
    if ctx.seed == DEFAULT_SEED and specs is None:
        with open(ctx.root / BASELINE) as handle:
            baseline = json.load(handle)
        expected_rows = {row[0]: row for row in baseline["rows"]}
        expected_recovered = recovered_mpki_mean(baseline["cells"])

    walls: List[List[float]] = [[] for _ in groups]
    cpus: List[List[float]] = [[] for _ in groups]
    #: Cell name -> per run of its group, seconds from the group's
    #: start until the cell's result is persisted.
    finishes: Dict[str, List[float]] = {}
    recovered: List[float] = []
    pass_cells: list = []

    def check_pass(index: int) -> None:
        """The whole-matrix gate over one complete pass's cells."""
        whole = matrix.MatrixResult(
            cells=sorted(pass_cells, key=lambda cell: order[cell.name])
        )
        pass_cells.clear()
        if not whole.passes():
            outcome.fail(f"pass {index}: matrix gate failed")
        recovered.append(recovered_mpki_mean([c.to_dict() for c in whole.cells]))

    store = None

    def run_group(index: int):
        """One group; returns ``(wall, cells, failed cells)``.

        A pass starts from empty memos and a new, empty store; its
        groups then keep their experiments in the memo and their
        products in the store, as one ``run_matrix`` call would.
        """
        nonlocal store
        group = index % len(groups)
        if group == 0:
            reset()
            store = ArtifactStore(ctx.work / f"matrix-{index // len(groups)}")
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        result = matrix.run_matrix(groups[group], store=store, jobs=1, verify=True)
        wall = time.perf_counter() - start
        cpus[group].append(cpu_seconds() - cpu_before)
        walls[group].append(wall)

        failed = [c for c in result.cells if not c.ok]
        outcome.attempted += len(result.cells)
        outcome.failed += len(failed)
        # Cells run serially after the group's pipeline is built, and
        # each is persisted as it finishes: a cell's result is ready
        # once every later cell's time is still ahead.
        remaining = wall
        for cell in reversed(result.cells):
            finishes.setdefault(cell.name, []).append(remaining)
            remaining -= cell.seconds
        if not result.passes():
            outcome.fail(f"run {index}: matrix gate failed")
        if result.simulated != len(result.cells):
            outcome.fail(f"run {index}: cells resumed, not cold")
        for row in json.loads(json.dumps(result.to_table().rows)):
            if expected_rows.setdefault(row[0], row) != row:
                outcome.fail(f"run {index}: row of {row[0]} differs")
        pass_cells.extend(result.cells)
        if group == len(groups) - 1:
            shutil.rmtree(store.root, ignore_errors=True)
            check_pass(index // len(groups))
        return wall, len(result.cells), len(failed)

    def run_pass(index: int):
        """A whole matrix (every group once), for the traced run."""
        retries = obs.counter("pipeline.retries").value
        runs = [run_group(index * len(groups) + g) for g in range(len(groups))]
        total = sum(n for _, n, _ in runs)
        failed = sum(f for _, _, f in runs)
        return sum(wall for wall, _, _ in runs), {
            "scenarios.cells": total,
            "scenarios.cells_failed": failed,
            "failed_frac": failed / total,
            "pipeline.retries": obs.counter("pipeline.retries").value - retries,
        }

    try:
        if ctx.trace:
            outcome.layers, outcome.samples = traced_iterations(
                ctx.seconds, ctx.trace, run_pass
            )
        else:
            iterate(ctx.seconds, run_group, minimum=len(groups))
    finally:
        quick_experiment.cache_clear()
        matrix._EXPERIMENT_MEMO.clear()

    if ctx.seed == DEFAULT_SEED and specs is None:
        if abs(median(recovered) - expected_recovered) > 1e-6:
            outcome.fail(
                f"recovered MPKI {median(recovered):.4f} != committed "
                f"{expected_recovered:.4f}"
            )
    # One matrix is every group once: sum the per-group medians.  A
    # cell's latency is measured from the matrix's start: the median
    # time of the groups before it plus its median finish in its own.
    group_walls = [median(samples) for samples in walls]
    wall = sum(group_walls)
    cell_ms = [
        1000.0 * (sum(group_walls[:index]) + median(finishes[spec.name]))
        for index, group in enumerate(groups)
        for spec in group
    ]
    outcome.metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "cpu_s": sum(median(samples) for samples in cpus),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": percentile(cell_ms, 50),
        "latency_p90_ms": percentile(cell_ms, 90),
        "requests_per_s": len(cells) / wall,
        "recovered_mpki_mean": median(recovered),
    }
    return outcome
