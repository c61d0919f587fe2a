"""``sim-warm``: three simulation figures over a populated store.

Set-up builds the quick experiment's products (programs, profile,
trace, the ``base`` and ``all`` layouts) and persists them.  Each
iteration opens a *new* :class:`Experiment` over that store -- so the
programs, trace and layouts are read back from disk and no address map
is memoized -- and runs, with ``jobs=2``:

* ``fig04_cache_sweep`` for ``base`` and ``all`` (batched direct-mapped
  grid, one forked worker per stream);
* ``fig06_associativity`` (per-access LRU cells through
  ``resilient_map`` and ``StreamHandoff``);
* ``fig14_itlb_l2`` (L1I tag array, 6-way L2, L1D and a 64-entry iTLB
  over the combined streams).

Nothing is built, so the time goes to store reads, span expansion, the
simulation engines and the fork fan-out.
"""

from __future__ import annotations

import json
import shutil
import time
from typing import Dict, List

from perfbench.common import (
    DEFAULT_SEED,
    Context,
    Outcome,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    seeded_config,
    timed,
    traced_iterations,
)

#: Committed fig04 grids the default seed must reproduce.
FIG04_BASELINES = {
    "base": "benchmarks/baselines/BENCH_fig04_base.json",
    "all": "benchmarks/baselines/BENCH_fig04_all.json",
}
#: fig06/fig14 tables recorded with ``perfbench/record_reference.py``.
REFERENCE = "perfbench/reference/sim_warm.json"
#: The geometry of ``recovered_mpki_mean`` (the matrix's i32 cells).
RECOVERY_CELL = (32 * 1024, 64)
JOBS = 2


def _build(config, root) -> None:
    """Compute and persist every product the figures read."""
    from repro.harness.experiment import Experiment
    from repro.harness.store import ArtifactStore

    exp = Experiment(config, store=ArtifactStore(root))
    for combo in ("base", "all"):
        exp.layout(combo)
    _ = exp.kernel
    _ = exp.trace


def run_figures(exp, engine: str = "batched", jobs: int = JOBS):
    """Run the three figures; returns ``(tables, fig04 grids, seconds
    per figure)`` with the tables as JSON-comparable rows."""
    from repro.harness import figures as fig

    marks = [time.perf_counter()]
    grids = {
        combo: fig.fig04_cache_sweep(exp, combo, jobs=jobs, engine=engine)
        for combo in ("base", "all")
    }
    marks.append(time.perf_counter())
    fig06 = fig.fig06_associativity(exp, jobs=jobs)
    marks.append(time.perf_counter())
    fig14 = fig.fig14_itlb_l2(exp)
    marks.append(time.perf_counter())
    tables = {f"fig04_{c}": fig.fig04_table(g, c).rows for c, g in grids.items()}
    tables["fig06"] = fig06.rows
    tables["fig14"] = fig14.rows
    seconds = [end - start for start, end in zip(marks, marks[1:])]
    return json.loads(json.dumps(tables)), grids, seconds


def reference_tables(ctx: Context, exp) -> Dict[str, list]:
    """What every iteration must reproduce.

    The default seed compares against the committed fig04 baselines and
    the recorded fig06/fig14 reference; other seeds against a serial
    run with the classic fig04 engine, computed once here.
    """
    if ctx.seed != DEFAULT_SEED:
        return run_figures(exp, engine="classic", jobs=1)[0]
    tables = {}
    for combo, path in FIG04_BASELINES.items():
        with open(ctx.root / path) as handle:
            tables[f"fig04_{combo}"] = json.load(handle)["rows"]
    with open(ctx.root / REFERENCE) as handle:
        recorded = json.load(handle)
    tables["fig06"] = recorded["fig06"]
    tables["fig14"] = recorded["fig14"]
    return tables


def run(ctx: Context) -> Outcome:
    """Measure the workload."""
    from repro.harness.experiment import Experiment, quick_experiment
    from repro.harness.store import ArtifactStore

    outcome = Outcome()
    config = seeded_config(quick_experiment().config, ctx.seed)
    setups: List[float] = []
    for index in range(ctx.setups):
        root = ctx.work / f"warm-setup-{index}"
        setups.append(timed(lambda: _build(config, root)))
        if index:
            shutil.rmtree(root)
    store_root = ctx.work / "warm-setup-0"

    prep = Experiment(config, store=ArtifactStore(store_root))
    expected = reference_tables(ctx, prep)
    base_instructions = prep.streams("base", scope="app").instructions
    del prep

    walls: List[float] = []
    cpus: List[float] = []
    figure_ms: List[float] = []
    recovered: List[float] = []

    def run_one(index: int):
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        exp = Experiment(config, store=ArtifactStore(store_root), jobs=JOBS)
        tables, grids, seconds = run_figures(exp)
        wall = time.perf_counter() - start
        walls.append(wall)
        cpus.append(cpu_seconds() - cpu_before)
        figure_ms.extend(1000.0 * s for s in seconds)
        outcome.attempted += len(seconds)
        for name, rows in tables.items():
            if rows != expected[name]:
                outcome.fail(f"iteration {index}: {name} differs from reference")
        base, opt = (grids[c][RECOVERY_CELL] for c in ("base", "all"))
        recovered.append((base - opt) * 1000.0 / base_instructions)
        return wall, {}

    outcome.layers, outcome.samples = traced_iterations(ctx.seconds, ctx.trace, run_one)
    shutil.rmtree(store_root, ignore_errors=True)
    outcome.metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "cpu_s": median(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": percentile(figure_ms, 50),
        "latency_p90_ms": percentile(figure_ms, 90),
        "requests_per_s": median([3 / wall for wall in walls]),
        "recovered_mpki_mean": median(recovered),
    }
    return outcome
