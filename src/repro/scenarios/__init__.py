"""Declarative scenario matrix over the layout-optimization pipeline.

The paper's evaluation is a hand-run matrix: workloads (TPC-B, DSS)
crossed with cache geometries and layout combinations.  This package
turns that matrix into data:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, the declarative
  cell (workload x hierarchy x combo x drift x engine), with a
  built-in matrix, TOML/JSON matrix files, and fingerprints that
  plug into the artifact-store pipeline cache.
* :mod:`repro.scenarios.matrix` — the resumable matrix runner:
  crash-safe per-cell persistence, ``repro.check`` gating, and the
  ``BENCH_scenarios`` document.
* :mod:`repro.scenarios.report` — the cross-scenario Markdown report
  (per-cell recovery, family sensitivity ranking, paper verdict).
* :mod:`repro.scenarios.staticbench` — the ``repro static-bench``
  engine: measured vs static vs hybrid profile sources per cell, with
  the OLTP static-recovery gate (``BENCH_staticpred``).

The seeded synthetic workload whose knobs the matrix dials (Markov op
mixes, hot-set skew, loop depth, phase schedules) lives next to TPC-B
and DSS in :mod:`repro.workloads.synth`.

See ``docs/SCENARIOS.md`` for the user guide and matrix-file schema.
"""

from repro.scenarios.matrix import CellResult, MatrixResult, run_matrix
from repro.scenarios.report import render_scenarios_report
from repro.scenarios.staticbench import (
    StaticBenchResult,
    run_static_bench,
)
from repro.scenarios.spec import (
    HierarchySpec,
    ScenarioSpec,
    WorkloadSpec,
    default_matrix,
    load_specs,
    select_specs,
)

__all__ = [
    "CellResult",
    "HierarchySpec",
    "MatrixResult",
    "ScenarioSpec",
    "StaticBenchResult",
    "WorkloadSpec",
    "default_matrix",
    "load_specs",
    "render_scenarios_report",
    "run_matrix",
    "run_static_bench",
    "select_specs",
]
