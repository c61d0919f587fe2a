"""The resumable scenario-matrix runner.

:func:`run_matrix` takes a list of validated
:class:`~repro.scenarios.spec.ScenarioSpec` cells and produces one
:class:`MatrixResult`.  Three properties matter:

**Crash-safe resume.**  Each finished cell is written to the
:class:`~repro.harness.store.ArtifactStore` *by the worker that
computed it*, atomically, before the worker returns — under the cell's
experiment fingerprint as ``scenario-<spec_fingerprint>.json``.  A
re-run after a mid-sweep kill loads those cells back (status
``cached``) and only simulates the remainder.  Cached cells are
validated (schema version + spec fingerprint) so a stale or foreign
entry silently degrades to a recompute, never a wrong result.

**Pipeline reuse.**  Before fanning out, the runner warms each
*distinct* experiment configuration once, serially — codegen, the
profiling run, layouts, and the measurement trace land in the store
(and in the in-process memo, which forked workers inherit).  Cells
that differ only in hierarchy/combo/engine then share one pipeline;
the fan-out via :func:`~repro.pipeline.fanout.resilient_map` spends
its time purely on cache simulation (retrying with backoff if a
worker process is killed mid-sweep).

**Gated results.**  Each cell's optimized layout runs through the
:mod:`repro.check` families (``--check`` semantics are always on
unless ``verify=False``); a failing gate marks the cell rather than
silently reporting numbers from a corrupt layout.

A worker failure (bad cell, unexpected exception) produces a
``failed`` cell carrying the error text — one broken cell never kills
a 50-cell sweep.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.check import check_all
from repro.errors import ScenarioError
from repro.harness.experiment import Experiment
from repro.harness.figures import Table
from repro.harness.results import table_payload
from repro.harness.store import ArtifactStore
from repro.ir import assign_addresses
from repro.layout import Combo
from repro.pipeline import resilient_map
from repro.sim import simulate, simulate_grid
from repro.scenarios.spec import ScenarioSpec, _reject_duplicates

#: Bump when the cached cell payload changes shape (old cells are then
#: recomputed instead of misread).
CELL_SCHEMA_VERSION = 1

#: Numeric table columns (name -> CellResult attribute), shared by the
#: table, the benchmark document, and the report renderer.
CELL_METRICS = (
    ("base_mpki", "base_mpki"),
    ("opt_mpki", "opt_mpki"),
    ("recovered_pct", "recovery_pct"),
    ("gate_ok", "gate_ok"),
)


@dataclass
class CellResult:
    """The outcome of one scenario cell."""

    name: str
    family: str
    workload_kind: str
    hierarchy: str
    combo: str
    drift: str
    engine: str
    scope: str
    #: ``simulated`` (computed this run), ``cached`` (loaded from the
    #: store), or ``failed``.
    status: str
    #: Profile source the optimized layout was built from (defaulted
    #: so cells cached before the axis existed still load).
    profile_source: str = "measured"
    instructions: int = 0
    base_misses: int = 0
    opt_misses: int = 0
    base_mpki: float = 0.0
    opt_mpki: float = 0.0
    #: Percentage of baseline L1I misses removed by the combo.
    recovery_pct: float = 0.0
    gate_ok: bool = True
    gate_errors: int = 0
    seconds: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the cell simulated (or loaded) and passed the gate."""
        return self.status != "failed" and self.gate_ok

    def to_dict(self) -> Dict:
        """The cell as a JSON-ready dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "CellResult":
        """Rebuild a cell from :meth:`to_dict` output."""
        return cls(**payload)


def _cell_artifact_name(spec: ScenarioSpec) -> str:
    return f"scenario-{spec.fingerprint()}.json"


def _save_cell_json(payload: Dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)


def _load_cell_json(path) -> Dict:
    with open(path) as handle:
        return json.load(handle)


#: In-process pipeline memo keyed by experiment fingerprint.  Forked
#: workers inherit the parent's warmed entries, so even store-less runs
#: build each distinct pipeline exactly once.
_EXPERIMENT_MEMO: Dict[str, Experiment] = {}


def _experiment_for(spec: ScenarioSpec, store: Optional[ArtifactStore]) -> Experiment:
    config = spec.experiment_config()
    fingerprint = config.fingerprint()
    exp = _EXPERIMENT_MEMO.get(fingerprint)
    if exp is None:
        exp = Experiment(config, store=store)
        _EXPERIMENT_MEMO[fingerprint] = exp
    elif exp.store is None and store is not None:
        exp.attach_store(store)
    return exp


def _simulate_misses(spec: ScenarioSpec, streams) -> int:
    """L1I miss count for one stream set under the cell's engine."""
    hier = spec.hierarchy
    if spec.engine == "batched":
        size = hier.l1i_kb * 1024
        grid = simulate_grid(streams, [size], [hier.line], engine="batched")
        return int(grid[(size, hier.line)])
    return int(simulate(streams, hier.to_hierarchy()).l1i_misses)


def _run_cell(task: Tuple[Dict, Optional[str], bool]) -> Dict:
    """Worker: simulate one cell and persist it before returning.

    Module-level (picklable) for :func:`resilient_map`.  Never raises:
    any failure comes back as a ``failed`` cell so one bad cell cannot
    abort the sweep.
    """
    payload, store_root, verify = task
    spec = ScenarioSpec.from_dict(payload)
    store = ArtifactStore(store_root) if store_root else None
    started = time.perf_counter()
    cell = CellResult(
        name=spec.name,
        family=spec.workload.family,
        workload_kind=spec.workload.kind,
        hierarchy=spec.hierarchy.label,
        combo=Combo.parse(spec.combo).value,
        drift=spec.drift,
        engine=spec.engine,
        scope=spec.scope,
        status="simulated",
        profile_source=spec.profile_source,
    )
    try:
        with obs.span("scenarios.cell", scenario=spec.name):
            exp = _experiment_for(spec, store)
            base = exp.streams("base", scope=spec.scope)
            opt = exp.streams(
                cell.combo,
                scope=spec.scope,
                profile_source=spec.profile_source,
            )
            cell.instructions = base.instructions
            cell.base_misses = _simulate_misses(spec, base)
            cell.opt_misses = _simulate_misses(spec, opt)
            kilo = max(1, cell.instructions) / 1000.0
            cell.base_mpki = cell.base_misses / kilo
            cell.opt_mpki = cell.opt_misses / kilo
            if cell.base_misses:
                cell.recovery_pct = (
                    100.0 * (cell.base_misses - cell.opt_misses)
                    / cell.base_misses
                )
            if verify:
                layout = exp.layout(cell.combo, spec.profile_source)
                report = check_all(
                    exp.app.binary,
                    profile=exp.profile_for(spec.profile_source),
                    layout=layout,
                    address_map=assign_addresses(exp.app.binary, layout),
                    target=spec.name,
                )
                cell.gate_ok = report.ok
                cell.gate_errors = len(report.errors)
    except Exception as exc:  # a broken cell must not kill the sweep
        cell.status = "failed"
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.seconds = round(time.perf_counter() - started, 3)
    if store is not None and cell.status != "failed":
        store.save(
            spec.experiment_config().fingerprint(),
            _cell_artifact_name(spec),
            {
                "schema": CELL_SCHEMA_VERSION,
                "spec_fingerprint": spec.fingerprint(),
                "spec": spec.to_dict(),
                "cell": cell.to_dict(),
            },
            _save_cell_json,
        )
    return cell.to_dict()


def _load_cached_cell(
    spec: ScenarioSpec, store: ArtifactStore
) -> Optional[CellResult]:
    """A completed cell from a previous run, or None.

    Schema or fingerprint mismatches degrade to a recompute.
    """
    payload = store.load(
        spec.experiment_config().fingerprint(),
        _cell_artifact_name(spec),
        _load_cell_json,
    )
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != CELL_SCHEMA_VERSION:
        return None
    if payload.get("spec_fingerprint") != spec.fingerprint():
        return None
    try:
        cell = CellResult.from_dict(payload["cell"])
    except (KeyError, TypeError):
        return None
    cell.status = "cached"
    cell.name = spec.name  # the cached run may have used another alias
    return cell


@dataclass
class MatrixResult:
    """Every cell outcome plus the cross-scenario rollups."""

    cells: List[CellResult] = field(default_factory=list)

    @property
    def simulated(self) -> int:
        """Cells computed by this run."""
        return sum(1 for c in self.cells if c.status == "simulated")

    @property
    def cached(self) -> int:
        """Cells resumed from the store."""
        return sum(1 for c in self.cells if c.status == "cached")

    @property
    def failed(self) -> List[CellResult]:
        """Cells that errored."""
        return [c for c in self.cells if c.status == "failed"]

    def family_sensitivity(self) -> List[Tuple[str, float, float, int]]:
        """``(family, mean recovered MPKI, mean recovery %, cells)``
        ranked most layout-sensitive first.

        Sensitivity is the *absolute* L1I MPKI the optimizations
        recover (base minus optimized), not the recovered fraction: a
        workload with almost no baseline misses can recover a large
        fraction of them and still be insensitive in the paper's sense.
        Drifted cells measure adaptation, not steady-state sensitivity,
        and are excluded.
        """
        groups: Dict[str, List[Tuple[float, float]]] = {}
        for cell in self.cells:
            if cell.status == "failed" or cell.drift != "none":
                continue
            groups.setdefault(cell.family, []).append(
                (cell.base_mpki - cell.opt_mpki, cell.recovery_pct)
            )
        ranked = [
            (
                family,
                sum(mpki for mpki, _ in vals) / len(vals),
                sum(pct for _, pct in vals) / len(vals),
                len(vals),
            )
            for family, vals in groups.items()
        ]
        ranked.sort(key=lambda item: -item[1])
        return ranked

    def ordering_ok(self) -> bool:
        """True when layout optimization recovers more MPKI on OLTP
        than on DSS (vacuously true when either family is absent) —
        the paper's headline claim."""
        means = {
            family: mpki
            for family, mpki, _, _ in self.family_sensitivity()
        }
        if "oltp" not in means or "dss" not in means:
            return True
        return means["oltp"] > means["dss"]

    def passes(self) -> bool:
        """The matrix gate: no failures, every check gate green, and
        the OLTP/DSS sensitivity ordering intact."""
        return (
            not self.failed
            and all(c.gate_ok for c in self.cells)
            and self.ordering_ok()
        )

    def to_table(self) -> Table:
        """The per-cell table (``bench-diff``-comparable)."""
        rows = [
            [
                cell.name,
                cell.family,
                cell.hierarchy,
                cell.engine,
                round(cell.base_mpki, 3),
                round(cell.opt_mpki, 3),
                round(cell.recovery_pct, 1),
                int(cell.gate_ok),
            ]
            for cell in self.cells
            if cell.status != "failed"
        ]
        notes = [
            f"{self.simulated} simulated, {self.cached} resumed from "
            f"cache, {len(self.failed)} failed"
        ]
        for family, mpki, pct, count in self.family_sensitivity():
            notes.append(
                f"sensitivity {family}: {mpki:.2f} MPKI recovered "
                f"({pct:.1f}%) over {count} cell(s)"
            )
        return Table(
            title="Scenario matrix: L1I MPKI recovery by cell",
            columns=[
                "scenario", "family", "hierarchy", "engine",
                "base_mpki", "opt_mpki", "recovered_pct", "gate_ok",
            ],
            rows=rows,
            notes=notes,
        )

    def to_document(self) -> Dict:
        """The ``BENCH_scenarios`` payload: the table plus full cells
        and the family ranking (what the report renders from)."""
        document = table_payload(self.to_table())
        document["cells"] = [cell.to_dict() for cell in self.cells]
        document["families"] = [
            {"family": family,
             "mean_recovered_mpki": round(mpki, 3),
             "mean_recovery_pct": round(pct, 2),
             "cells": count}
            for family, mpki, pct, count in self.family_sensitivity()
        ]
        document["ordering_ok"] = int(self.ordering_ok())
        document["gate_ok"] = int(self.passes())
        return document

    def render(self) -> str:
        """Plain-text summary for the CLI."""
        lines = [self.to_table().render()]
        for cell in self.failed:
            lines.append(f"FAILED {cell.name}: {cell.error}")
        verdict = "pass" if self.passes() else "FAIL"
        lines.append(
            f"matrix gate: {verdict} ({len(self.cells)} cells, "
            f"ordering {'ok' if self.ordering_ok() else 'violated'})"
        )
        return "\n".join(lines)


def run_matrix(
    specs: Sequence[ScenarioSpec],
    *,
    store: Optional[ArtifactStore] = None,
    jobs: int = 1,
    fresh: bool = False,
    verify: bool = True,
) -> MatrixResult:
    """Run (or resume) the matrix; returns cells in spec order.

    Args:
        specs: Validated scenario cells (duplicate names rejected).
        store: Artifact store for pipeline products *and* per-cell
            results; without one, nothing persists and every run
            recomputes all cells.
        jobs: Worker processes for the cell fan-out.
        fresh: Ignore (and overwrite) previously completed cells.
        verify: Gate each cell's optimized layout via ``repro.check``.
    """
    specs = [spec.validate() for spec in specs]
    _reject_duplicates(specs, "matrix")
    if not specs:
        raise ScenarioError("run_matrix needs at least one scenario")

    with obs.span("scenarios.run_matrix", cells=len(specs)):
        cached: Dict[str, CellResult] = {}
        if store is not None and not fresh:
            for spec in specs:
                cell = _load_cached_cell(spec, store)
                if cell is not None:
                    cached[spec.name] = cell

        pending = [spec for spec in specs if spec.name not in cached]

        # Warm each distinct pipeline once, serially: parallel workers
        # then only simulate.  (Forked workers inherit the memo, so
        # this pays off even without a store.)
        warmed = set()
        for spec in pending:
            fingerprint = spec.experiment_config().fingerprint()
            if fingerprint in warmed:
                continue
            warmed.add(fingerprint)
            exp = _experiment_for(spec, store)
            _ = exp.trace  # forces codegen + profiling + measurement

        store_root = str(store.root) if store is not None else None
        tasks = [(spec.to_dict(), store_root, verify) for spec in pending]
        computed = {
            cell["name"]: CellResult.from_dict(cell)
            for cell in resilient_map(_run_cell, tasks, jobs=jobs)
        }

        result = MatrixResult(
            cells=[
                cached.get(spec.name) or computed[spec.name]
                for spec in specs
            ]
        )
        obs.counter("scenarios.cells_simulated").inc(result.simulated)
        obs.counter("scenarios.cells_cached").inc(result.cached)
        obs.counter("scenarios.cells_failed").inc(len(result.failed))
        return result
