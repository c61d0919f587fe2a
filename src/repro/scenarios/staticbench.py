"""Profile-source benchmark (``repro static-bench``).

Quantifies how much of the measured-profile layout win the profile-free
static prediction (:mod:`repro.staticpred`) recovers.  Each selected
scenario cell is simulated four times on the shared pipeline cache --
the ``base`` identity layout plus the cell's combo built from each
profile source (``measured``, ``static``, ``hybrid``) -- and the miss
reductions are compared:

    recovery(source) = base_misses - misses(source)
    ratio(source)    = recovery(source) / recovery(measured)

The acceptance gate is the paper-motivated floor from ``ISSUE.md``:
static-only layouts must recover at least half of the measured-profile
miss reduction, averaged over the OLTP-family cells
(:data:`GATE_MIN_RATIO`).  The gate and the per-cell recovery
percentages land in ``BENCH_staticpred.json`` so ``repro bench-diff``
catches a heuristic regression as a pass-to-fail flip or a recovery
drop beyond the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ScenarioError
from repro.harness.figures import Table
from repro.harness.store import ArtifactStore
from repro.scenarios.matrix import _experiment_for, _simulate_misses
from repro.scenarios.spec import ScenarioSpec
from repro.staticpred import PROFILE_SOURCES

#: The acceptance gate: the mean static/measured recovery ratio over
#: the OLTP-family cells must stay at or above this floor.
GATE_MIN_RATIO = 0.5

#: Default cells: the no-drift OLTP pair from the built-in matrix
#: (direct-mapped batched cell + 2-way classic cell).
DEFAULT_CELLS = ("tpcb-i32", "tpcb-i64x2")


@dataclass
class SourceCell:
    """One scenario cell simulated under every profile source."""

    name: str
    family: str
    base_misses: int
    #: profile source -> L1I misses of the optimized layout.
    misses: Dict[str, int]

    def recovery(self, source: str) -> int:
        """Misses removed relative to the ``base`` identity layout."""
        return self.base_misses - self.misses[source]

    def ratio(self, source: str) -> float:
        """Recovery relative to the measured-profile recovery."""
        measured = self.recovery("measured")
        if measured <= 0:
            # Degenerate cell: the measured layout did not help, so any
            # source matching (or beating) it gets full credit.
            return 1.0 if self.recovery(source) >= measured else 0.0
        return self.recovery(source) / measured


@dataclass
class StaticBenchResult:
    """All cells plus the OLTP static-recovery gate."""

    cells: List[SourceCell]

    def _oltp(self) -> List[SourceCell]:
        return [c for c in self.cells if c.family == "oltp"] or self.cells

    @property
    def gate_ratio(self) -> float:
        """Mean static/measured recovery ratio over the OLTP cells."""
        oltp = self._oltp()
        return sum(c.ratio("static") for c in oltp) / len(oltp)

    def passes(self) -> bool:
        """True when static recovery clears :data:`GATE_MIN_RATIO`."""
        return self.gate_ratio >= GATE_MIN_RATIO

    def to_table(self):
        """The ``BENCH_staticpred`` table (see ``repro bench-diff``).

        Rows carry recovery *percentages of base misses* (stable under
        the content-addressed pipeline, so bench-diff can gate them)
        plus the boolean gate row whose pass-to-fail flip reads as a
        -100% regression.  The value column is named ``recovered_pct``
        on purpose: bench-diff keys the better-direction off the column
        name, and ``recovered`` marks it higher-is-better.
        """
        rows = []
        for cell in self.cells:
            for source in PROFILE_SOURCES:
                rows.append([
                    f"{cell.name}_{source}",
                    round(
                        100.0 * cell.recovery(source)
                        / max(1, cell.base_misses),
                        2,
                    ),
                ])
        rows.append([
            "oltp_static_vs_measured",
            round(100.0 * self.gate_ratio, 2),
        ])
        rows.append(["oltp_static_gate_ok", int(self.passes())])
        return Table(
            title="static-bench: layout quality by profile source",
            columns=["metric", "recovered_pct"],
            rows=rows,
            notes=[
                f"{c.name}: base {c.base_misses:,} misses; "
                + ", ".join(
                    f"{s} {c.misses[s]:,} (ratio {c.ratio(s):.3f})"
                    for s in PROFILE_SOURCES
                )
                for c in self.cells
            ] + [
                f"gate: mean OLTP static/measured recovery ratio "
                f"{self.gate_ratio:.3f} must be >= {GATE_MIN_RATIO:g}",
            ],
        )


def run_static_bench(
    specs: Sequence[ScenarioSpec],
    *,
    store: Optional[ArtifactStore] = None,
) -> StaticBenchResult:
    """Simulate every spec under all of :data:`PROFILE_SOURCES`.

    Cells share the figure commands' content-addressed pipeline cache
    through the same :func:`~repro.scenarios.matrix._experiment_for`
    memo the matrix runner uses, so a warm cache answers everything but
    the static/hybrid layout builds instantly.
    """
    specs = [spec.validate() for spec in specs]
    if not specs:
        raise ScenarioError("static-bench needs at least one scenario")
    cells: List[SourceCell] = []
    for spec in specs:
        exp = _experiment_for(spec, store)
        base = _simulate_misses(spec, exp.streams("base", scope=spec.scope))
        misses = {
            source: _simulate_misses(
                spec,
                exp.streams(
                    spec.combo, scope=spec.scope, profile_source=source
                ),
            )
            for source in PROFILE_SOURCES
        }
        cells.append(
            SourceCell(
                name=spec.name,
                family=spec.workload.family,
                base_misses=base,
                misses=misses,
            )
        )
    return StaticBenchResult(cells)
