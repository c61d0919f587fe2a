"""Benchmark regression gating: diff two directories of BENCH_*.json.

CI keeps a blessed set of quick-scale result documents under
``benchmarks/baselines/``; a fresh run writes the same documents to a
scratch directory, and :func:`compare_dirs` matches them name-by-name,
row-by-row, cell-by-cell.  A numeric cell that moved against the
baseline by more than the threshold percentage in the *worse*
direction is a regression and fails the gate.

"Worse" defaults to *higher* — the repro's tables are dominated by
miss counts, miss rates and MPKI.  Columns whose name signals a
better-is-higher quantity (hit rates, captured fractions, coverage,
speedups) are inverted automatically; see :data:`HIGHER_IS_BETTER`.
"""

from __future__ import annotations

import json
import pathlib
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

PathLike = Union[str, pathlib.Path]

#: Column-name fragments marking quantities where *higher* is better.
HIGHER_IS_BETTER = (
    "captured",
    "hit",
    "coverage",
    "speedup",
    "reuse",
    "ratio_ok",
    "recovered",
    "gate_ok",
)


@dataclass
class CellDelta:
    """One numeric cell compared between baseline and fresh."""

    name: str
    row_key: str
    column: str
    baseline: float
    fresh: float
    pct_change: float
    #: True when the move exceeds the threshold in the worse direction.
    regression: bool

    def describe(self) -> str:
        """One human-readable line for the diff report."""
        arrow = "WORSE" if self.regression else "ok"
        return (
            f"{self.name}[{self.row_key}].{self.column}: "
            f"{self.baseline:g} -> {self.fresh:g} "
            f"({self.pct_change:+.2f}%) {arrow}"
        )


@dataclass
class DiffReport:
    """Outcome of one baseline-vs-fresh comparison."""

    threshold_pct: float
    deltas: List[CellDelta] = field(default_factory=list)
    #: Structural mismatches (missing files/rows/columns) — reported,
    #: never fatal, so adding a new benchmark does not break the gate.
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[CellDelta]:
        """Cells that moved beyond the threshold in the worse direction."""
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        """True when no cell regressed beyond the threshold."""
        return not self.regressions

    def render(self) -> str:
        """The full diff as text: verdict, regressions, notes, summary."""
        lines = []
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"bench-diff: {verdict} "
            f"({len(self.regressions)} regression(s) beyond "
            f"{self.threshold_pct:g}% across {len(self.deltas)} compared cells)"
        )
        for delta in self.regressions:
            lines.append("  " + delta.describe())
        changed = [
            d for d in self.deltas if not d.regression and abs(d.pct_change) > 0
        ]
        if changed:
            lines.append(f"  ({len(changed)} cell(s) moved within tolerance)")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def _numeric(value) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _higher_is_better(column: str) -> bool:
    lowered = column.lower()
    return any(marker in lowered for marker in HIGHER_IS_BETTER)


def load_bench_dir(path: PathLike) -> Dict[str, Dict]:
    """All ``BENCH_<name>.json`` documents under ``path``, keyed by name.

    History sidecars (``*.history.jsonl``) are ignored.
    """
    root = pathlib.Path(path)
    documents = {}
    for file in sorted(root.glob("BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(.+)\.json", file.name)
        if not match:
            continue
        documents[match.group(1)] = json.loads(file.read_text())
    return documents


def _rows_by_key(document: Dict) -> Dict[str, List]:
    """Rows keyed by their first cell; where that cell repeats, the key
    also joins the row's other string cells (``1/base``)."""
    rows = [list(row) for row in document.get("rows") or [] if row]
    firsts = Counter(str(row[0]) for row in rows)
    keyed = {}
    for row in rows:
        key = str(row[0])
        if firsts[key] > 1:
            key = "/".join([key] + [c for c in row[1:] if isinstance(c, str)])
        keyed[key] = row
    return keyed


def diff_documents(
    name: str,
    baseline: Dict,
    fresh: Dict,
    threshold_pct: float,
    report: DiffReport,
) -> None:
    """Compare one benchmark document pair into ``report``.

    Rows match on their first cell (the row key: a cache size, a combo
    name, ...), extended by the row's string cells where the first cell
    repeats; remaining cells match positionally against the
    baseline's column names.  Non-numeric cells are skipped; rows or
    columns present on one side only become notes.
    """
    base_columns = list(baseline.get("columns") or [])
    fresh_columns = list(fresh.get("columns") or [])
    if base_columns != fresh_columns:
        report.notes.append(
            f"{name}: column mismatch {base_columns} vs {fresh_columns}"
        )
    base_rows = _rows_by_key(baseline)
    fresh_rows = _rows_by_key(fresh)
    for key in base_rows.keys() - fresh_rows.keys():
        report.notes.append(f"{name}: row {key!r} missing from fresh run")
    for key in fresh_rows.keys() - base_rows.keys():
        report.notes.append(f"{name}: row {key!r} missing from baseline")
    for key in sorted(base_rows.keys() & fresh_rows.keys()):
        brow, frow = base_rows[key], fresh_rows[key]
        for idx in range(1, min(len(brow), len(frow))):
            bval, fval = _numeric(brow[idx]), _numeric(frow[idx])
            if bval is None or fval is None:
                continue
            column = (
                base_columns[idx] if idx < len(base_columns) else f"col{idx}"
            )
            if bval == 0:
                pct = 0.0 if fval == 0 else float("inf")
            else:
                pct = 100.0 * (fval - bval) / abs(bval)
            worse = -pct if _higher_is_better(column) else pct
            report.deltas.append(
                CellDelta(
                    name=name,
                    row_key=key,
                    column=column,
                    baseline=bval,
                    fresh=fval,
                    pct_change=pct,
                    regression=worse > threshold_pct,
                )
            )


def _wall_time_seconds(document: Dict) -> Optional[float]:
    metrics = document.get("metrics") or {}
    total = 0.0
    seen = False
    for name, payload in metrics.items():
        if name.startswith("pipeline.") and name.endswith(".seconds"):
            total += float(payload.get("sum", 0.0))
            seen = True
    return total if seen else None


def compare_dirs(
    fresh_dir: PathLike,
    baseline_dir: PathLike,
    threshold_pct: float = 8.0,
    wall_time: bool = False,
) -> DiffReport:
    """Diff every benchmark the two directories share.

    With ``wall_time``, the summed ``pipeline.*.seconds`` metric of
    each document pair is gated at the same threshold (documents
    without metrics are skipped — wall time is advisory by default
    because it is machine-dependent).
    """
    report = DiffReport(threshold_pct=threshold_pct)
    baseline = load_bench_dir(baseline_dir)
    fresh = load_bench_dir(fresh_dir)
    if not baseline:
        report.notes.append(f"no BENCH_*.json under baseline {baseline_dir}")
    if not fresh:
        report.notes.append(f"no BENCH_*.json under fresh {fresh_dir}")
    for name in sorted(baseline.keys() - fresh.keys()):
        report.notes.append(f"{name}: present in baseline only")
    for name in sorted(fresh.keys() - baseline.keys()):
        report.notes.append(f"{name}: present in fresh run only")
    for name in sorted(baseline.keys() & fresh.keys()):
        diff_documents(name, baseline[name], fresh[name], threshold_pct, report)
        if wall_time:
            bsecs = _wall_time_seconds(baseline[name])
            fsecs = _wall_time_seconds(fresh[name])
            if bsecs and fsecs is not None:
                pct = 100.0 * (fsecs - bsecs) / bsecs
                report.deltas.append(
                    CellDelta(
                        name=name,
                        row_key="<run>",
                        column="wall_time_s",
                        baseline=bsecs,
                        fresh=fsecs,
                        pct_change=pct,
                        regression=pct > threshold_pct,
                    )
                )
    return report
