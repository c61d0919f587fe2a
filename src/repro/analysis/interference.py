"""Application/kernel interference analysis (paper Figure 13)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim import APP, KERNEL, InterferenceMatrix


@dataclass
class InterferenceBreakdown:
    """Figure 13's bar data: per missing space, who owned the displaced
    line (cold misses displace nobody and are reported separately)."""

    rows: Dict[str, Dict[str, int]]
    cold: Dict[str, int]

    @classmethod
    def from_matrix(cls, matrix: InterferenceMatrix) -> "InterferenceBreakdown":
        rows = {
            missing: dict(matrix.counts[missing]) for missing in (KERNEL, APP)
        }
        both = {
            owner: rows[KERNEL][owner] + rows[APP][owner] for owner in (KERNEL, APP)
        }
        rows["both"] = both
        return cls(rows=rows, cold=dict(matrix.cold))

    def self_interference_fraction(self, space: str) -> float:
        """Fraction of a space's (conflict) misses displacing its own lines."""
        row = self.rows[space]
        total = sum(row.values())
        return row[space] / total if total else 0.0
