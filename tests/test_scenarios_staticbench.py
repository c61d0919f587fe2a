"""Unit tests for the static-bench recovery math and gate table.

The simulation path itself is exercised by the ``repro static-bench``
CLI test and the CI ``static-smoke`` job; these tests pin the
recovery/ratio arithmetic, the OLTP gate selection, the bench-diff
contract of the emitted table, and that the gate fails inverted
predictions.
"""

import io

import pytest

from repro.cli import main
from repro.errors import ScenarioError
from repro.scenarios import matrix as matrix_mod
from repro.staticpred import heuristics
from repro.scenarios.staticbench import (
    GATE_MIN_RATIO,
    SourceCell,
    StaticBenchResult,
    run_static_bench,
)


def cell(name, family, base, measured, static, hybrid):
    return SourceCell(
        name=name, family=family, base_misses=base,
        misses={"measured": measured, "static": static, "hybrid": hybrid},
    )


class TestRecoveryMath:
    def test_ratio_is_recovery_over_measured_recovery(self):
        c = cell("x", "oltp", 1000, 200, 600, 240)
        assert c.recovery("measured") == 800
        assert c.ratio("static") == pytest.approx(0.5)
        assert c.ratio("hybrid") == pytest.approx(0.95)
        assert c.ratio("measured") == 1.0

    def test_degenerate_cell_gives_full_or_no_credit(self):
        # The measured layout did not help at all: matching it earns
        # credit, doing worse earns none (no division by zero).
        c = cell("x", "oltp", 1000, 1000, 1000, 1200)
        assert c.ratio("static") == 1.0
        assert c.ratio("hybrid") == 0.0


class TestGate:
    def test_gate_averages_oltp_cells_only(self):
        result = StaticBenchResult([
            cell("tpcb", "oltp", 1000, 0, 600, 0),    # static ratio 0.4
            cell("dss", "dss", 1000, 0, 1000, 0),     # ratio 0 -- ignored
        ])
        assert result.gate_ratio == pytest.approx(0.4)
        assert not result.passes()

    def test_gate_falls_back_to_all_cells_without_oltp(self):
        result = StaticBenchResult([
            cell("dss", "dss", 1000, 0, 400, 0),
        ])
        assert result.gate_ratio == pytest.approx(0.6)
        assert result.passes()

    def test_gate_threshold_is_half(self):
        assert GATE_MIN_RATIO == 0.5


class TestTable:
    def test_rows_and_gate_flip(self):
        result = StaticBenchResult([
            cell("tpcb", "oltp", 1000, 100, 400, 120),
        ])
        table = result.to_table()
        # bench-diff keys the better-direction off the column name.
        assert table.columns == ["metric", "recovered_pct"]
        rows = {row[0]: row[1] for row in table.rows}
        assert rows["tpcb_measured"] == pytest.approx(90.0)
        assert rows["tpcb_static"] == pytest.approx(60.0)
        assert rows["oltp_static_gate_ok"] == 1
        failing = StaticBenchResult([
            cell("tpcb", "oltp", 1000, 100, 900, 120),
        ])
        rows = {row[0]: row[1] for row in failing.to_table().rows}
        assert rows["oltp_static_gate_ok"] == 0


class TestRunner:
    def test_empty_selection_rejected(self):
        with pytest.raises(ScenarioError, match="at least one"):
            run_static_bench([])


class TestFalsification:
    def static_bench_check(self, monkeypatch):
        # A fresh memo and no store: nothing a clean run computed may
        # answer the next one.
        monkeypatch.setattr(matrix_mod, "_EXPERIMENT_MEMO", {})
        return main(
            ["--no-cache", "--quiet", "static-bench", "--check"],
            out=io.StringIO(),
        )

    def test_inverted_predictions_fail_the_gate(self, monkeypatch):
        assert self.static_bench_check(monkeypatch) == 0
        vote = heuristics._vote_taken
        monkeypatch.setattr(
            heuristics, "_vote_taken", lambda *args: 1.0 - vote(*args)
        )
        assert self.static_bench_check(monkeypatch) == 1
