"""Unit tests for the Table container and figure helpers that need no
experiment (synthetic inputs)."""

import pytest

from repro.harness.figures import SWEEP_LINES, SWEEP_SIZES, Table, fig04_table, fig05_relative


def synthetic_grid(factor=1.0):
    grid = {}
    for i, size in enumerate(SWEEP_SIZES):
        for j, line in enumerate(SWEEP_LINES):
            grid[(size, line)] = int((1000 - 100 * i - 10 * j) * factor)
    return grid


class TestTable:
    def test_render_aligns_columns(self):
        table = Table("T", ["a", "bbbb"], [[1, 2], [333, 4]])
        lines = table.render().splitlines()
        assert lines[0] == "T"
        assert lines[2].endswith("bbbb")
        assert len(lines[3]) == len(lines[2])

    def test_render_notes(self):
        table = Table("T", ["x"], [[1]], notes=["hello"])
        assert "note: hello" in table.render()

    def test_render_empty_rows(self):
        table = Table("T", ["x", "y"], [])
        assert "T" in table.render()

    def test_render_floats_formatted(self):
        table = Table("T", ["x"], [[1.23456]])
        assert "1.23" in table.render()



class TestSweepTables:
    def test_fig04_table_layout(self):
        table = fig04_table(synthetic_grid(), "base")
        assert len(table.rows) == len(SWEEP_SIZES)
        assert table.columns[0] == "size_KB"
        assert table.rows[0][0] == 32

    def test_fig05_relative_percentages(self):
        base = synthetic_grid(1.0)
        opt = synthetic_grid(0.5)
        table = fig05_relative(base, opt)
        for row in table.rows:
            for value in row[1:]:
                assert value == pytest.approx(50.0, abs=0.2)

    def test_fig05_handles_zero_base(self):
        base = {key: 0 for key in synthetic_grid()}
        opt = synthetic_grid(1.0)
        table = fig05_relative(base, opt)  # must not divide by zero
        assert table.rows
