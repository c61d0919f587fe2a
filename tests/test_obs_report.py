"""Run-report rendering and the report/bench-diff/trace-export CLI."""

import io
import json
import pathlib

import pytest

from repro import obs
from repro.cli import main
from repro.obs.benchdiff import compare_dirs
from repro.obs.report import render_html, render_report

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset_metrics()
    yield
    obs.disable()
    obs.reset_metrics()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def fixture_document(rows, metrics=None):
    doc = {
        "schema": 2,
        "name": "fig99",
        "title": "Figure 99 (test): synthetic",
        "columns": ["size_KB", "misses"],
        "rows": rows,
        "notes": ["synthetic fixture"],
        "run": {"id": "deadbeef0000", "timestamp": "2026-01-01T00:00:00+00:00"},
    }
    if metrics:
        doc["metrics"] = metrics
    return doc


def write_results(tmp_path, rows, metrics=None):
    results = tmp_path / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "BENCH_fig99.json").write_text(
        json.dumps(fixture_document(rows, metrics))
    )
    return results


FIXTURE_METRICS = {
    "icache.misses": {"kind": "counter", "value": 123},
    "online.drift_score": {"kind": "gauge", "value": 0.41},
    "pipeline.sweep.seconds": {
        "kind": "histogram",
        "count": 2,
        "sum": 3.0,
        "min": 1.0,
        "max": 2.0,
        "mean": 1.5,
    },
    "l2.window_miss_rate": {
        "kind": "series",
        "count": 4,
        "stride": 1,
        "points": [[0, 0.5], [1, 0.25], [2, 0.125], [3, 0.0625]],
    },
}

FIXTURE_SPANS = [
    {
        "type": "span", "name": "stage.sweep", "span_id": "1:1",
        "parent_id": None, "pid": 1, "tid": 1, "ts": 100.0,
        "wall_s": 2.0, "cpu_s": 1.9, "rss_kb": 1000, "attrs": {},
    },
    {
        "type": "span", "name": "layout.build", "span_id": "1:2",
        "parent_id": "1:1", "pid": 1, "tid": 1, "ts": 100.1,
        "wall_s": 0.5, "cpu_s": 0.5, "rss_kb": 1000,
        "attrs": {"combo": "all"},
    },
]


def write_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        "".join(json.dumps(e) + "\n" for e in FIXTURE_SPANS)
    )
    return trace


class TestRenderReport:
    def test_matches_golden_file(self, tmp_path):
        results = write_results(
            tmp_path, [[32, 100], [64, 50]], FIXTURE_METRICS
        )
        trace = write_trace(tmp_path)
        rendered = render_report(results, trace_path=trace)
        golden = (DATA / "report_golden.md").read_text()
        assert rendered == golden

    def test_empty_directory_mentions_no_documents(self, tmp_path):
        rendered = render_report(tmp_path)
        assert "No `BENCH_*.json` documents" in rendered

    def test_html_wrapper_escapes(self, tmp_path):
        results = write_results(tmp_path, [[32, 100]])
        html = render_html(render_report(results))
        assert html.startswith("<!DOCTYPE html>")
        assert "<h1>" not in html  # markdown served preformatted
        assert "Figure 99" in html


class TestReportCli:
    def test_report_to_stdout(self, tmp_path):
        results = write_results(tmp_path, [[32, 100]], FIXTURE_METRICS)
        code, text = run_cli("report", str(results))
        assert code == 0
        assert "# Run report" in text
        assert "deadbeef0000" in text
        assert "icache.misses" in text

    def test_report_to_file_html(self, tmp_path):
        results = write_results(tmp_path, [[32, 100]])
        out = tmp_path / "report.html"
        code, text = run_cli("report", str(results), "--html", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_report_includes_flamegraph(self, tmp_path):
        results = write_results(tmp_path, [[32, 100]])
        trace = write_trace(tmp_path)
        code, text = run_cli(
            "report", str(results), "--trace-file", str(trace)
        )
        assert code == 0
        assert "Span flamegraph" in text
        assert "layout.build" in text


class TestBenchDiff:
    def _dirs(self, tmp_path, fresh_rows):
        baseline = write_results(tmp_path / "b", [[32, 100], [64, 50]])
        fresh = write_results(tmp_path / "f", fresh_rows)
        return baseline, fresh

    def test_identical_passes(self, tmp_path):
        baseline, fresh = self._dirs(tmp_path, [[32, 100], [64, 50]])
        report = compare_dirs(fresh, baseline, threshold_pct=8)
        assert report.ok
        assert len(report.deltas) == 2

    def test_regression_beyond_threshold_fails(self, tmp_path):
        baseline, fresh = self._dirs(tmp_path, [[32, 110], [64, 50]])
        report = compare_dirs(fresh, baseline, threshold_pct=8)
        assert not report.ok
        (bad,) = report.regressions
        assert bad.row_key == "32"
        assert bad.pct_change == pytest.approx(10.0)

    def test_improvement_never_fails(self, tmp_path):
        baseline, fresh = self._dirs(tmp_path, [[32, 10], [64, 5]])
        assert compare_dirs(fresh, baseline, threshold_pct=8).ok

    def test_higher_is_better_columns_invert(self, tmp_path):
        baseline = tmp_path / "b"
        fresh = tmp_path / "f"
        for root, value in ((baseline, 90), (fresh, 50)):
            root.mkdir()
            (root / "BENCH_cov.json").write_text(
                json.dumps(
                    {
                        "name": "cov",
                        "columns": ["combo", "captured_%"],
                        "rows": [["all", value]],
                    }
                )
            )
        report = compare_dirs(fresh, baseline, threshold_pct=8)
        assert not report.ok  # captured% dropping 90 -> 50 is a regression

    def test_missing_rows_are_notes_not_failures(self, tmp_path):
        baseline, fresh = self._dirs(tmp_path, [[32, 100]])
        report = compare_dirs(fresh, baseline, threshold_pct=8)
        assert report.ok
        assert any("64" in note for note in report.notes)

    def test_files_on_one_side_are_notes_not_failures(self, tmp_path):
        baseline, fresh = self._dirs(tmp_path, [[32, 100], [64, 50]])
        (baseline / "BENCH_old.json").write_text(
            json.dumps(fixture_document([[32, 1]]))
        )
        (fresh / "BENCH_new.json").write_text(
            json.dumps(fixture_document([[32, 999]]))
        )
        report = compare_dirs(fresh, baseline, threshold_pct=8)
        assert report.ok
        assert "old: present in baseline only" in report.notes
        assert "new: present in fresh run only" in report.notes
        code, text = run_cli(
            "bench-diff", str(fresh), "--baseline", str(baseline)
        )
        assert code == 0 and "PASS" in text

    def test_repeated_first_cells_are_all_compared(self, tmp_path):
        # The multiprogramming table has a base and an all row per
        # process count: both rows of each count are compared.
        name = "BENCH_ablation_multiprogramming.json"
        baselines = pathlib.Path(__file__).parent.parent / "benchmarks" / "baselines"
        doc = json.loads((baselines / name).read_text())
        row = next(row for row in doc["rows"] if row[:2] == [1, "base"])
        assert row == [1, "base", 4610, 7.273]
        row[2:] = [value * 1.5 for value in row[2:]]
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / name).write_text(json.dumps(doc))
        code, text = run_cli(
            "bench-diff", str(fresh), "--baseline", str(baselines),
            "--threshold", "8",
        )
        assert code == 1 and "FAIL" in text
        assert "[1/base]" in text

    def test_cli_exit_codes(self, tmp_path):
        baseline, fresh = self._dirs(tmp_path, [[32, 100], [64, 50]])
        code, text = run_cli(
            "bench-diff", str(fresh), "--baseline", str(baseline)
        )
        assert code == 0 and "PASS" in text
        (fresh / "BENCH_fig99.json").write_text(
            json.dumps(fixture_document([[32, 200], [64, 50]]))
        )
        code, text = run_cli(
            "bench-diff", str(fresh), "--baseline", str(baseline)
        )
        assert code == 1 and "FAIL" in text


class TestTraceExportCli:
    def test_export_and_default_name(self, tmp_path):
        trace = write_trace(tmp_path)
        code, text = run_cli("trace-export", str(trace))
        assert code == 0
        exported = pathlib.Path(f"{trace}.chrome.json")
        assert exported.is_file()
        doc = json.loads(exported.read_text())
        assert {e["name"] for e in doc["traceEvents"]} == {
            "stage.sweep",
            "layout.build",
        }

    def test_cli_trace_flag_records_spans(self, tmp_path):
        # Other tests in the same process may have warmed the shared
        # quick experiment's in-memory stage products, which would let
        # the pipeline skip (and so never trace) stage.profile.
        from repro.harness.experiment import quick_experiment

        quick_experiment.cache_clear()
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(
            "--no-cache", "--quiet", "--trace", str(trace), "figure", "fig03"
        )
        assert code == 0
        events = [
            e for e in map(json.loads, trace.read_text().splitlines()) if e
        ]
        names = {e.get("name") for e in events if e.get("type") == "span"}
        assert "stage.profile" in names
        assert any(e.get("type") == "metrics" for e in events)
