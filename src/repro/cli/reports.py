"""Reporting-family subcommands: ``report``, ``bench-diff``, and
``trace-export`` — everything that reads saved ``BENCH_*.json``
documents (``repro figure --save-json``) instead of running
experiments."""

from __future__ import annotations

from typing import Dict


def register(sub, shared) -> Dict:
    """Declare the reporting subparsers; returns their handlers."""
    report = sub.add_parser(
        "report", help="render a Markdown/HTML run report from BENCH_*.json"
    )
    report.add_argument(
        "results_dir", nargs="?", default="benchmarks/results",
        help="directory holding BENCH_*.json documents "
        "(default benchmarks/results)",
    )
    report.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="span-trace JSONL to render as a flamegraph section",
    )
    report.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    report.add_argument(
        "--html", action="store_true",
        help="emit a self-contained HTML page instead of Markdown",
    )

    diff = sub.add_parser(
        "bench-diff",
        help="compare fresh BENCH_*.json against a baseline directory",
    )
    diff.add_argument(
        "fresh_dir", help="directory holding the fresh BENCH_*.json documents"
    )
    diff.add_argument(
        "--baseline", default="benchmarks/baselines", metavar="DIR",
        help="baseline directory (default benchmarks/baselines)",
    )
    diff.add_argument(
        "--threshold", type=float, default=8.0, metavar="PCT",
        help="regression threshold in percent (default 8)",
    )
    diff.add_argument(
        "--wall-time", action="store_true",
        help="also gate summed pipeline stage wall time (machine-dependent; "
        "off by default)",
    )

    export = sub.add_parser(
        "trace-export",
        help="convert a span-trace JSONL to Chrome trace_event JSON",
    )
    export.add_argument("trace_file", help="span-trace JSONL written via --trace")
    export.add_argument(
        "--out", default=None, metavar="PATH",
        help="output path (default <trace_file>.chrome.json)",
    )
    return {
        "report": _cmd_report,
        "bench-diff": _cmd_bench_diff,
        "trace-export": _cmd_trace_export,
    }


def _cmd_report(args, out) -> int:
    from repro.obs.report import render_html, render_report

    text = render_report(args.results_dir, trace_path=args.trace_file)
    if args.html:
        text = render_html(text)
    if args.out:
        import pathlib

        pathlib.Path(args.out).write_text(text)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(text)
    return 0


def _cmd_bench_diff(args, out) -> int:
    from repro.obs.benchdiff import compare_dirs

    report = compare_dirs(
        args.fresh_dir,
        args.baseline,
        threshold_pct=args.threshold,
        wall_time=args.wall_time,
    )
    out.write(report.render())
    return 0 if report.ok else 1


def _cmd_trace_export(args, out) -> int:
    from repro.obs.chrome import export_chrome_trace

    out_path = args.out or f"{args.trace_file}.chrome.json"
    written = export_chrome_trace(args.trace_file, out_path)
    out.write(f"wrote {written}\n")
    return 0
