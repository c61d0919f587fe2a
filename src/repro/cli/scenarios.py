"""Scenario-family subcommands: the declarative ``scenarios`` matrix
(``list``/``run``/``report``) and the ``static-bench`` profile-source
comparison over its cells."""

from __future__ import annotations

import sys
from typing import Dict

from repro.harness import write_benchmark_json
from repro.harness.figures import Table
from repro.staticpred import PROFILE_SOURCES

from repro.cli._common import store_from


def register(sub, shared) -> Dict:
    """Declare the scenario-family subparsers; returns handlers."""
    scenarios = sub.add_parser(
        "scenarios",
        help="declarative scenario matrix (workload x hierarchy x combo "
        "x drift x engine)",
        description="Run the paper's evaluation as data: list the "
        "scenario cells, execute the resumable matrix sweep, or "
        "re-render the cross-scenario report from a saved "
        "BENCH_scenarios.json.  See docs/SCENARIOS.md.",
    )
    scsub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    sc_list = scsub.add_parser(
        "list", help="show the matrix cells and their fingerprints",
        parents=[shared],
    )
    sc_run = scsub.add_parser(
        "run", help="run (or resume) the scenario matrix",
        parents=[shared],
    )
    for leaf in (sc_list, sc_run):
        leaf.add_argument(
            "--matrix", default=None, metavar="FILE",
            help="load scenarios from a .toml/.json matrix file instead "
            "of the built-in default matrix",
        )
        leaf.add_argument(
            "--select", action="extend", nargs="+", default=None,
            metavar="GLOB",
            help="only cells whose name matches GLOB (repeatable, takes "
            "several patterns; a pattern matching nothing is an error)",
        )
        leaf.add_argument(
            "--profile-source", choices=PROFILE_SOURCES, default=None,
            help="override every selected cell's profile source "
            "(default: each spec's own, normally 'measured')",
        )
    sc_run.add_argument(
        "--fresh", action="store_true",
        help="ignore previously completed cells and recompute everything",
    )
    sc_run.add_argument(
        "--no-verify", action="store_true",
        help="skip the repro.check gate on each cell's optimized layout",
    )
    sc_run.add_argument(
        "--save-json", default=None, metavar="DIR",
        help="write the matrix as BENCH_scenarios.json under DIR "
        "(compare runs with 'bench-diff')",
    )
    sc_run.add_argument(
        "--report", default=None, metavar="PATH", dest="report_path",
        help="also write the cross-scenario Markdown report to PATH",
    )
    sc_run.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every cell passes its gate and the OLTP/DSS "
        "sensitivity ordering holds",
    )
    sc_report = scsub.add_parser(
        "report",
        help="render the cross-scenario Markdown report from a saved "
        "BENCH_scenarios.json",
    )
    sc_report.add_argument(
        "results_dir", nargs="?", default="benchmarks/results",
        help="directory holding BENCH_scenarios.json "
        "(default benchmarks/results)",
    )
    sc_report.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )

    staticbench = sub.add_parser(
        "static-bench",
        help="measured vs static vs hybrid profile sources on the OLTP "
        "scenario cells (the staticpred recovery gate)",
        description="Simulate scenario cells with optimized layouts "
        "built from each profile source and compare the miss "
        "reductions.  The gate requires static-only layouts to recover "
        "at least half of the measured-profile reduction on the OLTP "
        "cells.  See docs/STATIC.md.",
        parents=[shared],
    )
    staticbench.add_argument(
        "--select", action="extend", nargs="+", default=None, metavar="GLOB",
        help="scenario cells to evaluate (default: the no-drift OLTP "
        "cells tpcb-i32 and tpcb-i64x2)",
    )
    staticbench.add_argument(
        "--check", action="store_true",
        help="exit 1 unless static-only layouts recover >= 50%% of the "
        "measured-profile miss reduction on the OLTP cells",
    )
    staticbench.add_argument(
        "--save-json", default=None, metavar="DIR",
        help="write the gate table as BENCH_staticpred.json under DIR "
        "(compare runs with 'bench-diff')",
    )
    return {"scenarios": _cmd_scenarios, "static-bench": _cmd_static_bench}


def _cmd_scenarios(args, out) -> int:
    import json as _json
    import pathlib

    from repro import scenarios as scn
    from repro.errors import ScenarioError

    if args.scenarios_command == "report":
        path = pathlib.Path(args.results_dir) / "BENCH_scenarios.json"
        if not path.is_file():
            sys.stderr.write(
                f"no {path} -- run 'repro scenarios run --save-json "
                f"{args.results_dir}' first\n"
            )
            return 2
        text = scn.render_scenarios_report(_json.loads(path.read_text()))
        if args.out:
            pathlib.Path(args.out).write_text(text)
            out.write(f"wrote {args.out}\n")
        else:
            out.write(text)
        return 0

    try:
        if args.matrix:
            specs = scn.load_specs(args.matrix)
        else:
            specs = scn.default_matrix(quick=not args.full)
        if args.select:
            specs = scn.select_specs(specs, args.select)
        if args.profile_source:
            import dataclasses

            specs = [
                dataclasses.replace(
                    s, profile_source=args.profile_source
                ).validate()
                for s in specs
            ]

        if args.scenarios_command == "list":
            table = Table(
                title="Scenario matrix cells",
                columns=["scenario", "workload", "hierarchy", "combo",
                         "drift", "engine", "scope", "source",
                         "fingerprint"],
                rows=[
                    [s.name, s.workload.family, s.hierarchy.label, s.combo,
                     s.drift, s.engine, s.scope, s.profile_source,
                     s.fingerprint()]
                    for s in specs
                ],
                notes=["source: " + (args.matrix or "built-in default matrix")],
            )
            out.write(table.render() + "\n")
            return 0

        store = None if args.no_cache else store_from(args)
        result = scn.run_matrix(
            specs,
            store=store,
            jobs=args.jobs,
            fresh=args.fresh,
            verify=not args.no_verify,
        )
    except ScenarioError as exc:
        sys.stderr.write(f"scenarios: {exc}\n")
        return 2
    out.write(result.render() + "\n")
    if args.save_json:
        write_benchmark_json("scenarios", result.to_document(), args.save_json)
    if args.report_path:
        pathlib.Path(args.report_path).write_text(
            scn.render_scenarios_report(result.to_document())
        )
        out.write(f"wrote {args.report_path}\n")
    if args.check and not result.passes():
        sys.stderr.write(
            "scenarios check FAILED: "
            f"{len(result.failed)} failed cell(s), "
            f"gates {'ok' if all(c.gate_ok for c in result.cells) else 'VIOLATED'}, "
            f"ordering {'ok' if result.ordering_ok() else 'VIOLATED'}\n"
        )
        return 1
    return 0


def _cmd_static_bench(args, out) -> int:
    from repro import scenarios as scn
    from repro.errors import ScenarioError
    from repro.scenarios.staticbench import (
        DEFAULT_CELLS,
        GATE_MIN_RATIO,
        run_static_bench,
    )

    try:
        specs = scn.select_specs(
            scn.default_matrix(quick=not args.full),
            args.select or list(DEFAULT_CELLS),
        )
        result = run_static_bench(
            specs,
            store=None if args.no_cache else store_from(args),
        )
    except ScenarioError as exc:
        sys.stderr.write(f"static-bench: {exc}\n")
        return 2
    table = result.to_table()
    out.write(table.render() + "\n")
    if args.save_json:
        write_benchmark_json("staticpred", table, args.save_json)
    if args.check and not result.passes():
        sys.stderr.write(
            f"static-bench check FAILED: mean OLTP static recovery ratio "
            f"{result.gate_ratio:.3f} (need >= {GATE_MIN_RATIO:g})\n"
        )
        return 1
    return 0
