"""Figure-family subcommands: ``info`` describes the generated system
and ``figure`` renders the paper and extension tables of
:data:`~repro.harness.figures.FIGURES` from one
:class:`~repro.harness.experiment.Experiment`."""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import dynamic_footprint_bytes
from repro.harness import write_benchmark_json
from repro.harness.figures import FIGURES, memo
from repro.staticpred import PROFILE_SOURCES

from repro.cli._common import emit_runlog, experiment_from


def register(sub, shared) -> Dict:
    """Declare the figure-family subparsers; returns their handlers."""
    sub.add_parser(
        "info", help="describe the generated system", parents=[shared]
    )

    figure = sub.add_parser(
        "figure", help="regenerate paper figures", parents=[shared]
    )
    figure.add_argument(
        "names", nargs="+", choices=sorted(FIGURES) + ["all"],
        help="figure ids (or 'all')",
    )
    figure.add_argument(
        "--save-json", default=None, metavar="DIR",
        help="also write each table as BENCH_<figure>.json under DIR",
    )
    figure.add_argument(
        "--profile-source", choices=PROFILE_SOURCES, default="measured",
        help="profile the optimized layouts are built from (default "
        "measured; 'static' is the profile-free CFG prediction, "
        "'hybrid' blends both -- see docs/STATIC.md)",
    )

    return {"info": _cmd_info, "figure": _cmd_figure}


def _cmd_info(args, out) -> int:
    exp = experiment_from(args)
    app = exp.app.binary
    kernel = exp.kernel.binary
    config = exp.config
    out.write(
        f"application binary: {app.num_procedures} procedures, "
        f"{app.num_blocks} blocks, {app.static_size * 4 // 1024} KB static\n"
        f"kernel binary:      {kernel.num_procedures} procedures, "
        f"{kernel.static_size * 4 // 1024} KB static\n"
        f"TPC-B:              {config.tpcb.branches} branches, "
        f"{config.tpcb.accounts:,} accounts\n"
        f"system:             {config.system.cpus} CPUs x "
        f"{config.system.processes_per_cpu} server processes\n"
        f"transactions:       {config.profile_transactions} profiled, "
        f"{config.measure_transactions} measured\n"
        f"fingerprint:        {exp.fingerprint}\n"
    )
    profile = exp.profile
    out.write(
        f"profiled:           {profile.total_instructions:,} instructions, "
        f"dynamic footprint "
        f"{_footprint_kb(profile)} KB\n"
    )
    emit_runlog(exp, args)
    return 0


def _footprint_kb(profile) -> int:
    return dynamic_footprint_bytes(profile) // 1024


def _figure_slug(name: str, table, index: int, count: int) -> str:
    """Stable BENCH slug for one figure table.

    Multi-table figures carry the combo in the title — ``Figure 4
    (base): ...`` becomes ``fig04_base``; untagged extras fall back to
    a positional suffix.
    """
    import re

    if count == 1:
        return name
    match = re.search(r"\(([A-Za-z0-9+_-]+)\)", table.title)
    if match:
        return f"{name}_{match.group(1).replace('+', '_')}"
    return f"{name}_{index}"


def _cmd_figure(args, out) -> int:
    exp = experiment_from(args)
    names: List[str] = (
        sorted(FIGURES) if "all" in args.names else list(dict.fromkeys(args.names))
    )
    shared = memo()
    for name in names:
        tables = FIGURES[name](exp, shared)
        for index, table in enumerate(tables):
            out.write(table.render() + "\n")
            if args.save_json:
                write_benchmark_json(
                    _figure_slug(name, table, index, len(tables)),
                    table,
                    args.save_json,
                )
    emit_runlog(exp, args)
    return 0
