"""Figure-family subcommands: ``info``, ``figure``, ``sweep``,
``ablation``, and ``sim-bench`` — everything that renders paper tables
from one :class:`~repro.harness.experiment.Experiment`."""

from __future__ import annotations

import sys
from typing import Dict, List

from repro.analysis import dynamic_footprint_bytes
from repro.harness import figures, write_benchmark_json
from repro.harness.figures import Table
from repro.sim import simulate_grid
from repro.staticpred import PROFILE_SOURCES

from repro.cli._common import (
    FIGURES,
    emit_runlog,
    experiment_from,
    warm,
)


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
        "--engine", choices=("batched", "classic"), default="batched",
        help="direct-mapped sweep engine for fig04/fig05 (default "
        "batched; classic is the per-cell cross-check path)",
    )
    figure.add_argument(
        "--profile-source", choices=PROFILE_SOURCES, default="measured",
        help="profile the optimized layouts are built from (default "
        "measured; 'static' is the profile-free CFG prediction, "
        "'hybrid' blends both -- see docs/STATIC.md)",
    )

    sweep = sub.add_parser(
        "sweep", help="Figure 4/5 cache sweep (base + optimized)",
        parents=[shared],
    )
    sweep.add_argument(
        "--engine", choices=("batched", "classic"), default="batched",
        help="direct-mapped sweep engine (default batched)",
    )
    sweep.add_argument(
        "--profile-source", choices=PROFILE_SOURCES, default="measured",
        help="profile the optimized layouts are built from (default "
        "measured; see docs/STATIC.md)",
    )
    sub.add_parser(
        "ablation", help="Figure 7 optimization ablation", parents=[shared]
    )

    simbench = sub.add_parser(
        "sim-bench",
        help="time the fig04 sweep under both engines and verify "
        "bit-identical miss counts",
        parents=[shared],
    )
    simbench.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the batched engine matches classic exactly "
        "and is >= 2x faster",
    )
    simbench.add_argument(
        "--save-json", default=None, metavar="DIR",
        help="write the gate result as BENCH_sim_fig04.json under DIR "
        "(for 'repro bench-diff' against the committed baseline)",
    )
    simbench.add_argument(
        "--min-speedup", type=float, default=2.0, metavar="X",
        help="speedup the gate requires (default 2.0)",
    )

    return {
        "info": _cmd_info,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "ablation": _cmd_ablation,
        "sim-bench": _cmd_sim_bench,
    }


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
    for name in names:
        tables = FIGURES[name](exp, args.engine)
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


def _cmd_sweep(args, out) -> int:
    exp = experiment_from(args)
    warm(exp)
    base = figures.fig04_cache_sweep(exp, "base", engine=args.engine)
    opt = figures.fig04_cache_sweep(exp, "all", engine=args.engine)
    out.write(figures.fig04_table(base, "base").render() + "\n")
    out.write(figures.fig04_table(opt, "all").render() + "\n")
    out.write(figures.fig05_relative(base, opt).render() + "\n")
    emit_runlog(exp, args)
    return 0


def _cmd_sim_bench(args, out) -> int:
    """Time the fig04 sweep under both engines on identical streams.

    The gate is recorded as boolean ``ratio_ok`` rows (1 = pass) rather
    than raw seconds, so ``repro bench-diff`` against the committed
    baseline stays machine-independent: a pass-to-fail flip shows up as
    a -100% regression; timing jitter never trips it.
    """
    import time as _time

    exp = experiment_from(args)
    warm(exp)
    streams = {
        combo: exp.streams(combo, scope="app") for combo in ("base", "all")
    }
    jobs = exp.jobs
    timings: Dict[str, float] = {}
    grids: Dict[str, dict] = {}
    for engine in ("classic", "batched"):
        start = _time.perf_counter()
        grids[engine] = {
            combo: simulate_grid(
                streams[combo],
                figures.SWEEP_SIZES,
                figures.SWEEP_LINES,
                jobs=jobs,
                engine=engine,
            )
            for combo in ("base", "all")
        }
        timings[engine] = _time.perf_counter() - start
    identical = grids["classic"] == grids["batched"]
    speedup = timings["classic"] / max(timings["batched"], 1e-9)
    speedup_ok = speedup >= args.min_speedup

    table = Table(
        title="sim-bench: fig04 sweep, batched vs classic engine",
        columns=["metric", "ratio_ok"],
        rows=[
            ["identical_misses", int(identical)],
            [f"speedup_ge_{args.min_speedup:g}x", int(speedup_ok)],
        ],
        notes=[
            f"classic {timings['classic']:.3f}s, batched "
            f"{timings['batched']:.3f}s, speedup {speedup:.2f}x "
            f"(jobs={jobs}; timings informational, not gated)",
        ],
    )
    out.write(table.render() + "\n")
    if args.save_json:
        write_benchmark_json("sim_fig04", table, args.save_json)
    emit_runlog(exp, args)
    if args.check and not (identical and speedup_ok):
        sys.stderr.write(
            f"sim-bench check FAILED: identical_misses={identical} "
            f"speedup={speedup:.2f}x (need >= {args.min_speedup:g}x)\n"
        )
        return 1
    return 0


def _cmd_ablation(args, out) -> int:
    exp = experiment_from(args)
    warm(exp)
    out.write(figures.fig07_ablation(exp).render() + "\n")
    emit_runlog(exp, args)
    return 0
