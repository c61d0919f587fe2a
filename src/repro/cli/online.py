"""The ``online`` subcommand: online adaptation on a phase-shifting
workload (static decay vs adaptive re-layout, epoch by epoch)."""

from __future__ import annotations

import sys
from typing import Dict

from repro.harness.experiment import Experiment

from repro.cli._common import emit_runlog, store_from


def register(sub, shared) -> Dict:
    """Declare the ``online`` subparser; returns its handler."""
    online = sub.add_parser(
        "online",
        help="online adaptation: static decay vs adaptive re-layout on a "
        "phase-shifting TPC-B -> DSS workload",
        parents=[shared],
    )
    online.add_argument(
        "--epochs", type=int, default=6, metavar="N",
        help="epochs the measurement run is cut into (default 6, min 2)",
    )
    online.add_argument(
        "--period", type=int, default=64, metavar="N",
        help="PC-sampling period in instructions (default 64)",
    )
    online.add_argument(
        "--threshold", type=float, default=0.40, metavar="X",
        help="hard drift threshold for layout swaps (default 0.40)",
    )
    online.add_argument(
        "--refresh-threshold", type=float, default=0.16, metavar="X",
        help="residual-drift threshold for refresh retrains (default 0.16)",
    )
    online.add_argument(
        "--top-k", type=int, default=64, metavar="K",
        help="hot-set size for the turnover drift component (default 64)",
    )
    online.add_argument(
        "--combo", default="all",
        help="optimization combination for all layout arms (default 'all')",
    )
    online.add_argument(
        "--shift", type=int, default=5, metavar="N",
        help="TPC-B transactions per client before the DSS shift (default 5)",
    )
    online.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of the table",
    )
    online.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the adaptive arm recovers to within 10%% of "
        "offline re-profiling and beats the static layout",
    )
    return {"online": _cmd_online}


def _cmd_online(args, out) -> int:
    import json

    from repro.online import (
        OnlineConfig,
        phased_experiment_config,
        run_online_experiment,
    )

    config = phased_experiment_config(
        shift_after=args.shift, quick=not args.full
    )
    exp = Experiment(
        config,
        store=None if args.no_cache else store_from(args),
        jobs=args.jobs,
    )
    report = run_online_experiment(
        exp,
        OnlineConfig(
            epochs=args.epochs,
            period=args.period,
            threshold=args.threshold,
            refresh_threshold=args.refresh_threshold,
            top_k=args.top_k,
            combo=args.combo,
            shift_after=args.shift,
        ),
    )
    if args.json:
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        out.write(report.render())
    emit_runlog(exp, args)
    if args.check and not report.passes():
        sys.stderr.write(
            f"online check FAILED: recovery={report.recovery_ratio:.3f} "
            f"(need <= 1.10), final adaptive={report.final.adaptive_mpki:.3f} "
            f"vs static={report.final.static_mpki:.3f} MPKI\n"
        )
        return 1
    return 0
