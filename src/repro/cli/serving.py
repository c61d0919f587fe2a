"""Service-family subcommands: ``serve`` (run the layout-optimization
service) and ``fleet`` (simulate client nodes against it)."""

from __future__ import annotations

import sys
from typing import Dict

from repro.harness import write_benchmark_json
from repro.harness.experiment import Experiment
from repro.harness.figures import Table

from repro.cli._common import emit_runlog, experiment_from, store_from


def register(sub, shared) -> Dict:
    """Declare the ``serve``/``fleet`` subparsers; returns handlers."""
    serve = sub.add_parser(
        "serve",
        help="run the layout-optimization service for the app binary",
        parents=[shared],
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind host (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP bind port (default 0 = OS-assigned; printed on start)",
    )
    serve.add_argument(
        "--unix", default=None, metavar="PATH",
        help="bind a unix domain socket at PATH instead of TCP",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="optimizations in flight before requests are REJECTED "
        "(default 8)",
    )
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="optimization worker processes (default 0 = in-process "
        "thread pool)",
    )
    serve.add_argument(
        "--profile-source", choices=("static", "measured"), default="static",
        help="cold-start answer for layout requests with no cached "
        "profile (default static: serve a check-gated layout built "
        "from the static prediction; 'measured' disables the fallback "
        "and rejects unknown fingerprints)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="simulate a fleet of client nodes against the layout service",
        parents=[shared],
    )
    fleet.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="concurrent client nodes (default 8)",
    )
    fleet.add_argument(
        "--epochs", type=int, default=4, metavar="N",
        help="trace epochs = distinct drifting profiles (default 4)",
    )
    fleet.add_argument(
        "--combo", default="all",
        help="optimization combination requested (default 'all')",
    )
    fleet.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="server admission-control limit (default 8)",
    )
    fleet.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="server optimization workers (default 0 = thread pool)",
    )
    fleet.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="degraded mode: kill the server after N epochs; clients "
        "finish on last-known-good layouts",
    )
    fleet.add_argument(
        "--connect", default=None, metavar="HOST:PORT|PATH",
        help="drive an already-running server instead of starting one "
        "in-process (incompatible with --kill-after)",
    )
    fleet.add_argument(
        "--shift", type=int, default=5, metavar="N",
        help="TPC-B transactions per client before the DSS shift "
        "(default 5; drives the profile drift between epochs)",
    )
    fleet.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of the table",
    )
    fleet.add_argument(
        "--save-json", default=None, metavar="DIR",
        help="write the acceptance gate as BENCH_serve.json under DIR "
        "(compare runs with 'bench-diff')",
    )
    fleet.add_argument(
        "--check", action="store_true",
        help="run the healthy AND degraded scenarios and exit 1 unless "
        "both pass the acceptance gates",
    )
    return {"serve": _cmd_serve, "fleet": _cmd_fleet}


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.serve import LayoutServer, ServerConfig

    exp = experiment_from(args)
    _ = exp.app  # build (or load) the binary before binding
    server = LayoutServer(
        exp.app.binary,
        store=exp.store,
        config=ServerConfig(
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            queue_limit=args.queue_limit,
            workers=args.workers,
            static_fallback=args.profile_source == "static",
        ),
    )

    async def run() -> None:
        await server.start()
        out.write(
            f"layout server for binary {exp.app.binary.name!r} "
            f"listening on {server.address} "
            f"(queue limit {args.queue_limit}, workers {args.workers}, "
            f"cold-start {args.profile_source})\n"
        )
        out.flush()
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    emit_runlog(exp, args)
    return 0


def _fleet_experiment(args):
    from repro.online import phased_experiment_config

    config = phased_experiment_config(
        shift_after=args.shift, quick=not args.full
    )
    return Experiment(
        config,
        store=None if args.no_cache else store_from(args),
        jobs=args.jobs,
    )


def _cmd_fleet(args, out) -> int:
    import json

    from repro.serve import FleetConfig, run_fleet

    address = None
    if args.connect:
        if args.kill_after is not None:
            sys.stderr.write(
                "fleet: --connect and --kill-after are incompatible (the "
                "driver can only kill servers it owns)\n"
            )
            return 2
        if args.connect.count(":") == 1:
            host, _, port = args.connect.partition(":")
            address = (host, int(port))
        else:
            address = args.connect  # unix socket path

    exp = _fleet_experiment(args)
    base = dict(
        clients=args.clients,
        epochs=args.epochs,
        combo=args.combo,
        queue_limit=args.queue_limit,
        workers=args.workers,
    )
    scenarios = [
        (
            "degraded" if args.kill_after is not None else "healthy",
            FleetConfig(kill_after=args.kill_after, **base),
        )
    ]
    if args.check and args.kill_after is None and address is None:
        scenarios.append(
            (
                "degraded",
                FleetConfig(kill_after=max(1, args.epochs // 2), **base),
            )
        )

    reports = {}
    for name, config in scenarios:
        reports[name] = run_fleet(exp, config, address=address)

    if args.json:
        out.write(
            json.dumps(
                {name: r.to_dict() for name, r in reports.items()}, indent=2
            )
            + "\n"
        )
    else:
        for name, report in reports.items():
            out.write(report.render() + "\n")

    if args.save_json:
        rows = []
        for name, report in reports.items():
            rows.append(
                [
                    f"{name}_requests_served",
                    int(all(e.served == e.requests for e in report.epochs)),
                ]
            )
            rows.append([f"{name}_gate_ok",
                         int(all(e.gate_ok for e in report.epochs))])
            if report.healthy_epochs:
                rows.append([f"{name}_optimizations_bounded",
                             int(report.optimizations_bounded)])
            if report.degraded_epochs:
                rows.append(
                    [f"{name}_fallbacks_used", int(report.fallbacks > 0)]
                )
                rows.append([f"{name}_decay_bounded",
                             int(report.decay_bounded)])
            rows.append([f"{name}_pass", int(report.passes())])
        table = Table(
            title="serve fleet acceptance (1 = pass)",
            columns=["metric", "ratio_ok"],
            rows=rows,
            notes=[
                f"{name}: {r.requests} requests, {r.optimizations} "
                f"optimizations, {r.coalesced} coalesced, "
                f"{r.cache_hits} cache hits, {r.fallbacks} fallbacks, "
                f"queue-wait p95 {r.queue_wait_p95_ms:.1f} ms, "
                f"decay {r.decay_ratio:.3f} (informational, not gated)"
                for name, r in reports.items()
            ],
        )
        write_benchmark_json(
            "serve",
            table,
            args.save_json,
            extra={
                "scenarios": {
                    name: r.to_dict() for name, r in reports.items()
                },
                "queue_wait_p95_ms": max(
                    r.queue_wait_p95_ms for r in reports.values()
                ),
            },
        )
    emit_runlog(exp, args)

    failed = {name: r for name, r in reports.items() if not r.passes()}
    if args.check and failed:
        for name, report in failed.items():
            sys.stderr.write(
                f"fleet check FAILED ({name}): {report.requests} requests, "
                f"{report.optimizations} optimizations, "
                f"{report.fallbacks} fallbacks, "
                f"decay {report.decay_ratio:.3f}, "
                f"{len(report.unhandled_errors)} unhandled error(s)\n"
            )
        return 1
    return 0
