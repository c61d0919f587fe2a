"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``     -- describe the generated binaries and configuration.
* ``figure``   -- regenerate one or more paper or extension tables
  (``figure fig04 fig05`` is the Figure 4/5 cache sweep, ``figure
  fig07`` the optimization ablation, ``figure all`` every table of
  :data:`repro.harness.figures.FIGURES`).
* ``online``   -- online adaptation on a phase-shifting workload
  (static decay vs adaptive re-layout, epoch by epoch).
* ``serve``    -- run the layout-optimization service: profile
  ingestion, request coalescing, tiered layout cache, check gate.
* ``fleet``    -- simulate N client nodes against the service
  (healthy and degraded scenarios, with acceptance gates).
* ``scenarios`` -- the declarative scenario matrix: ``list`` the cells,
  ``run`` the resumable cross-workload sweep, ``report`` the saved
  cross-scenario Markdown report.
* ``static-bench`` -- measured vs static vs hybrid profile sources on
  scenario cells; records the OLTP static-recovery gate as
  ``BENCH_staticpred.json``.
* ``cache``    -- inspect (``info``) or wipe (``clear``) the artifact cache.
* ``pipeline`` -- per-stage view of the cache: ``pipeline info
  [fingerprint]`` reports each declared stage's artifacts, sizes, and
  whether a warm replay would hit (``docs/PIPELINE.md``).
* ``report``   -- render one Markdown/HTML run report from a results
  directory (figure tables, metric summaries, span flamegraph).
* ``bench-diff`` -- compare fresh ``BENCH_*.json`` against a baseline
  directory; non-zero exit on regressions beyond the threshold.
* ``trace-export`` -- convert a span-trace JSONL into Chrome's
  ``chrome://tracing`` / Perfetto JSON format.

Figures run on the quick experiment by default; pass ``--full`` for
the paper-scale configuration (``repro --full figure all --save-json
benchmarks/results`` regenerates every EXPERIMENTS.md table).  Each
command runs on a fresh experiment.  Stage
products (codegen, profiles, traces, layouts) persist in a
content-addressed cache (``--cache-dir``, default ``~/.cache/repro``;
``--no-cache`` disables) so warm reruns skip straight to the cache
simulators, and ``--jobs N`` fans independent sweep cells across
worker processes with bit-identical output.  A per-stage run log
(wall time, cache hit/miss, bytes) is printed to stderr after each
command unless ``--quiet`` is given.  ``--trace PATH`` records
:mod:`repro.obs` spans to a JSONL file for ``report``/``trace-export``.
The shared flags may be given before or after the subcommand.
``figure``/``scenarios`` take ``--profile-source
{measured,static,hybrid}`` to build the optimized layouts from the
profile-free static prediction instead of the profiling run (see
``docs/STATIC.md``).

Package layout: one module per subcommand family, each exposing
``register(sub, shared) -> {command: handler}``.  ``main`` walks the
:data:`COMMAND_MODULES` registry to build the parser and handler
table, so a new command family is one module plus one registry entry.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.cli import cache, figures, lint, online, reports, scenarios, serving
from repro.cli._common import add_shared_flags

#: The subcommand registry, in help-listing order.  Each module's
#: ``register(sub, shared)`` declares its subparsers on ``sub`` (with
#: ``shared`` as the inheritable flag parent) and returns the
#: ``{command-name: handler(args, out) -> int}`` entries it owns.
COMMAND_MODULES = (
    figures,    # info, figure
    online,     # online
    serving,    # serve, fleet
    scenarios,  # scenarios, static-bench
    cache,      # cache, pipeline
    reports,    # report, bench-diff, trace-export
    lint,       # lint
)


def _build_parser() -> "tuple[argparse.ArgumentParser, Dict[str, Callable]]":
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Code Layout Optimizations for "
        "Transaction Processing Workloads' (ISCA 2001)",
    )
    add_shared_flags(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    add_shared_flags(shared, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)
    handlers: Dict[str, Callable] = {}
    for module in COMMAND_MODULES:
        for command, handler in module.register(sub, shared).items():
            if command in handlers:
                raise RuntimeError(
                    f"CLI command {command!r} registered twice "
                    f"(second time by {module.__name__})"
                )
            handlers[command] = handler
    return parser, handlers


def main(argv=None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro import obs

    out = out or sys.stdout
    parser, handlers = _build_parser()
    args = parser.parse_args(argv)
    if args.trace:
        obs.enable(trace_path=args.trace)
    try:
        return handlers[args.command](args, out)
    finally:
        if args.trace:
            obs.flush_metrics()
            obs.disable()


__all__ = ["COMMAND_MODULES", "main"]
