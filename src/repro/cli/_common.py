"""Shared plumbing for the ``repro`` CLI subcommand modules.

Every subcommand family module (:mod:`repro.cli.figures`,
:mod:`repro.cli.serving`, ...) builds on the same pieces defined here:
the shared flag set added both to the root parser and to each
subcommand's ``add_help=False`` parent, the experiment/store factories
that honour those flags, and the per-stage run-log emission on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.harness import (
    ArtifactStore,
    Experiment,
    default_cache_dir,
    default_experiment,
    quick_experiment,
)

def default_jobs() -> int:
    """Worker-count default: ``$REPRO_JOBS`` or serial."""
    return int(os.environ.get("REPRO_JOBS", "1") or "1")


def add_shared_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """The flags every command understands, defined once.

    Added twice: to the root parser with real defaults, and to the
    ``add_help=False`` parent each subcommand inherits with SUPPRESS
    defaults -- so ``repro --jobs 4 figure ...`` and ``repro figure ...
    --jobs 4`` both work, and a flag omitted after the subcommand never
    clobbers one given before it.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--full", action="store_true", default=default(False),
        help="use the paper-scale experiment (slower; benchmark default)",
    )
    parser.add_argument(
        "--jobs", type=int, default=default(default_jobs()), metavar="N",
        help="worker processes for sweep fan-out (default $REPRO_JOBS or 1; "
        "-1 = one per CPU); output is bit-identical to serial",
    )
    parser.add_argument(
        "--cache-dir", default=default(None), metavar="PATH",
        help=f"artifact cache directory (default {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", default=default(False),
        help="disable the persistent artifact cache for this run",
    )
    parser.add_argument(
        "--quiet", action="store_true", default=default(False),
        help="suppress the per-stage run log on stderr",
    )
    parser.add_argument(
        "--trace", default=default(None), metavar="PATH",
        help="record observability spans to a JSONL trace file "
        "(view with 'report' or 'trace-export')",
    )


def store_from(args) -> ArtifactStore:
    """The artifact store selected by ``--cache-dir``."""
    return ArtifactStore(args.cache_dir or default_cache_dir())


def experiment_from(args) -> Experiment:
    """A fresh experiment over the quick/full config, configured by the
    shared flags: commands run in one process share no products, run
    log or settings."""
    config = (default_experiment() if args.full else quick_experiment()).config
    exp = Experiment(
        config,
        store=None if args.no_cache else store_from(args),
        jobs=args.jobs,
    )
    # Commands without the flag (info, lint, ...) keep the measured
    # default; ``serve`` interprets the flag itself.
    if args.command not in ("serve",):
        exp.profile_source = getattr(args, "profile_source", "measured")
    return exp


def emit_runlog(exp, args) -> None:
    """Render the experiment's per-stage run log to stderr."""
    if args.quiet or not exp.runlog.records:
        return
    cache = "off" if exp.store is None else str(exp.store.root)
    sys.stderr.write(
        exp.runlog.render(
            header=f"run log: fingerprint={exp.fingerprint} "
            f"jobs={exp.jobs} cache={cache}"
        )
    )
