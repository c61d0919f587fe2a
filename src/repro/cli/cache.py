"""Cache-family subcommands: the flat ``cache info``/``cache clear``
store summary and the stage-aware ``pipeline info`` view that breaks
one experiment fingerprint down per declared stage."""

from __future__ import annotations

import sys
from typing import Dict

from repro.pipeline import PipelineRunner

from repro.cli._common import experiment_from, store_from


def register(sub, shared) -> Dict:
    """Declare the ``cache``/``pipeline`` subparsers; returns handlers."""
    cache = sub.add_parser(
        "cache", help="inspect or clear the artifact cache", parents=[shared]
    )
    cache.add_argument(
        "action", choices=("info", "clear"),
        help="'info' summarizes the cache; 'clear' wipes it",
    )

    pipeline = sub.add_parser(
        "pipeline",
        help="inspect the stage-graph cache per stage",
        description="Per-stage view of the artifact cache: for one "
        "experiment fingerprint, report each declared pipeline stage's "
        "artifacts, their cached sizes, and whether a replay would hit "
        "(see docs/PIPELINE.md).",
    )
    psub = pipeline.add_subparsers(dest="pipeline_command", required=True)
    pinfo = psub.add_parser(
        "info",
        help="per-stage cache sizes and replay-hit states for one "
        "experiment fingerprint",
        parents=[shared],
    )
    pinfo.add_argument(
        "fingerprint", nargs="?", default=None,
        help="experiment fingerprint to inspect (default: the "
        "quick/--full experiment selected by the shared flags)",
    )
    return {"cache": _cmd_cache, "pipeline": _cmd_pipeline}


def _cmd_cache(args, out) -> int:
    store = store_from(args)
    if args.action == "clear":
        removed = store.clear()
        out.write(f"cleared {removed} cached experiment(s) from {store.root}\n")
        return 0
    info = store.info()
    out.write(
        f"cache dir:    {info.root}\n"
        f"experiments:  {info.experiments}\n"
        f"files:        {info.files}\n"
        f"total size:   {info.total_bytes / (1024 * 1024):.2f} MB\n"
    )
    return 0


def _cmd_pipeline(args, out) -> int:
    """``pipeline info [fingerprint]``: the per-stage replacement for
    the flat ``cache info`` rollup.

    Probes the declared stages against the store without building
    anything: each row is one stage with its artifact count, cached
    bytes, and state (``ready`` = a warm replay would hit, ``partial``,
    ``missing``, ``transient`` = persists nothing).  Artifacts under
    the fingerprint not claimed by a declared stage (dynamic layout
    stages, scenario cells) are rolled up per stage family below.
    """
    if args.no_cache:
        sys.stderr.write("pipeline info: no cache to inspect (--no-cache)\n")
        return 2
    exp = experiment_from(args)
    store = exp.store
    fingerprint = args.fingerprint or exp.fingerprint
    runner = PipelineRunner(exp.declared_stages(), store=store, fingerprint=fingerprint)
    rows = runner.status()
    claimed = set()
    out.write(
        f"pipeline stages for fingerprint={fingerprint}\n"
        f"cache dir: {store.root}\n\n"
    )
    width = max(len(row.key) for row in rows)
    out.write(f"{'stage'.ljust(width)}  {'state':9s} {'bytes':>10s}  artifacts\n")
    for row in rows:
        names = ", ".join(
            name + ("" if present else "?")
            for name, present, _ in row.artifacts
        ) or "-"
        out.write(
            f"{row.key.ljust(width)}  {row.state:9s} {row.bytes:>10d}  {names}\n"
        )
        claimed.update(name for name, _, _ in row.artifacts)

    ready = sum(1 for row in rows if row.state == "ready")
    persistent = [row for row in rows if row.artifacts]
    out.write(
        f"\ndeclared stages: {len(rows)} "
        f"({ready}/{len(persistent)} persistent stages ready to hit, "
        f"{len(rows) - len(persistent)} transient)\n"
    )

    extra = [
        path
        for path in sorted((store.root / fingerprint).glob("*"))
        if path.is_file() and path.name not in claimed
    ]
    if extra:
        families: Dict[str, list] = {}
        for path in extra:
            family = path.name.split("-", 1)[0]
            families.setdefault(family, []).append(path.stat().st_size)
        out.write("dynamic-stage artifacts (not declared until requested):\n")
        for family, sizes in sorted(families.items()):
            out.write(
                f"  {family}: {len(sizes)} file(s), {sum(sizes)} bytes\n"
            )
    return 0
