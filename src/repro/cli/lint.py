"""The ``lint`` subcommand: the repro.check static analyses (Spike
lint) over generated binaries or saved artifacts."""

from __future__ import annotations

import pathlib
from typing import Dict

from repro.check import (
    CheckReport,
    check_all,
    check_profile,
    check_static_diff,
)
from repro.check.layout_checks import decode_layout
from repro.harness.store import load_profile
from repro.layout import ALL_COMBOS

from repro.cli._common import emit_runlog, experiment_from


def register(sub, shared) -> Dict:
    """Declare the ``lint`` subparser; returns its handler."""
    lint = sub.add_parser(
        "lint",
        help="run the repro.check static analyses (Spike lint)",
        description="Verify layout integrity, profile flow conservation, "
        "and layout-quality lints over the generated binaries -- or over "
        "saved layout/profile artifacts.",
        parents=[shared],
    )
    lint.add_argument(
        "--combo", action="append", default=None, metavar="NAME",
        help="optimization combination(s) to lint (repeatable; default all)",
    )
    lint.add_argument(
        "--layout", action="append", default=None, metavar="FILE",
        help="lint a saved layout JSON against the app binary instead of "
        "building layouts (repeatable)",
    )
    lint.add_argument(
        "--profile", action="append", default=None, metavar="FILE",
        help="lint a saved profile .npz against the app binary (repeatable)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any error-severity finding is reported",
    )
    lint.add_argument(
        "--static-diff", action="store_true",
        help="also diff the measured profiles against the static "
        "prediction (STA* advisories; see docs/STATIC.md)",
    )
    return {"lint": _cmd_lint}


def _cmd_lint(args, out) -> int:
    import json as _json

    exp = experiment_from(args)
    report = CheckReport()

    if args.layout or args.profile:
        # Artifact mode: lint saved files against the app binary.
        binary = exp.app.binary
        for path in args.layout or ():
            # No placement validation on load: lint must *report* a
            # corrupt layout, not crash on it.
            payload = _json.loads(pathlib.Path(path).read_text())
            layout, findings = decode_layout(binary, payload, target=path)
            report.extend(CheckReport(findings))
            if layout is not None:
                report.extend(check_all(binary, layout=layout, target=path))
        for path in args.profile or ():
            profile = load_profile(binary, path)
            report.extend(check_profile(binary, profile, target=path))
    else:
        combos = args.combo or list(ALL_COMBOS)
        for label, binary, profile, optimizer in (
            ("app", exp.app.binary, exp.profile, exp.optimizer),
            ("kernel", exp.kernel.binary, exp.kernel_profile,
             exp.optimizer_for("measured", kernel=True)),
        ):
            report.extend(check_profile(binary, profile, target=f"profile:{label}"))
            for combo in combos:
                report.extend(check_all(
                    binary, profile, optimizer.layout(combo),
                    target=f"{label}/{combo}",
                ))

    if args.static_diff:
        for label, binary, measured, kernel in (
            ("app", exp.app.binary, exp.profile, False),
            ("kernel", exp.kernel.binary, exp.kernel_profile, True),
        ):
            report.extend(
                check_static_diff(
                    binary, measured, exp.static_profile(kernel=kernel),
                    target=f"static-diff:{label}",
                )
            )

    if args.json:
        out.write(_json.dumps(report.to_json(), indent=2) + "\n")
    else:
        out.write(report.render())
    emit_runlog(exp, args)
    if args.strict and not report.ok:
        return 1
    return 0
