"""repro.check -- "Spike lint": static verification of layout artifacts.

A binary rewriter is only trustworthy if its output provably preserves
the program (the guarantee BOLT and Codestitcher build their rewriting
machinery around).  This package provides that assurance layer for the
reproduction: a diagnostics engine with stable codes
(:mod:`~repro.check.diagnostics`), layout-integrity checks
(:mod:`~repro.check.layout_checks`), profile flow-conservation checks
(:mod:`~repro.check.profile_checks`), layout-quality lints
(:mod:`~repro.check.quality_checks`), static-vs-measured differential
lints (:mod:`~repro.check.static_checks`), the one layout gate every
producer runs before publishing a layout (:func:`check_all`), and the
per-pass contracts of the layout pipeline
(:mod:`~repro.check.structural`), which the tests hold each pass to.

See ``docs/CHECKS.md`` for the full diagnostic catalogue and
``repro lint --help`` for the CLI front end.
"""

from repro.check.api import (
    check_all,
    check_layout,
    check_profile,
    check_quality,
    check_static_diff,
)
from repro.check.diagnostics import (
    CODES,
    CheckContext,
    CheckReport,
    CheckRunner,
    Diagnostic,
    Severity,
)
from repro.check.profile_checks import check_flow_graph
from repro.check.structural import (
    verify_chaining,
    verify_split_units,
    verify_unit_permutation,
)

__all__ = [
    "CODES",
    "CheckContext",
    "CheckReport",
    "CheckRunner",
    "Diagnostic",
    "Severity",
    "check_all",
    "check_flow_graph",
    "check_layout",
    "check_profile",
    "check_quality",
    "check_static_diff",
    "verify_chaining",
    "verify_split_units",
    "verify_unit_permutation",
]
