"""The diagnostics engine: stable codes, severities, and the runner.

Every analysis in :mod:`repro.check` reports findings as
:class:`Diagnostic` values carrying a *stable code* (``LAY001``,
``PRF002``, ...), a severity, a human-readable message, and an optional
fix hint.  Codes are registered once in :data:`CODES` -- a diagnostic
with an unregistered code is a programming error and is rejected at
construction time, which keeps the catalogue in ``docs/CHECKS.md``
honest.

:class:`CheckRunner` composes analysis passes over a
:class:`CheckContext` and folds their findings into a
:class:`CheckReport` that renders as text (one line per finding) or
JSON (for tooling).  Every run increments the ``check.diagnostics.*``
observability counters so emitted diagnostics show up in
``BENCH_*.json`` metric snapshots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs


class Severity(str, enum.Enum):
    """How bad a finding is.

    * ``ERROR`` -- an integrity violation: the artifact is corrupt and
      must not be used (``--strict`` exits non-zero on these).
    * ``WARN`` -- suspicious but possibly legitimate (e.g. sampling
      noise in an estimated profile).
    * ``INFO`` -- a quality lint or advisory (layout smells).
    """

    ERROR = "error"
    WARN = "warn"
    INFO = "info"

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.value


#: The stable diagnostic catalogue: code -> one-line description.
#: ``docs/CHECKS.md`` documents each entry in depth; a test asserts the
#: two stay in sync.
CODES: Dict[str, str] = {
    # -- layout integrity (LAY*) --------------------------------------
    "LAY001": "basic block of the binary is not placed by the layout",
    "LAY002": "basic block is placed more than once",
    "LAY003": "layout references a block the binary does not own here",
    "LAY004": "procedure entry-unit invariant broken",
    "LAY005": "placed blocks overlap in the address space",
    "LAY006": "unit start violates the layout's alignment or ordering",
    "LAY007": "branch target is not resolvable (successor unplaced)",
    "LAY008": "fall-through continuation is not adjacent and no fixup branch exists",
    "LAY009": "split segment continues past an unconditional control transfer",
    # -- profile / CFG consistency (PRF*) -----------------------------
    "PRF001": "flow conservation violated (block inflow/outflow vs execution count)",
    "PRF002": "measured transitions exceed the block's execution count",
    "PRF003": "measured transition is illegal for the source block's terminator",
    "PRF004": "call-site counts exceed the callee's invocation count",
    "PRF005": "block executed but unreachable from its procedure entry",
    "PRF006": "structurally dead block (unreachable, never executed)",
    # -- layout quality lints (QLT*) ----------------------------------
    "QLT001": "hot control-flow edge was made a non-fall-through",
    "QLT002": "cold block interleaved into a hot chain",
    "QLT003": "hot loop body crosses a page boundary (iTLB hazard)",
    "QLT004": "hot code lines collide in a direct-mapped cache set (conflict smell)",
    # -- static-vs-measured differential (STA*) -----------------------
    "STA001": "static and measured hot sets diverge (low Jaccard overlap)",
    "STA002": "static branch prediction contradicts the measured direction on a hot branch",
    "STA003": "loop-frequency ranking inverted between static and measured profiles",
    "STA004": "statically-cold block is hot under measurement",
    "STA005": "measured block carries zero static flow (statically unreached)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    Attributes:
        code: Stable catalogue code (must exist in :data:`CODES`).
        severity: :class:`Severity` of the finding.
        message: Human-readable description of this occurrence.
        target: What was analyzed ("app/all", "kernel/base",
            "profile:app", a file path...).
        location: Where inside the target ("unit f.seg3", "block 42",
            "line 17").
        hint: How to fix or interpret the finding (optional).
    """

    code: str
    severity: Severity
    message: str
    target: str = ""
    location: str = ""
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    def render(self) -> str:
        """One text line (plus an indented hint line when present)."""
        where = f" [{self.target}]" if self.target else ""
        loc = f" {self.location}:" if self.location else ""
        line = f"{self.code} {self.severity.value:<5}{where}{loc} {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self) -> Dict[str, str]:
        """JSON-serializable form."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "target": self.target,
            "location": self.location,
            "hint": self.hint,
        }


class CheckReport:
    """Accumulated findings of one or more check runs."""

    def __init__(self, diagnostics: Optional[Iterable[Diagnostic]] = None) -> None:
        self.diagnostics: List[Diagnostic] = list(diagnostics or ())
        #: The placement :func:`~repro.check.check_all` checked the
        #: addresses of (None when the structure failed or no layout
        #: was checked).
        self.address_map: object = None

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, other: "CheckReport") -> "CheckReport":
        """Fold another report's findings into this one."""
        self.diagnostics.extend(other.diagnostics)
        return self

    def _with_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity findings (integrity violations)."""
        return self._with_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warn-severity findings."""
        return self._with_severity(Severity.WARN)

    @property
    def infos(self) -> List[Diagnostic]:
        """Info-severity findings (lints, advisories)."""
        return self._with_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def codes(self) -> List[str]:
        """Distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def summary(self) -> str:
        """The one-line tally."""
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )

    def render(self) -> str:
        """The full text report: one line per finding plus the tally."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(f"spike lint: {self.summary()}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> Dict:
        """JSON document: findings plus severity tallies."""
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "codes": self.codes(),
        }


@dataclass
class CheckContext:
    """Everything an analysis pass may look at.

    Passes take what they need and ignore the rest; a pass requiring a
    field that is ``None`` returns no findings (the caller decides which
    passes make sense for the artifacts at hand).
    """

    binary: object = None
    profile: object = None
    layout: object = None
    address_map: object = None
    #: Label findings are attributed to ("app/all", "profile:kernel").
    target: str = ""
    #: Scratch space for intermediates shared between passes run over
    #: the same context (e.g. the flattened block placement).
    cache: dict = field(default_factory=dict)


#: An analysis pass: context in, findings out.
CheckPass = Callable[[CheckContext], Iterable[Diagnostic]]


class CheckRunner:
    """Composes analysis passes and folds their findings.

    Passes run in registration order inside ``check.pass`` tracing
    spans; per-severity counts land on the ``check.diagnostics.*``
    observability counters.
    """

    def __init__(self, passes: Optional[Iterable[Tuple[str, CheckPass]]] = None) -> None:
        self.passes: List[Tuple[str, CheckPass]] = list(passes or ())

    def add(self, name: str, check: CheckPass) -> "CheckRunner":
        """Register one pass under a stable name; returns self."""
        self.passes.append((name, check))
        return self

    def run(self, ctx: CheckContext) -> CheckReport:
        """Run every registered pass over one context."""
        report = CheckReport()
        obs.counter("check.runs").inc()
        for name, check in self.passes:
            with obs.span("check.pass", check=name, target=ctx.target):
                for diagnostic in check(ctx):
                    report.add(diagnostic)
        for severity in Severity:
            count = len(report._with_severity(severity))
            if count:
                obs.counter(f"check.diagnostics.{severity.value}").inc(count)
        return report
