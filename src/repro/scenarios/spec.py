"""Declarative scenario specifications and the built-in matrix.

A :class:`ScenarioSpec` names one cell of the evaluation space the
paper sweeps by hand — **workload × memory hierarchy × layout combo ×
drift pattern × simulation engine** — as plain data.  Specs load from
TOML or JSON matrix files (:func:`load_specs`), validate eagerly
(:meth:`ScenarioSpec.validate`), and fingerprint canonically
(:meth:`ScenarioSpec.fingerprint`), so the matrix runner
(:mod:`repro.scenarios.matrix`) can key per-cell results in the
:class:`~repro.harness.store.ArtifactStore` and resume a killed sweep
without re-simulating finished cells.

The crucial cache property: :meth:`ScenarioSpec.experiment_config`
builds a plain :class:`~repro.harness.experiment.ExperimentConfig`, so
every cell reuses the same content-addressed pipeline cache as the
figure commands — a ``tpcb`` quick cell shares codegen, profiles and
the measurement trace with ``repro figure fig04`` bit for bit, and the
other workloads key their products by a ``cache_salt`` derived from
the workload axis.

Matrix files carry one ``[[scenario]]`` table per cell::

    [[scenario]]
    name = "synth-hot-32k"
    combo = "all"
    engine = "batched"
    drift = "none"

    [scenario.workload]
    kind = "synthetic"          # tpcb | dss | phased | synthetic
    mix = "oltp"                # synthetic: initial Markov mix preset
    hot_probability = 0.9       # synthetic: hot-set skew

    [scenario.hierarchy]
    l1i_kb = 32
    line = 64
    assoc = 1

See ``docs/SCENARIOS.md`` for the full schema reference.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Sequence, Tuple, Union

from repro.cache import CacheGeometry
from repro.errors import ScenarioError
from repro.harness.experiment import (
    STREAM_SCOPES,
    ExperimentConfig,
    default_experiment,
    quick_experiment,
)
from repro.layout import Combo
from repro.sim import MemoryHierarchy
from repro.staticpred import PROFILE_SOURCES
from repro.workloads.dss import DssConfig, DssWorkload
from repro.workloads.phased import Phase, PhasedConfig, PhasedWorkload
from repro.workloads.synth import (
    MIX_PRESETS,
    OP_KINDS,
    SynthPhase,
    SyntheticConfig,
    SyntheticWorkload,
)

#: Bump when the canonical spec payload changes shape (invalidates
#: every cached cell result).
SPEC_VERSION = 1

#: Workload kinds a scenario may name.
WORKLOAD_KINDS = ("tpcb", "dss", "phased", "synthetic")

#: Drift patterns: ``none`` keeps the mix fixed for the whole run;
#: ``shift`` swaps the mix mid-run (the Section 5 interference setup).
DRIFT_PATTERNS = ("none", "shift")

#: Valid simulation engines for a cell (see ``docs/SIMULATION.md``).
ENGINES = ("batched", "classic")

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class WorkloadSpec:
    """The workload axis: a kind plus the synthetic generator's knobs.

    The ``mix``/``hot_*``/``ops*`` fields only apply to
    ``kind="synthetic"`` (they are ignored — and excluded from the
    fingerprint — for the hand-built workloads).
    """

    kind: str = "tpcb"
    #: Synthetic: initial Markov mix preset (see ``MIX_PRESETS``).
    mix: str = "oltp"
    #: Synthetic: mix preset after a ``shift`` drift (defaults to the
    #: natural opposite of ``mix``: oltp<->scan, mixed->oltp).
    shift_mix: str = ""
    #: Synthetic: hot-set skew dial.
    hot_probability: float = 0.75
    #: Synthetic: hot-set size as a fraction of the account table.
    hot_fraction: float = 0.05
    #: Synthetic: operations per transaction (loop depth).
    ops_per_txn: int = 4
    #: Synthetic: restricted procedure vocabulary (empty = all ops).
    ops: Tuple[str, ...] = ()

    @property
    def family(self) -> str:
        """The workload family label used by the sensitivity report."""
        if self.kind == "synthetic":
            return f"synthetic-{self.mix}"
        if self.kind == "tpcb":
            return "oltp"
        return self.kind

    def effective_shift_mix(self) -> str:
        """The post-shift mix, defaulting to the opposite family."""
        if self.shift_mix:
            return self.shift_mix
        return {"oltp": "scan", "scan": "oltp", "mixed": "oltp"}[self.mix]

    def canonical(self) -> Dict:
        """The fingerprint payload (synthetic knobs only when used)."""
        payload: Dict = {"kind": self.kind}
        if self.kind == "synthetic":
            payload.update(
                mix=self.mix,
                shift_mix=self.shift_mix,
                hot_probability=self.hot_probability,
                hot_fraction=self.hot_fraction,
                ops_per_txn=self.ops_per_txn,
                ops=list(self.ops),
            )
        return payload


@dataclass(frozen=True)
class HierarchySpec:
    """The memory-hierarchy axis, in the paper's geometry vocabulary."""

    l1i_kb: int = 32
    line: int = 64
    assoc: int = 1
    #: Unified L2 size (0 = no L2; the L1I then runs the full LRU
    #: simulator instead of the tag-array/refill path).
    l2_kb: int = 0
    l2_line: int = 64
    l2_assoc: int = 4
    itlb_entries: int = 0

    def to_hierarchy(self) -> MemoryHierarchy:
        """The :class:`~repro.sim.MemoryHierarchy` this spec names."""
        l2 = None
        if self.l2_kb:
            l2 = CacheGeometry(self.l2_kb * 1024, self.l2_line, self.l2_assoc)
        return MemoryHierarchy(
            l1i=CacheGeometry(self.l1i_kb * 1024, self.line, self.assoc),
            l2=l2,
            itlb_entries=self.itlb_entries,
        )

    @property
    def label(self) -> str:
        """Compact human label, e.g. ``32K/64B/1w`` or ``…+L2 1M``."""
        text = f"{self.l1i_kb}K/{self.line}B/{self.assoc}w"
        if self.l2_kb:
            text += f"+L2 {self.l2_kb}K"
        return text


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative cell of the scenario matrix."""

    name: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    hierarchy: HierarchySpec = field(default_factory=HierarchySpec)
    #: Layout combination measured against ``base``.
    combo: str = "all"
    drift: str = "none"
    #: ``shift`` drift: per-client transactions before the mix swaps.
    shift_after: int = 5
    engine: str = "batched"
    #: Address-space slice fed to the simulators.
    scope: str = "app"
    #: Quick (test-sized) or paper-scale experiment.
    quick: bool = True
    #: Profile the optimized layout is built from: ``measured`` (the
    #: profiling run), ``static`` (synthesized, profile-free) or
    #: ``hybrid`` (measured + static prior).
    profile_source: str = "measured"

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check every axis; raises :class:`ScenarioError` on the first
        problem, returns ``self`` so calls chain."""
        if not self.name or not all(
            c.isalnum() or c in "._-" for c in self.name
        ):
            raise ScenarioError(
                f"scenario name {self.name!r} must be non-empty and use "
                "only letters, digits, '.', '_', '-'"
            )
        if self.workload.kind not in WORKLOAD_KINDS:
            raise ScenarioError(
                f"{self.name}: unknown workload kind "
                f"{self.workload.kind!r}; valid kinds: "
                f"{', '.join(WORKLOAD_KINDS)}"
            )
        if self.workload.kind == "synthetic":
            # Validate the base mix first: effective_shift_mix() maps
            # it through the opposite-family table and would KeyError
            # on an unknown one.
            mixes = [self.workload.mix]
            if self.workload.mix in MIX_PRESETS:
                mixes.append(self.workload.effective_shift_mix())
            for mix in mixes:
                if mix not in MIX_PRESETS:
                    raise ScenarioError(
                        f"{self.name}: unknown synthetic mix {mix!r}; "
                        f"valid mixes: {', '.join(sorted(MIX_PRESETS))}"
                    )
            for op in self.workload.ops:
                if op not in OP_KINDS:
                    raise ScenarioError(
                        f"{self.name}: unknown synthetic op {op!r}; "
                        f"valid ops: {', '.join(OP_KINDS)}"
                    )
        try:
            Combo.parse(self.combo)
        except Exception as exc:
            raise ScenarioError(f"{self.name}: {exc}") from None
        if self.drift not in DRIFT_PATTERNS:
            raise ScenarioError(
                f"{self.name}: unknown drift pattern {self.drift!r}; "
                f"valid patterns: {', '.join(DRIFT_PATTERNS)}"
            )
        if self.drift == "shift" and self.workload.kind == "phased":
            raise ScenarioError(
                f"{self.name}: the phased workload is already a shift "
                "schedule; use drift='none' (or kind='tpcb' with "
                "drift='shift')"
            )
        if self.drift == "shift" and self.shift_after < 1:
            raise ScenarioError(
                f"{self.name}: shift_after must be >= 1 for drift='shift'"
            )
        if self.engine not in ENGINES:
            raise ScenarioError(
                f"{self.name}: unknown engine {self.engine!r}; valid "
                f"engines: {', '.join(ENGINES)}"
            )
        if self.engine == "batched" and (
            self.hierarchy.assoc != 1 or self.hierarchy.l2_kb
        ):
            raise ScenarioError(
                f"{self.name}: the batched engine only sweeps "
                "direct-mapped L1I-only hierarchies; use "
                "engine='classic' for associative or multi-level cells"
            )
        if self.scope not in STREAM_SCOPES:
            raise ScenarioError(
                f"{self.name}: unknown stream scope {self.scope!r}; "
                f"valid scopes: {', '.join(STREAM_SCOPES)}"
            )
        if self.profile_source not in PROFILE_SOURCES:
            raise ScenarioError(
                f"{self.name}: unknown profile source "
                f"{self.profile_source!r}; valid sources: "
                f"{', '.join(PROFILE_SOURCES)}"
            )
        try:
            self.hierarchy.to_hierarchy()
        except Exception as exc:
            raise ScenarioError(f"{self.name}: bad hierarchy: {exc}") from None
        return self

    # -- identity -----------------------------------------------------------

    def canonical(self) -> Dict:
        """The content payload (everything except the display name).

        ``profile_source`` only contributes when it departs from
        ``measured``, so every pre-existing measured cell keeps its
        fingerprint (and its cached results) across the axis addition.
        """
        payload = {
            "version": SPEC_VERSION,
            "workload": self.workload.canonical(),
            "hierarchy": asdict(self.hierarchy),
            "combo": Combo.parse(self.combo).value,
            "drift": self.drift,
            "shift_after": self.shift_after if self.drift == "shift" else 0,
            "engine": self.engine,
            "scope": self.scope,
            "quick": self.quick,
        }
        if self.profile_source != "measured":
            payload["profile_source"] = self.profile_source
        return payload

    def fingerprint(self) -> str:
        """Stable content hash of the cell (name excluded: two names
        for identical axes share one cached result)."""
        canonical = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]

    # -- experiment plumbing ------------------------------------------------

    def cache_salt(self) -> str:
        """The pipeline-cache salt for this cell's workload axis.

        Empty for plain TPC-B — that is the default workload, so the
        cell shares cache entries with every figure command.  The
        hierarchy/combo/engine axes deliberately do not contribute:
        cells differing only in those reuse one pipeline.
        """
        if self.workload.kind == "tpcb" and self.drift == "none":
            return ""
        payload = {
            "workload": self.workload.canonical(),
            "drift": self.drift,
            "shift_after": self.shift_after if self.drift == "shift" else 0,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()[:12]
        return f"scn-{self.workload.kind}-{digest}"

    def workload_factory(self):
        """The ``(tpcb_config, seed_offset) -> workload`` factory for
        :class:`~repro.harness.experiment.ExperimentConfig` (``None``
        for plain TPC-B, which is the pipeline default)."""
        spec = self
        kind, drift = spec.workload.kind, spec.drift

        if kind == "tpcb" and drift == "none":
            return None

        def factory(tpcb, _seed_offset):
            if kind == "synthetic":
                phases = (SynthPhase(spec.workload.mix, 0),)
                if drift == "shift":
                    phases = (
                        SynthPhase(spec.workload.mix, spec.shift_after),
                        SynthPhase(spec.workload.effective_shift_mix(), 0),
                    )
                return SyntheticWorkload(
                    SyntheticConfig(
                        tpcb=tpcb,
                        ops_per_txn=spec.workload.ops_per_txn,
                        hot_fraction=spec.workload.hot_fraction,
                        hot_probability=spec.workload.hot_probability,
                        ops=spec.workload.ops or OP_KINDS,
                        phases=phases,
                    )
                )
            if kind == "dss" and drift == "none":
                return DssWorkload(DssConfig(tpcb=tpcb))
            # The remaining combinations are phase schedules.
            if kind == "phased" or (kind == "tpcb" and drift == "shift"):
                phases = (
                    Phase("tpcb", spec.shift_after), Phase("dss", 0)
                )
            else:  # dss + shift
                phases = (
                    Phase("dss", spec.shift_after), Phase("tpcb", 0)
                )
            return PhasedWorkload(PhasedConfig(tpcb=tpcb, phases=phases))

        return factory

    def experiment_config(self) -> ExperimentConfig:
        """The pipeline configuration this cell runs on.

        Derived from the shared quick/paper-scale base configs, so a
        plain-TPC-B cell fingerprints identically to the figure
        commands and reuses their cached codegen/profile/trace
        artifacts outright.
        """
        base = (
            quick_experiment().config if self.quick
            else default_experiment().config
        )
        factory = self.workload_factory()
        if factory is None:
            return base
        return replace(
            base, workload_factory=factory, cache_salt=self.cache_salt()
        )

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> Dict:
        """The spec as a plain JSON/TOML-ready dict."""
        payload = asdict(self)
        payload["workload"]["ops"] = list(self.workload.ops)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "ScenarioSpec":
        """Rebuild (and validate) a spec from :meth:`to_dict` output
        or a matrix-file table; unknown keys are rejected loudly."""
        data = dict(payload)
        workload = data.pop("workload", {})
        hierarchy = data.pop("hierarchy", {})
        for section, cls_, label in (
            (workload, WorkloadSpec, "workload"),
            (hierarchy, HierarchySpec, "hierarchy"),
        ):
            unknown = set(section) - {
                f for f in cls_.__dataclass_fields__
            }
            if unknown:
                raise ScenarioError(
                    f"scenario {data.get('name', '?')!r}: unknown "
                    f"{label} key(s): {', '.join(sorted(unknown))}"
                )
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ScenarioError(
                f"scenario {data.get('name', '?')!r}: unknown key(s): "
                f"{', '.join(sorted(unknown))}"
            )
        if "ops" in workload:
            workload = dict(workload, ops=tuple(workload["ops"]))
        spec = cls(
            workload=WorkloadSpec(**workload),
            hierarchy=HierarchySpec(**hierarchy),
            **data,
        )
        return spec.validate()


# -- matrix files -----------------------------------------------------------


def load_specs(path: PathLike) -> List[ScenarioSpec]:
    """Load and validate every scenario in a ``.toml``/``.json`` matrix
    file.  Duplicate names are rejected; an empty file is an error."""
    path = pathlib.Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError:
                raise ScenarioError(
                    f"{path}: TOML matrix files need Python 3.11+ "
                    "(tomllib); re-encode the matrix as JSON"
                ) from None
        document = tomllib.loads(path.read_text())
    elif path.suffix == ".json":
        document = json.loads(path.read_text())
    else:
        raise ScenarioError(
            f"{path}: matrix files must be .toml or .json"
        )
    tables = document.get("scenario")
    if not isinstance(tables, list) or not tables:
        raise ScenarioError(
            f"{path}: no scenarios found (expected one [[scenario]] "
            "table per cell)"
        )
    specs = [ScenarioSpec.from_dict(table) for table in tables]
    _reject_duplicates(specs, str(path))
    return specs


def _reject_duplicates(specs: Sequence[ScenarioSpec], source: str) -> None:
    seen: Dict[str, int] = {}
    for spec in specs:
        if spec.name in seen:
            raise ScenarioError(
                f"{source}: duplicate scenario name {spec.name!r}"
            )
        seen[spec.name] = 1


def select_specs(
    specs: Sequence[ScenarioSpec], patterns: Sequence[str]
) -> List[ScenarioSpec]:
    """Filter specs by name globs; a pattern matching nothing is an
    error (a silently empty selection hides typos)."""
    if not patterns:
        return list(specs)
    chosen: List[ScenarioSpec] = []
    for pattern in patterns:
        matched = [s for s in specs if fnmatch.fnmatchcase(s.name, pattern)]
        if not matched:
            raise ScenarioError(
                f"--select {pattern!r} matched no scenario; available: "
                f"{', '.join(s.name for s in specs)}"
            )
        for spec in matched:
            if spec not in chosen:
                chosen.append(spec)
    return chosen


def default_matrix(quick: bool = True) -> List[ScenarioSpec]:
    """The built-in cross-family matrix.

    Four workload families (TPC-B, DSS, and two synthetic mixes) each
    run on a direct-mapped 32K L1I under the batched engine and a
    2-way 64K L1I under the classic engine, plus two drifted cells —
    ten cells spanning every axis.  ``quick`` selects the test-sized
    experiment scale (the default; CI and the committed baseline use
    it), ``quick=False`` the paper-scale configuration.
    """
    i32 = HierarchySpec(l1i_kb=32, line=64, assoc=1)
    i64x2 = HierarchySpec(l1i_kb=64, line=64, assoc=2)
    workloads = [
        ("tpcb", WorkloadSpec(kind="tpcb")),
        ("dss", WorkloadSpec(kind="dss")),
        ("synth-oltp", WorkloadSpec(kind="synthetic", mix="oltp",
                                    hot_probability=0.85)),
        ("synth-scan", WorkloadSpec(kind="synthetic", mix="scan",
                                    hot_probability=0.85)),
    ]
    specs = []
    for stem, workload in workloads:
        specs.append(ScenarioSpec(
            name=f"{stem}-i32", workload=workload, hierarchy=i32,
            engine="batched", quick=quick,
        ))
        specs.append(ScenarioSpec(
            name=f"{stem}-i64x2", workload=workload, hierarchy=i64x2,
            engine="classic", quick=quick,
        ))
    # shift_after counts per-client transactions; the quick runs spread
    # ~70 transactions over 16 clients, so the shift must land early to
    # be visible in the measurement window.
    specs.append(ScenarioSpec(
        name="tpcb-shift-i32", workload=WorkloadSpec(kind="tpcb"),
        hierarchy=i32, drift="shift", shift_after=2, engine="batched",
        quick=quick,
    ))
    specs.append(ScenarioSpec(
        name="synth-oltp-shift-i32",
        workload=WorkloadSpec(kind="synthetic", mix="oltp",
                              hot_probability=0.85),
        hierarchy=i32, drift="shift", shift_after=2, engine="batched",
        quick=quick,
    ))
    return [spec.validate() for spec in specs]
