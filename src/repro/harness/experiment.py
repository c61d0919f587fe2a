"""Shared experiment infrastructure.

One :class:`Experiment` owns everything the figures need: the generated
application and kernel binaries, the Pixie profile (collected on its own
profiling run, like the paper's 2000-transaction Pixie run), the
optimized layouts, and the measurement trace (a separate run with a
different request stream).  Every intermediate product is a declared
:class:`~repro.pipeline.stage.Stage` in one
:class:`~repro.pipeline.graph.StageGraph`, executed (and memoized) by a
:class:`~repro.pipeline.runner.PipelineRunner` — see ``docs/PIPELINE.md``.

Attach an :class:`~repro.harness.store.ArtifactStore` (``store=`` or
:meth:`Experiment.attach_store`) and the expensive stage products are
*also* persisted on disk, keyed by :meth:`ExperimentConfig.fingerprint`:
warm reruns of any figure load the compiled programs, profiles, trace,
and per-combo layouts straight from the cache instead of regenerating
them.  The artifact names and cache keys are unchanged from the
pre-pipeline harness, so existing cache directories replay warm.  Every
stage records wall time and cache hit/miss in the experiment's
:class:`~repro.pipeline.runlog.RunLog`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.execution import CombinedAddressMap, OltpSystem, SystemConfig, SystemTrace
from repro.harness.store import (
    ArtifactStore,
    load_layout,
    load_profile,
    load_program,
    load_snapshot,
    load_trace,
    save_layout,
    save_profile,
    save_program,
    save_snapshot,
    save_trace,
)
from repro.check import CheckReport, check_all
from repro.ir import AddressMap, Layout, assign_addresses, baseline_layout
from repro.layout import Combo, SpikeOptimizer
from repro.osmodel import KernelCodeConfig, build_kernel_program
from repro.pipeline import (
    ArtifactSpec,
    PipelineRunner,
    RunLog,
    Stage,
    StageGraph,
    share_key,
)
from repro.profiles import PixieProfiler, Profile
from repro.progen import AppCodeConfig, CompiledProgram, build_app_program
from repro.staticpred import (
    PROFILE_SOURCES,
    hybrid_profile,
    invert_enabled,
    synthesize_profile,
)
from repro.workloads import TpcbConfig, database_scale, snapshot_database
from repro.workloads.dss import DssConfig, DssWorkload

#: Valid scopes for :meth:`Experiment.streams`.
STREAM_SCOPES = ("app", "kernel", "combined", "per-process")


def _check_source(source: str) -> str:
    """Validate a profile-source name; returns it for chaining."""
    if source not in PROFILE_SOURCES:
        raise ConfigError(
            f"unknown profile source {source!r}; valid sources: "
            f"{', '.join(PROFILE_SOURCES)}"
        )
    return source


#: Bump when the canonical fingerprint payload changes shape.
_FINGERPRINT_VERSION = 1


@dataclass
class ExperimentConfig:
    """Everything that defines one reproduction run."""

    app: AppCodeConfig = field(default_factory=lambda: AppCodeConfig(scale=10.0))
    kernel: KernelCodeConfig = field(default_factory=lambda: KernelCodeConfig(scale=2.5))
    tpcb: TpcbConfig = field(default_factory=lambda: TpcbConfig(
        branches=40, accounts_per_branch=125))
    system: SystemConfig = field(default_factory=SystemConfig)
    profile_transactions: int = 150
    measure_transactions: int = 150
    warmup_transactions: int = 30
    pool_capacity: int = 2048
    btree_order: int = 64
    #: Optional factory (tpcb_config, seed_offset) -> workload object;
    #: defaults to TPC-B.  Lets the same pipeline run other workloads
    #: (e.g. the DSS comparison).  Callables don't fingerprint, so any
    #: config with a factory must also set :attr:`cache_salt`.
    workload_factory: Optional[Callable[[TpcbConfig, int], object]] = None
    #: Extra fingerprint salt.  Required when ``workload_factory`` is
    #: set: it is excluded from the fingerprint, and without a salt a
    #: DSS run would collide with the TPC-B cache entries.
    cache_salt: str = ""

    def fingerprint(self) -> str:
        """Stable content hash of everything that shapes the pipeline
        products (config -> canonical JSON -> sha256).

        ``workload_factory`` is deliberately excluded — callables have
        no stable serialized form — so configs that set it must provide
        ``cache_salt`` to keep their cache entries distinct.
        """
        if self.workload_factory is not None and not self.cache_salt:
            raise ConfigError(
                "ExperimentConfig.workload_factory is set but cache_salt "
                "is empty; set cache_salt (e.g. 'dss') so this config's "
                "cache entries don't collide with the default workload's"
            )
        payload = {
            "version": _FINGERPRINT_VERSION,
            "app": asdict(self.app),
            "kernel": asdict(self.kernel),
            "tpcb": asdict(self.tpcb),
            "system": asdict(self.system),
            "profile_transactions": self.profile_transactions,
            "measure_transactions": self.measure_transactions,
            "warmup_transactions": self.warmup_transactions,
            "pool_capacity": self.pool_capacity,
            "btree_order": self.btree_order,
            "cache_salt": self.cache_salt,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class StreamSet:
    """Fetch-span streams for one (scope, combo, kernel_combo) cell.

    Behaves like the historical list of per-CPU ``(starts, counts)``
    pairs (iteration, indexing, ``len``) so it drops into every cache
    simulator unchanged, while keeping the provenance on the object.
    """

    scope: str
    combo: str
    kernel_combo: str
    streams: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    #: The profile source the layouts were optimized from.
    profile_source: str = "measured"

    def __iter__(self):
        return iter(self.streams)

    def __len__(self) -> int:
        return len(self.streams)

    def __getitem__(self, index):
        return self.streams[index]

    @property
    def instructions(self) -> int:
        """Total instructions fetched across all streams."""
        return int(sum(int(counts.sum()) for _, counts in self.streams))


class Experiment:
    """Lazily computed pipeline with caching at every stage.

    Every cacheable product is a declared stage in :attr:`pipeline`'s
    graph; combo-specific layout stages are declared on first request.
    Three products deliberately stay *outside* the graph: the baseline
    kernel layout (trivial to rebuild, never persisted) and the
    fault-injected (``REPRO_STATIC_INVERT``) source layouts, which must
    never pollute — or be satisfied from — the clean cache.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        store: Optional[ArtifactStore] = None,
        jobs: int = 1,
    ) -> None:
        self.config = config or ExperimentConfig()
        #: Disk cache for stage products (None disables persistence).
        self.store = store
        #: Worker processes used by the fanned-out figure sweeps.
        self.jobs = jobs
        #: Default profile source (:data:`~repro.staticpred.PROFILE_SOURCES`)
        #: used by :meth:`streams` / :meth:`address_map` when the call
        #: does not pick one -- the knob behind ``--profile-source``.
        self.profile_source = "measured"
        self.runlog = RunLog()
        self._fingerprint: Optional[str] = None
        self._pipeline: Optional[PipelineRunner] = None
        self._optimizers: Dict[Tuple[str, bool], SpikeOptimizer] = {}
        #: The layouts kept out of the graph; see the class docstring.
        self._transient_layouts: Dict[Tuple[bool, str, str], Layout] = {}
        self._amaps: Dict[Tuple[str, str, str], CombinedAddressMap] = {}
        self._placements: Dict[Tuple[bool, str, str], AddressMap] = {}
        self._gate_reports: Dict[Tuple[str, str], CheckReport] = {}

    # -- cache plumbing -----------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content hash of the configuration (see ExperimentConfig)."""
        if self._fingerprint is None:
            self._fingerprint = self.config.fingerprint()
        return self._fingerprint

    def _build_graph(self) -> StageGraph:
        """Declare the always-present stages of the experiment pipeline.

        Per-combo layout stages are declared lazily by :meth:`_layout`,
        because the combo space is open-ended.
        """
        graph = StageGraph()
        config = self.config
        graph.add(Stage(
            name="codegen", detail="app",
            outputs=(ArtifactSpec("app.pkl", load_program, save_program),),
            build=lambda _: build_app_program(config.app),
            share_key=share_key("codegen:app", asdict(config.app)),
        ))
        graph.add(Stage(
            name="codegen", detail="kernel",
            outputs=(ArtifactSpec("kernel.pkl", load_program, save_program),),
            build=lambda _: build_kernel_program(config.kernel),
            share_key=share_key("codegen:kernel", asdict(config.kernel)),
        ))
        # The loaded database: keyed by what the load reads, so every
        # workload and seed over one scale shares it.
        database_key = database_scale(config.tpcb) + (
            config.pool_capacity, config.btree_order,
        )
        graph.add(Stage(
            name="database",
            outputs=(ArtifactSpec(
                "database.snap",
                lambda path: load_snapshot(path, database_key),
                save_snapshot,
            ),),
            build=lambda _: snapshot_database(
                config.tpcb, config.pool_capacity, config.btree_order
            ),
            share_key=share_key("database", list(database_key)),
        ))
        graph.add(Stage(
            name="profile",
            inputs=("codegen:app", "codegen:kernel", "database"),
            outputs=(
                ArtifactSpec(
                    "profile-app.npz",
                    lambda path: load_profile(self.app.binary, path),
                    save_profile,
                ),
                ArtifactSpec(
                    "profile-kernel.npz",
                    lambda path: load_profile(self.kernel.binary, path),
                    save_profile,
                ),
            ),
            build=lambda _: self._profile_from_run(),
        ))
        graph.add(Stage(
            name="trace",
            inputs=("codegen:app", "codegen:kernel", "database"),
            outputs=(ArtifactSpec("trace.npz", load_trace, save_trace),),
            build=lambda _: self._run_system(
                self.config.measure_transactions, 1
            ),
        ))
        # Transient (never persisted): deterministic per binary, and
        # needing no profiling run — cold-start consumers (repro serve)
        # reach them without ever touching the measured profile.
        graph.add(Stage(
            name="staticpred", detail="app", inputs=("codegen:app",),
            build=lambda _: synthesize_profile(self.app.binary),
        ))
        graph.add(Stage(
            name="staticpred", detail="kernel", inputs=("codegen:kernel",),
            build=lambda _: synthesize_profile(self.kernel.binary),
        ))
        return graph

    @property
    def pipeline(self) -> PipelineRunner:
        """The stage-graph runner behind every cacheable product.

        The runner's store tracks :attr:`store` on every access, so
        toggling the experiment's cache (``attach_store``) is always
        reflected in subsequent stage executions.
        """
        if self._pipeline is None:
            self._pipeline = PipelineRunner(
                self._build_graph(),
                store=self.store,
                fingerprint=self.fingerprint,
                runlog=self.runlog,
            )
        self._pipeline.store = self.store
        return self._pipeline

    def attach_store(self, store: Optional[ArtifactStore]) -> "Experiment":
        """Set (or clear, with None) the persistent artifact store.

        Products already computed in memory are written through to the
        new store, so attaching late still populates the cache."""
        self.store = store
        self.persist()
        return self

    def persist(self) -> int:
        """Write in-memory stage products missing from the store;
        returns the number of artifacts written.

        Delegates to :meth:`~repro.pipeline.runner.PipelineRunner.persist`,
        which iterates every *declared* stage — a newly added stage is
        persisted automatically instead of silently skipped the way the
        old hand-maintained artifact list allowed."""
        if self.store is None:
            return 0
        return self.pipeline.persist()

    # -- programs -----------------------------------------------------------

    @property
    def app(self) -> CompiledProgram:
        """The compiled application binary (cached stage product)."""
        return self.pipeline.value("codegen:app")

    @property
    def kernel(self) -> CompiledProgram:
        """The compiled kernel binary (cached stage product)."""
        return self.pipeline.value("codegen:kernel")

    # -- profiling run ----------------------------------------------------------

    def _run_system(self, transactions: int, tpcb_seed_offset: int) -> SystemTrace:
        tpcb = replace(self.config.tpcb, seed=self.config.tpcb.seed + tpcb_seed_offset)
        workload = None
        if self.config.workload_factory is not None:
            workload = self.config.workload_factory(tpcb, tpcb_seed_offset)
        # Restore the shared database stage when the workload loads the
        # configured TPC-B scale; any other workload loads its own.
        loads = tpcb if workload is None else getattr(workload, "tpcb", None)
        database = None
        if loads is not None and database_scale(loads) == database_scale(tpcb):
            database = self.pipeline.value("database")
        system = OltpSystem(
            self.app,
            self.kernel,
            tpcb_config=tpcb,
            system_config=self.config.system,
            pool_capacity=self.config.pool_capacity,
            btree_order=self.config.btree_order,
            workload=workload,
            database=database,
        )
        return system.run(transactions, warmup=self.config.warmup_transactions)

    def _profile_from_run(self) -> Tuple[Profile, Profile]:
        """The profiling run: app profile + kernel profile (the paper
        used kprofile during the transaction-processing section)."""
        trace = self._run_system(self.config.profile_transactions, 0)
        profiler = PixieProfiler(self.app.binary)
        for stream in trace.per_process_app_streams():
            profiler.add_stream(stream)
        kernel_profiler = PixieProfiler(self.kernel.binary)
        offset = trace.kernel_offset
        for cpu in trace.cpus:
            kernel_blocks = cpu.blocks[cpu.blocks >= offset] - offset
            kernel_profiler.add_stream(kernel_blocks)
        return profiler.profile(), kernel_profiler.profile()

    @property
    def profile(self) -> Profile:
        """Pixie profile of the application (profiling run)."""
        return self.pipeline.value("profile")[0]

    @property
    def kernel_profile(self) -> Profile:
        """The kernel-side Pixie profile from the profiling run."""
        return self.pipeline.value("profile")[1]

    # -- profile sources -------------------------------------------------------------

    def static_profile(self, *, kernel: bool = False) -> Profile:
        """The synthesized (profile-free) static profile of the app or
        kernel binary.  Deterministic per binary, so it is computed in
        memory on demand and never persisted -- and, crucially, it
        needs no profiling run: cold-start consumers (``repro serve``)
        reach it without ever touching :attr:`profile`.
        """
        detail = "kernel" if kernel else "app"
        return self.pipeline.value(f"staticpred:{detail}")

    def profile_for(self, source: str, *, kernel: bool = False) -> Profile:
        """The profile one source names: ``measured`` (the profiling
        run), ``static`` (synthesized from CFG structure alone), or
        ``hybrid`` (measurement blended with the static prior)."""
        _check_source(source)
        if source == "static":
            return self.static_profile(kernel=kernel)
        measured = self.kernel_profile if kernel else self.profile
        if source == "measured":
            return measured
        return hybrid_profile(measured, self.static_profile(kernel=kernel))

    # -- layouts ---------------------------------------------------------------------

    @property
    def optimizer(self) -> SpikeOptimizer:
        """The app Spike optimizer over the profiling run's profile."""
        return self.optimizer_for("measured")

    def optimizer_for(
        self, source: str, *, kernel: bool = False
    ) -> SpikeOptimizer:
        """A Spike optimizer over one profile source (cached)."""
        key = (_check_source(source), kernel)
        if key not in self._optimizers:
            program = self.kernel if kernel else self.app
            self._optimizers[key] = SpikeOptimizer(
                program.binary, self.profile_for(source, kernel=kernel)
            )
        return self._optimizers[key]

    def layout(self, combo: str, source: str = "measured") -> Layout:
        """The application layout for one combo under one profile
        source.  Unknown combo names raise LayoutError listing the
        valid ones; other sources persist as
        ``layout-<source>-<combo>.json``."""
        return self._layout(False, combo, source)

    def kernel_layout(self, combo: str, source: str = "measured") -> Layout:
        """The kernel layout for one combo under one profile source
        (``base`` is the unoptimized kernel whatever the source)."""
        return self._layout(True, combo, source)

    def _layout(self, kernel: bool, combo: str, source: str) -> Layout:
        """The one layout path: a per-(side, source, combo) graph stage,
        or a :attr:`_transient_layouts` entry for the kernel baseline
        and for fault-injected (``REPRO_STATIC_INVERT``) predictions."""
        combo = Combo.parse(combo).value
        _check_source(source)
        baseline = kernel and combo == "base"
        if baseline:
            source = "measured"  # the unoptimized kernel uses no profile

        def build(_runner=None) -> Layout:
            if baseline:
                return baseline_layout(self.kernel.binary)
            return self.optimizer_for(source, kernel=kernel).layout(combo)

        if baseline or (source != "measured" and invert_enabled()):
            key = (kernel, source, combo)
            if key not in self._transient_layouts:
                self._transient_layouts[key] = build()
            return self._transient_layouts[key]

        qualified = combo if source == "measured" else f"{source}:{combo}"
        detail = f"kernel:{qualified}" if kernel else qualified
        runner = self.pipeline
        if f"layout:{detail}" not in runner.graph:
            inputs = () if source == "static" else ("profile",)
            if source != "measured":
                inputs += ("staticpred:kernel" if kernel else "staticpred:app",)
            suffix = combo if source == "measured" else f"{source}-{combo}"
            runner.graph.add(Stage(
                name="layout", detail=detail, inputs=inputs,
                outputs=(ArtifactSpec(
                    f"{'k' if kernel else ''}layout-{suffix}.json",
                    lambda path: load_layout(
                        path, (self.kernel if kernel else self.app).binary
                    ),
                    save_layout,
                ),),
                build=build,
            ))
        return runner.value(f"layout:{detail}")

    def address_map(
        self,
        combo: str,
        kernel_combo: str = "base",
        profile_source: Optional[str] = None,
    ) -> CombinedAddressMap:
        """The combined app+kernel address map for a combo pair.

        ``profile_source`` defaults to the experiment-wide
        :attr:`profile_source` when not given.
        """
        key = (
            Combo.parse(combo).value,
            Combo.parse(kernel_combo).value,
            _check_source(profile_source or self.profile_source),
        )
        if key not in self._amaps:
            self._amaps[key] = CombinedAddressMap(
                self._placement(False, key[0], key[2]),
                self._placement(True, key[1], key[2]),
            )
        return self._amaps[key]

    def _placement(self, kernel: bool, combo: str, source: str) -> AddressMap:
        """The one ``assign_addresses`` of one layout (cached per side,
        combo and source; the kernel baseline ignores the source)."""
        if kernel and combo == "base":
            source = "measured"
        key = (kernel, combo, source)
        if key not in self._placements:
            program = self.kernel if kernel else self.app
            self._placements[key] = assign_addresses(
                program.binary, self._layout(kernel, combo, source)
            )
        return self._placements[key]

    def gate_report(self, combo: str, source: str = "measured") -> CheckReport:
        """:func:`~repro.check.check_all` over the application layout
        of one combo: layout integrity on the placement the streams
        use, the profile checks, and the quality lints.  Computed once
        per (combo, source)."""
        key = (Combo.parse(combo).value, _check_source(source))
        if key not in self._gate_reports:
            self._gate_reports[key] = check_all(
                self.app.binary,
                profile=self.profile_for(key[1]),
                layout=self.layout(*key),
                address_map=self._placement(False, *key),
                target=f"app/{key[0]}",
            )
        return self._gate_reports[key]

    # -- measurement trace ----------------------------------------------------------

    @property
    def trace(self) -> SystemTrace:
        """The measurement run (distinct request stream from profiling)."""
        return self.pipeline.value("trace")

    # -- streams for the cache simulators ----------------------------------------------

    def streams(
        self,
        combo: str = "base",
        *,
        scope: str,
        kernel_combo: str = "base",
        profile_source: Optional[str] = None,
    ) -> StreamSet:
        """Fetch-span streams for the cache simulators.

        ``scope`` selects the address-space slice:

        * ``"app"``         -- per-CPU application-only streams.
        * ``"kernel"``      -- per-CPU kernel-only streams (laid out
          with ``kernel_combo``).
        * ``"combined"``    -- per-CPU app+OS streams.
        * ``"per-process"`` -- per-process app-only streams
          (single-CPU style studies).

        ``profile_source`` picks the profile the layouts were
        optimized from (the measurement *trace* is always the real
        one -- the axis varies what the optimizer knew, not what the
        system did); None falls back to the experiment-wide
        :attr:`profile_source`.
        """
        combo = Combo.parse(combo).value
        kernel_combo = Combo.parse(kernel_combo).value
        profile_source = _check_source(profile_source or self.profile_source)
        if scope not in STREAM_SCOPES:
            raise SimulationError(
                f"unknown stream scope {scope!r}; "
                f"valid scopes: {', '.join(STREAM_SCOPES)}"
            )
        amap = self.address_map(combo, kernel_combo, profile_source)
        if scope == "app":
            spans = [
                amap.expand_spans(
                    cpu.blocks[cpu.blocks < self.trace.kernel_offset]
                )
                for cpu in self.trace.cpus
            ]
        elif scope == "kernel":
            spans = [
                amap.expand_spans(
                    cpu.blocks[cpu.blocks >= self.trace.kernel_offset]
                )
                for cpu in self.trace.cpus
            ]
        elif scope == "combined":
            spans = [amap.expand_spans(cpu.blocks) for cpu in self.trace.cpus]
        else:  # per-process
            spans = [
                amap.expand_spans(blocks)
                for blocks in self.trace.per_process_app_streams()
            ]
        return StreamSet(
            scope=scope, combo=combo, kernel_combo=kernel_combo,
            streams=tuple(spans), profile_source=profile_source,
        )


@lru_cache(maxsize=1)
def default_experiment() -> Experiment:
    """The paper-scale experiment (``--full``)."""
    return Experiment()


def uniprocessor_config(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` on one CPU with shorter runs (the paper's Figure 15
    and hardware-counter runs are 1-processor); the generated code and
    the database are unchanged."""
    return replace(
        config,
        system=replace(config.system, cpus=1, processes_per_cpu=8),
        profile_transactions=100,
        measure_transactions=100,
        warmup_transactions=20,
    )


def _dss_workload(tpcb: TpcbConfig, _seed_offset: int) -> DssWorkload:
    return DssWorkload(DssConfig(tpcb=tpcb))


def dss_config(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` driven by read-only DSS aggregation queries instead of
    TPC-B: the same generated binaries and database, its own cache
    entries (``cache_salt="dss"``)."""
    return replace(
        config,
        profile_transactions=48,
        measure_transactions=48,
        warmup_transactions=8,
        workload_factory=_dss_workload,
        cache_salt="dss",
    )


@lru_cache(maxsize=1)
def quick_experiment() -> Experiment:
    """A small, fast experiment for tests and smoke runs."""
    config = ExperimentConfig(
        app=AppCodeConfig(scale=1.0, filler_routines=120, filler_instructions=60_000),
        kernel=KernelCodeConfig(scale=1.0, filler_routines=20, filler_instructions=8_000),
        tpcb=TpcbConfig(branches=8, accounts_per_branch=100),
        profile_transactions=60,
        measure_transactions=60,
        warmup_transactions=10,
        pool_capacity=1024,
    )
    return Experiment(config)
