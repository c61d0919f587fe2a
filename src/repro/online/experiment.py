"""The online-adaptation experiment: static decay vs adaptive recovery.

Drives a phase-shifting TPC-B -> DSS workload through the standard
pipeline and replays the measurement trace epoch by epoch under four
arms:

``static``
    The offline layout trained on the TPC-B profiling run — the
    paper's deployment model, never updated.
``adaptive``
    The :class:`~repro.online.controller.AdaptiveController` loop:
    burst-sampled epoch profiles, drift detection, incremental
    re-layout.  Layouts deploy with one epoch of lag.
``reprofiled``
    Offline re-profiling, idealized: after every epoch the full
    instrumented (Pixie) profile of that epoch builds a fresh layout,
    deployed with the same one-epoch lag the adaptive loop pays.
    This is the "freshly re-profiled offline layout" the adaptive
    arm is judged against.
``oracle``
    The same exact per-epoch profile *without* the deployment lag
    (layout trained on the epoch it is measured on) — an upper bound
    no online scheme can beat.

Only the application image adapts; kernel code is out of scope for
the online loop (the paper's kernel layouts are also offline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache import CacheGeometry
from repro.errors import ConfigError
from repro.execution import SystemConfig
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.ir import assign_addresses
from repro.layout import SpikeOptimizer
from repro.online.controller import AdaptiveController
from repro.online.relayout import AdaptiveRelayout
from repro.online.sampler import (
    OnlineSampler,
    epoch_mpki,
    epoch_profile,
    epoch_streams,
)
from repro.osmodel import KernelCodeConfig
from repro.progen import AppCodeConfig
from repro.staticpred import PROFILE_SOURCES
from repro.workloads import TpcbConfig
from repro.workloads.phased import Phase, PhasedConfig, PhasedWorkload
from repro.workloads.tpcb import TpcbWorkload


@dataclass
class OnlineConfig:
    """Knobs of the online adaptation loop and its evaluation."""

    #: Number of equal-length epochs the measurement run is cut into.
    epochs: int = 6
    #: PC-sampling period (instructions between samples).
    period: int = 64
    #: Branch-burst length captured at each sample.
    burst_width: int = 32
    #: Hard drift threshold (phase shift -> retrain from live epoch).
    threshold: float = 0.40
    #: Residual-drift threshold (accumulated vs reference).
    refresh_threshold: float = 0.16
    #: Hot-set size for the turnover component of the drift score.
    top_k: int = 64
    #: Minimum PC samples for an epoch to be acted on.
    min_samples: int = 64
    #: Optimization combination the layouts are built with.
    combo: str = "all"
    #: Profile the deployed offline layout and the controller's
    #: reference profile come from: ``measured``, ``static`` or
    #: ``hybrid``.  ``hybrid`` seeds the drift detector with the
    #: static prior, so the first epoch can already be judged against
    #: a structured reference instead of waiting out a full sample
    #: window; ``static`` models a cold-start deployment that never
    #: ran a profiling pass at all.
    profile_source: str = "measured"
    #: TPC-B transactions each client issues before shifting to DSS.
    shift_after: int = 5
    #: I-cache geometry the epochs are measured against.
    cache_bytes: int = 16 * 1024
    line_bytes: int = 64
    associativity: int = 2

    def __post_init__(self) -> None:
        if self.epochs < 2:
            raise ConfigError(
                f"online experiment needs >= 2 epochs, got {self.epochs}"
            )
        if self.shift_after < 1:
            raise ConfigError(
                f"shift_after must be >= 1, got {self.shift_after}"
            )
        if self.profile_source not in PROFILE_SOURCES:
            raise ConfigError(
                f"unknown profile source {self.profile_source!r}; "
                f"valid sources: {', '.join(PROFILE_SOURCES)}"
            )

    @property
    def geometry(self) -> CacheGeometry:
        """The measurement I-cache geometry."""
        return CacheGeometry(self.cache_bytes, self.line_bytes, self.associativity)


@dataclass
class EpochRow:
    """Per-epoch measurements across the four arms."""

    epoch: int
    instructions: int
    static_mpki: float
    adaptive_mpki: float
    reprofiled_mpki: float
    oracle_mpki: float
    drift_score: float
    action: str
    rebuilt_procs: int
    reused_chains: int

    @property
    def adaptive_vs_reprofiled(self) -> float:
        """Adaptive-arm MPKI relative to fresh offline re-profiling."""
        return self.adaptive_mpki / max(self.reprofiled_mpki, 1e-12)

    @property
    def static_vs_reprofiled(self) -> float:
        """Static-arm MPKI relative to fresh offline re-profiling."""
        return self.static_mpki / max(self.reprofiled_mpki, 1e-12)


@dataclass
class OnlineReport:
    """Epoch-by-epoch results of one online-adaptation run."""

    config: OnlineConfig
    rows: List[EpochRow] = field(default_factory=list)
    swaps: int = 0

    @property
    def final(self) -> EpochRow:
        """The last epoch's row (the post-shift steady state)."""
        return self.rows[-1]

    @property
    def recovery_ratio(self) -> float:
        """Final-epoch adaptive miss rate relative to offline
        re-profiling (1.0 = fully recovered)."""
        return self.final.adaptive_vs_reprofiled

    @property
    def decay_ratio(self) -> float:
        """Final-epoch static miss rate relative to offline
        re-profiling — how far the never-updated layout decayed."""
        return self.final.static_vs_reprofiled

    def passes(self, margin: float = 1.10) -> bool:
        """The ISSUE acceptance: after the drift the adaptive layout is
        within ``margin`` of offline re-profiling and no worse than the
        decayed static layout."""
        final = self.final
        return (
            self.recovery_ratio <= margin
            and final.adaptive_mpki <= final.static_mpki
        )

    def to_dict(self) -> Dict:
        """The report as a JSON-ready dict (the ``--json`` CLI form)."""
        return {
            "config": {
                "epochs": self.config.epochs,
                "period": self.config.period,
                "burst_width": self.config.burst_width,
                "threshold": self.config.threshold,
                "refresh_threshold": self.config.refresh_threshold,
                "top_k": self.config.top_k,
                "min_samples": self.config.min_samples,
                "combo": self.config.combo,
                "profile_source": self.config.profile_source,
                "shift_after": self.config.shift_after,
                "cache_bytes": self.config.cache_bytes,
                "line_bytes": self.config.line_bytes,
                "associativity": self.config.associativity,
            },
            "epochs": [
                {
                    "epoch": r.epoch,
                    "instructions": r.instructions,
                    "static_mpki": round(r.static_mpki, 4),
                    "adaptive_mpki": round(r.adaptive_mpki, 4),
                    "reprofiled_mpki": round(r.reprofiled_mpki, 4),
                    "oracle_mpki": round(r.oracle_mpki, 4),
                    "drift_score": round(r.drift_score, 4),
                    "action": r.action,
                    "rebuilt_procs": r.rebuilt_procs,
                    "reused_chains": r.reused_chains,
                }
                for r in self.rows
            ],
            "swaps": self.swaps,
            "recovery_ratio": round(self.recovery_ratio, 4),
            "decay_ratio": round(self.decay_ratio, 4),
        }

    def render(self) -> str:
        """The human-readable epoch-by-epoch four-arm table."""
        lines = [
            "online adaptation: TPC-B -> DSS phase shift "
            f"({self.config.epochs} epochs, period={self.config.period}, "
            f"combo={self.config.combo})",
            "",
            f"{'epoch':>5}  {'instr':>8}  {'static':>7}  {'adaptive':>8}  "
            f"{'reprof':>7}  {'oracle':>7}  {'score':>6}  {'action':<11}  "
            f"{'ad/rp':>6}  {'st/rp':>6}",
        ]
        lines.append("-" * len(lines[-1]))
        for r in self.rows:
            lines.append(
                f"{r.epoch:>5}  {r.instructions:>8}  {r.static_mpki:>7.3f}  "
                f"{r.adaptive_mpki:>8.3f}  {r.reprofiled_mpki:>7.3f}  "
                f"{r.oracle_mpki:>7.3f}  {r.drift_score:>6.3f}  "
                f"{r.action:<11}  {r.adaptive_vs_reprofiled:>6.3f}  "
                f"{r.static_vs_reprofiled:>6.3f}"
            )
        lines.append("")
        lines.append(
            f"layout swaps: {self.swaps}; final epoch: adaptive at "
            f"{self.recovery_ratio:.3f}x offline re-profiling, static "
            f"decayed to {self.decay_ratio:.3f}x (miss rates are "
            f"misses/1k instructions; all arms share one trace)"
        )
        return "\n".join(lines) + "\n"


def phased_experiment_config(
    shift_after: int = 5, quick: bool = True, cache_salt: str = "online-v1"
) -> ExperimentConfig:
    """An experiment whose profiling run is pure TPC-B but whose
    measurement run shifts each client to DSS after ``shift_after``
    transactions — the layout trains on a mix that then drifts away.
    """

    def factory(tpcb: TpcbConfig, seed_offset: int):
        if seed_offset == 0:  # profiling run: what the paper trains on
            return TpcbWorkload(tpcb)
        return PhasedWorkload(
            PhasedConfig(
                tpcb=tpcb,
                phases=(Phase("tpcb", shift_after), Phase("dss", 0)),
            )
        )

    salt = f"{cache_salt}-shift{shift_after}"
    if quick:
        return ExperimentConfig(
            app=AppCodeConfig(
                scale=1.0, filler_routines=120, filler_instructions=60_000
            ),
            kernel=KernelCodeConfig(
                scale=1.0, filler_routines=20, filler_instructions=8_000
            ),
            tpcb=TpcbConfig(branches=8, accounts_per_branch=100),
            system=SystemConfig(cpus=2, processes_per_cpu=4),
            profile_transactions=60,
            measure_transactions=150,
            warmup_transactions=10,
            pool_capacity=1024,
            workload_factory=factory,
            cache_salt=f"{salt}-quick",
        )
    return ExperimentConfig(workload_factory=factory, cache_salt=salt)


def run_online_experiment(
    exp: Experiment, config: Optional[OnlineConfig] = None
) -> OnlineReport:
    """Replay the experiment's measurement trace epoch by epoch through
    the online adaptation loop; returns the four-arm report."""
    config = config or OnlineConfig()
    binary = exp.app.binary
    geometry = config.geometry
    trace = exp.trace
    epochs = epoch_streams(trace, config.epochs)

    static_map = assign_addresses(
        binary, exp.layout(config.combo, config.profile_source)
    )
    relayout = AdaptiveRelayout(
        binary, combo=config.combo, store=exp.store, runlog=exp.runlog
    )
    controller = AdaptiveController(
        binary,
        exp.profile_for(config.profile_source),
        relayout,
        threshold=config.threshold,
        refresh_threshold=config.refresh_threshold,
        top_k=config.top_k,
    )
    sampler = OnlineSampler(
        binary,
        cpus=len(trace.cpus),
        period=config.period,
        burst_width=config.burst_width,
        min_samples=config.min_samples,
    )

    report = OnlineReport(config=config)
    reprofiled_map = static_map  # deploys exact profiles one epoch late
    for epoch_index, streams in enumerate(epochs):
        for cpu, (blocks, _pids) in enumerate(streams):
            sampler.observe(cpu, blocks)
        exact = epoch_profile(binary, streams)
        oracle_map = assign_addresses(
            binary, SpikeOptimizer(binary, exact).layout(config.combo)
        )

        static_mpki, instructions = epoch_mpki(static_map, streams, geometry)
        adaptive_mpki, _ = epoch_mpki(controller.address_map, streams, geometry)
        reprofiled_mpki, _ = epoch_mpki(reprofiled_map, streams, geometry)
        oracle_mpki, _ = epoch_mpki(oracle_map, streams, geometry)
        reprofiled_map = oracle_map

        decision = controller.end_epoch(sampler.end_epoch())
        rebuilt = decision.relayout.rebuilt_procs if decision.relayout else ()
        report.rows.append(
            EpochRow(
                epoch=epoch_index,
                instructions=instructions,
                static_mpki=static_mpki,
                adaptive_mpki=adaptive_mpki,
                reprofiled_mpki=reprofiled_mpki,
                oracle_mpki=oracle_mpki,
                drift_score=decision.report.score if decision.report else 0.0,
                action=decision.action,
                rebuilt_procs=(
                    binary.num_procedures if rebuilt == ("*",) else len(rebuilt)
                ),
                reused_chains=(
                    decision.relayout.reused_chains if decision.relayout else 0
                ),
            )
        )
    report.swaps = controller.swaps
    return report
