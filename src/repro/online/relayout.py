"""Incremental re-layout: rebuild the code layout from a new profile,
reusing what did not drift.

Chaining dominates layout-construction cost (it walks every
procedure's flow graph), but a profile drift usually perturbs only a
handful of procedures.  :class:`AdaptiveRelayout` therefore asks
:func:`~repro.online.drift.drifted_procedures` which procedures carry
the weight shift, re-chains only those, and adopts the previous
optimizer's chains for the rest; splitting and ordering always re-run
globally (they are cheap and their decisions are global by nature).

Finished epoch layouts are cached in the
:class:`~repro.harness.store.ArtifactStore` keyed by the *profile
fingerprint*, so replaying a run (or a different experiment arriving
at the same sampled profile) hot-swaps the cached layout without
rebuilding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro import obs
from repro.check import gate_layout
from repro.errors import LayoutError, StageGateError
from repro.pipeline.runlog import CACHE_HIT, RunLog
from repro.harness.store import ArtifactStore, load_layout, save_layout
from repro.ir import AddressMap, Binary, Layout, assign_addresses
from repro.layout import SpikeOptimizer
from repro.online.drift import drifted_procedures
from repro.pipeline import ArtifactSpec, PipelineRunner, Stage, StageGraph
from repro.profiles.profile import Profile


@dataclass
class RelayoutResult:
    """One rebuilt layout plus provenance for the epoch report."""

    layout: Layout
    address_map: AddressMap
    optimizer: SpikeOptimizer
    #: Procedures re-chained against the new profile ("*" = all).
    rebuilt_procs: Tuple[str, ...]
    #: Procedures whose chains were adopted from the previous layout.
    reused_chains: int
    #: CACHE_HIT / CACHE_MISS / CACHE_OFF for the layout artifact.
    cache: str


class AdaptiveRelayout:
    """Rebuilds layouts between epochs, incrementally when possible."""

    def __init__(
        self,
        binary: Binary,
        combo: str = "all",
        store: Optional[ArtifactStore] = None,
        runlog: Optional[RunLog] = None,
        coverage: float = 0.9,
        verify: bool = True,
    ) -> None:
        self.binary = binary
        self.combo = combo
        self.store = store
        self.runlog = runlog or RunLog()
        #: Fraction of the weight shift the rebuilt set must cover.
        self.coverage = coverage
        #: Gate every layout through ``repro.check`` before it can be
        #: swapped in.  On by default: the online loop runs unattended,
        #: so a corrupt layout must be refused, not simulated.
        self.verify = verify

    def rebuild(
        self,
        profile: Profile,
        previous: Optional[SpikeOptimizer] = None,
        reference: Optional[Profile] = None,
        fallback: Optional[RelayoutResult] = None,
    ) -> RelayoutResult:
        """Build the ``combo`` layout for ``profile``.

        With ``previous`` (the optimizer behind the outgoing layout)
        and ``reference`` (the profile that layout was trained on),
        only the procedures responsible for the drift between
        ``reference`` and ``profile`` are re-chained; the rest reuse
        the previous chains.  Without them, everything is rebuilt.

        When :attr:`verify` is on, the finished layout must pass the
        ``repro.check`` integrity gate before it is returned.  A cached
        layout that fails degrades to a rebuild; a freshly built one
        that fails bumps the ``online.relayout.rejected`` counter and
        returns ``fallback`` (the result backing the currently running
        layout) -- or raises :class:`~repro.errors.LayoutError` when no
        fallback exists.
        """
        fingerprint = profile.fingerprint()
        name = f"online-layout-{self.combo}.json"
        # One single-stage graph per epoch: the layout artifact is keyed
        # by the *profile* fingerprint, so each sampled profile gets its
        # own runner namespace over the shared store and run log.
        state: dict = {}

        def build(_) -> Layout:
            optimizer = SpikeOptimizer(self.binary, profile)
            rebuilt: Tuple[str, ...] = ("*",)
            reused = 0
            if previous is not None and reference is not None:
                drifted = drifted_procedures(
                    reference, profile, coverage=self.coverage
                )
                reused = optimizer.reuse_chainings(previous, drifted)
                rebuilt = tuple(drifted)
            state.update(optimizer=optimizer, rebuilt=rebuilt, reused=reused)
            return optimizer.layout(self.combo)

        def gate(layout: Layout) -> bool:
            if not self.verify:
                return True
            state["report"] = self._gate_report(layout)
            return state["report"].ok

        runner = PipelineRunner(
            StageGraph([Stage(
                name="relayout", detail=f"{self.combo}@{fingerprint[:8]}",
                outputs=(ArtifactSpec(name, load_layout, save_layout),),
                build=build, gate=gate,
            )]),
            store=self.store,
            fingerprint=fingerprint,
            runlog=self.runlog,
            # A corrupt cache entry degrades to a rebuild from scratch.
            on_cache_reject=lambda _stage, _value: obs.counter(
                "online.relayout.rejected_cache"
            ).inc(),
        )
        try:
            artifact = runner.artifact(f"relayout:{self.combo}@{fingerprint[:8]}")
        except StageGateError:
            obs.counter("online.relayout.rejected").inc()
            if fallback is not None:
                return fallback
            report = state["report"]
            shown = "\n".join(d.render() for d in report.errors[:5])
            raise LayoutError(
                f"online relayout {self.combo!r} failed integrity "
                f"checks ({len(report.errors)} error(s)):\n{shown}"
            ) from None
        layout = artifact.value
        if artifact.hit:
            # The optimizer is rebuilt lazily: a cached layout needs
            # no chaining until a later incremental rebuild asks.
            return RelayoutResult(
                layout=layout,
                address_map=assign_addresses(self.binary, layout),
                optimizer=SpikeOptimizer(self.binary, profile),
                rebuilt_procs=(),
                reused_chains=0,
                cache=CACHE_HIT,
            )
        obs.counter("online.rebuilds").inc()
        obs.counter("online.reused_chains").inc(state["reused"])
        return RelayoutResult(
            layout=layout,
            address_map=assign_addresses(self.binary, layout),
            optimizer=state["optimizer"],
            rebuilt_procs=state["rebuilt"],
            reused_chains=state["reused"],
            cache=artifact.cache,
        )

    def _gate_report(self, layout: Layout):
        """Run the :func:`~repro.check.gate_layout` integrity gate."""
        with obs.span("online.relayout.verify", combo=self.combo):
            return gate_layout(self.binary, layout, target=f"online/{self.combo}")

