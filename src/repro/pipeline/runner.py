"""The pipeline runner: cache-aware execution of a stage graph.

:class:`PipelineRunner` executes :class:`~repro.pipeline.graph.StageGraph`
stages with exactly the cache semantics of the harness's historical
cache-key scheme: try the :class:`~repro.harness.store.ArtifactStore`
first (keys are ``(fingerprint, artifact-name)``, so caches written by
pre-pipeline code replay warm), otherwise build and persist
atomically.  A stage with a ``share_key`` also links its outputs
under that key and, on a miss, links them back in from it, so
experiments whose configurations differ only where the stage does not
read share one file.  Every execution is timed and accounted in a
:class:`~repro.pipeline.runlog.RunLog` under the stage's
``name[:detail]`` — run-log lines, ``stage.<name>`` spans, and
``pipeline.<name>.seconds`` histograms are byte-compatible with the
pre-pipeline harness — plus ``pipeline.cache_hits`` /
``pipeline.cache_misses`` counters.

Dependencies resolve lazily: ``build`` receives the runner and pulls
inputs with :meth:`PipelineRunner.value` only when it needs them, so a
stage served from the cache never forces its upstream stages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import PipelineError
from repro.pipeline.graph import StageGraph
from repro.pipeline.runlog import CACHE_HIT, CACHE_MISS, CACHE_OFF, RunLog
from repro.pipeline.stage import Artifact, ArtifactSpec, Stage, StageStatus

if TYPE_CHECKING:  # the harness sits above the pipeline layer
    from repro.harness.store import ArtifactStore


class PipelineRunner:
    """Executes one stage graph with memoization over an ArtifactStore."""

    def __init__(
        self,
        graph: StageGraph,
        *,
        store: Optional[ArtifactStore] = None,
        fingerprint: str = "",
        runlog: Optional[RunLog] = None,
    ) -> None:
        self.graph = graph
        #: Disk cache for stage outputs (None disables persistence).
        self.store = store
        #: Cache namespace — artifacts live at ``(fingerprint, name)``.
        self.fingerprint = fingerprint
        self.runlog = runlog or RunLog()
        self._artifacts: Dict[str, Artifact] = {}
        self._executing: Set[str] = set()

    # -- execution ----------------------------------------------------------

    def artifact(self, key: str) -> Artifact:
        """The memoized :class:`Artifact` for one stage (executing it
        on first request)."""
        artifact = self._artifacts.get(key)
        if artifact is None:
            stage = self.graph.stage(key)
            if key in self._executing:
                chain = " -> ".join(sorted(self._executing))
                raise PipelineError(
                    f"stage {key!r} recursively depends on itself "
                    f"(while executing: {chain})"
                )
            self._executing.add(key)
            try:
                artifact = self._execute(stage)
            finally:
                self._executing.discard(key)
            self._artifacts[key] = artifact
        return artifact

    def value(self, key: str) -> Any:
        """The stage's value (tuple for multi-output stages)."""
        return self.artifact(key).value

    def run(self, keys: Optional[List[str]] = None) -> Dict[str, Artifact]:
        """Execute the requested stages (default: the whole graph) in
        deterministic topological order; returns artifacts by key."""
        wanted = None if keys is None else set(keys)
        order = [
            key for key in self.graph.topological_order()
            if wanted is None or key in wanted
        ]
        if wanted is not None and len(order) != len(wanted):
            missing = ", ".join(sorted(wanted.difference(order)))
            raise PipelineError(f"unknown stage(s) requested: {missing}")
        return {key: self.artifact(key) for key in order}

    def _execute(self, stage: Stage) -> Artifact:
        with self.runlog.stage(stage.name, stage.detail) as record:
            if stage.outputs:
                value = self._load(stage)
                if value is not None:
                    record.cache = CACHE_HIT
                    obs.counter("pipeline.cache_hits").inc()
                    return Artifact(
                        stage=stage.key, value=value, cache=CACHE_HIT,
                        seconds=record.seconds,
                    )
            value = stage.build(self)
            if stage.outputs:
                record.cache = CACHE_OFF if self.store is None else CACHE_MISS
                if record.cache == CACHE_MISS:
                    obs.counter("pipeline.cache_misses").inc()
                record.bytes = self._save(stage, value)
            return Artifact(
                stage=stage.key, value=value, cache=record.cache,
                bytes=record.bytes,
            )

    # -- store plumbing ------------------------------------------------------

    def _load(self, stage: Stage) -> Any:
        """Every output from the store, or None (any missing, corrupt or
        refused output degrades the stage to a miss).

        An output missing under the experiment fingerprint is first
        hard-linked in from the stage's share key, when it has one."""
        if self.store is None:
            return None
        values = []
        for spec in stage.outputs:
            if stage.share_key and not self.store.has(self.fingerprint, spec.name):
                self.store.link(stage.share_key, self.fingerprint, spec.name)
            obj = self.store.load(self.fingerprint, spec.name, spec.loader)
            if obj is None:
                return None
            values.append(obj)
        return values[0] if len(stage.outputs) == 1 else tuple(values)

    def _output_values(self, stage: Stage, value: Any) -> Tuple[Any, ...]:
        """The stage value split per output spec."""
        if len(stage.outputs) == 1:
            return (value,)
        values = tuple(value)
        if len(values) != len(stage.outputs):
            raise PipelineError(
                f"stage {stage.key!r} declared {len(stage.outputs)} "
                f"outputs but built {len(values)} values"
            )
        return values

    def _save(self, stage: Stage, value: Any) -> int:
        if self.store is None:
            return 0
        return sum(
            self._save_one(stage, spec, obj)
            for spec, obj in zip(
                stage.outputs, self._output_values(stage, value)
            )
        )

    def _save_one(self, stage: Stage, spec: ArtifactSpec, obj: Any) -> int:
        """Write one output under the experiment fingerprint and link
        it under the stage's share key; returns bytes written."""
        written = self.store.save(self.fingerprint, spec.name, obj, spec.saver)
        if written and stage.share_key:
            self.store.link(self.fingerprint, stage.share_key, spec.name)
        return written

    # -- persistence & introspection ----------------------------------------

    def persist(self) -> int:
        """Write memoized stage outputs missing from the store; returns
        the number of artifacts written.

        This is how late ``attach_store`` backfills a cache: every
        declared stage that already executed writes whichever of its
        outputs the store lacks — a stage added to the graph is
        persisted automatically, with no per-stage bookkeeping list to
        forget to update.
        """
        if self.store is None:
            return 0
        written = 0
        for key in self.graph.topological_order():
            artifact = self._artifacts.get(key)
            stage = self.graph.stage(key)
            if artifact is None or not stage.outputs:
                continue
            for spec, obj in zip(
                stage.outputs, self._output_values(stage, artifact.value)
            ):
                if obj is None or self.store.has(self.fingerprint, spec.name):
                    continue
                if self._save_one(stage, spec, obj):
                    written += 1
        return written

    def status(self) -> List[StageStatus]:
        """Per-stage cache standing against the attached store (what a
        replay would hit), in topological order."""
        rows: List[StageStatus] = []
        for key in self.graph.topological_order():
            stage = self.graph.stage(key)
            artifacts = []
            for spec in stage.outputs:
                present = size = 0
                if self.store is not None:
                    path = self.store.path(self.fingerprint, spec.name)
                    if not path.is_file() and stage.share_key:
                        path = self.store.path(stage.share_key, spec.name)
                    present = path.is_file()
                    size = path.stat().st_size if present else 0
                artifacts.append((spec.name, bool(present), size))
            rows.append(
                StageStatus(
                    key=key,
                    artifacts=tuple(artifacts),
                    in_memory=key in self._artifacts,
                )
            )
        return rows
