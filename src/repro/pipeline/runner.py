"""The pipeline runner: a lazy, cache-aware memo over declared stages.

:class:`PipelineRunner` holds :class:`~repro.pipeline.stage.Stage`
declarations in declaration order and computes each one on first
request, with exactly the cache semantics of the harness's historical
cache-key scheme: try the :class:`~repro.harness.store.ArtifactStore`
first (keys are ``(fingerprint, artifact-name)``, so caches written by
pre-pipeline code replay warm), otherwise build and persist
atomically.  A stage with a ``share_key`` also links its outputs
under that key and, on a miss, links them back in from it, so
experiments whose configurations differ only where the stage does not
read share one file.  The store also holds the value of each
share-keyed file in memory
(:meth:`~repro.harness.store.ArtifactStore.recall`), so those
experiments share one object too, loaded or built once per store.
Every execution is timed and accounted in a
:class:`~repro.pipeline.runlog.RunLog` under the stage's
``name[:detail]`` — run-log lines, ``stage.<name>`` spans, and
``pipeline.<name>.seconds`` histograms are byte-compatible with the
pre-pipeline harness — plus ``pipeline.cache_hits`` /
``pipeline.cache_misses`` counters.

Dependencies resolve lazily: ``build`` receives the runner and pulls
inputs with :meth:`PipelineRunner.value` only when it needs them, so a
stage served from the cache never forces its upstream stages.  The
store is fixed when the runner is constructed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.errors import PipelineError
from repro.pipeline.runlog import CACHE_HIT, CACHE_MISS, CACHE_OFF, RunLog
from repro.pipeline.stage import Artifact, ArtifactSpec, Stage, StageStatus

if TYPE_CHECKING:  # the harness sits above the pipeline layer
    from repro.harness.store import ArtifactStore


class PipelineRunner:
    """Memoizes declared stages over an ArtifactStore."""

    def __init__(
        self,
        stages: Iterable[Stage],
        *,
        store: Optional[ArtifactStore] = None,
        fingerprint: str = "",
        runlog: Optional[RunLog] = None,
    ) -> None:
        #: Disk cache for stage outputs (None disables persistence).
        self.store = store
        #: Cache namespace — artifacts live at ``(fingerprint, name)``.
        self.fingerprint = fingerprint
        self.runlog = runlog or RunLog()
        self._stages: Dict[str, Stage] = {}
        self._artifacts: Dict[str, Artifact] = {}
        self._executing: Set[str] = set()
        for stage in stages:
            self.add(stage)

    # -- declaration --------------------------------------------------------

    def add(self, stage: Stage) -> None:
        """Declare one stage; duplicate keys are an error."""
        if stage.key in self._stages:
            raise PipelineError(f"stage {stage.key!r} is already declared")
        self._stages[stage.key] = stage

    def __contains__(self, key: str) -> bool:
        return key in self._stages

    def stage(self, key: str) -> Stage:
        """The declared stage for ``key``; unknown keys are an error."""
        try:
            return self._stages[key]
        except KeyError:
            known = ", ".join(sorted(self._stages)) or "<none>"
            raise PipelineError(
                f"unknown stage {key!r}; declared stages: {known}"
            ) from None

    # -- execution ----------------------------------------------------------

    def artifact(self, key: str) -> Artifact:
        """The memoized :class:`Artifact` for one stage (executing it
        on first request)."""
        artifact = self._artifacts.get(key)
        if artifact is None:
            stage = self.stage(key)
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

    def _execute(self, stage: Stage) -> Artifact:
        with self.runlog.stage(stage.name, stage.detail) as record:
            if stage.outputs:
                value = self._load(stage)
                if value is not None:
                    record.cache = CACHE_HIT
                    obs.counter("pipeline.cache_hits").inc()
                    return Artifact(value, CACHE_HIT)
            value = stage.build(self)
            if stage.outputs:
                record.cache = CACHE_OFF if self.store is None else CACHE_MISS
                if record.cache == CACHE_MISS:
                    obs.counter("pipeline.cache_misses").inc()
                record.bytes = self._save(stage, value)
            return Artifact(value, record.cache)

    # -- store plumbing ------------------------------------------------------

    def _load(self, stage: Stage) -> Any:
        """Every output from the store, or None (any missing, corrupt or
        refused output degrades the stage to a miss).

        A share-keyed output is first looked up among the store's held
        values, and one missing under the experiment fingerprint is
        hard-linked in from the share key; a value read from disk is
        then held for the next experiment."""
        if self.store is None:
            return None
        values = []
        for spec in stage.outputs:
            obj = None
            if stage.share_key:
                obj = self.store.recall(stage.share_key, spec.name)
                if not self.store.has(self.fingerprint, spec.name):
                    self.store.link(stage.share_key, self.fingerprint, spec.name)
            if obj is None:
                obj = self.store.load(self.fingerprint, spec.name, spec.loader)
                if obj is None:
                    return None
                if stage.share_key:
                    self.store.hold(
                        stage.share_key, spec.name, obj, self.fingerprint
                    )
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
        """Write one output under the experiment fingerprint, link it
        under the stage's share key and hold it there; returns bytes
        written."""
        written = self.store.save(self.fingerprint, spec.name, obj, spec.saver)
        if written and stage.share_key:
            self.store.link(self.fingerprint, stage.share_key, spec.name)
            self.store.hold(stage.share_key, spec.name, obj, self.fingerprint)
        return written

    # -- introspection ------------------------------------------------------

    def status(self) -> List[StageStatus]:
        """Per-stage cache standing against the store (what a replay
        would hit), in declaration order."""
        rows: List[StageStatus] = []
        for key, stage in self._stages.items():
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
