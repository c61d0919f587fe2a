"""Typed building blocks of the stage-graph execution core.

A :class:`Stage` declares one pipeline step: its identity (``name``
plus an optional ``detail``), the stages it consumes (``inputs``), the
cacheable artifacts it produces (``outputs``, each an
:class:`ArtifactSpec` naming the file and its loader/saver), the build
function that computes the value, and an optional ``gate`` every
value — freshly built *or* loaded from the cache — must pass before
anyone downstream sees it.

:class:`Artifact` is the runner-side handle for one executed stage:
the computed (or loaded) value plus its cache disposition, mirroring
the ``cache=hit|miss|off`` accounting of
:class:`~repro.pipeline.runlog.StageRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.errors import PipelineError
from repro.pipeline.runlog import CACHE_OFF


@dataclass(frozen=True)
class ArtifactSpec:
    """One cacheable product of a stage.

    ``name`` is the artifact file name under the pipeline fingerprint
    (e.g. ``app.pkl``); ``loader``/``saver`` follow the
    :class:`~repro.harness.store.ArtifactStore` conventions —
    ``loader(path) -> object`` (any failure degrades to a cache miss)
    and ``saver(object, path) -> None`` (written atomically).
    """

    name: str
    loader: Callable[[Any], Any]
    saver: Callable[[Any, Any], None]

    def __post_init__(self) -> None:
        if not self.name:
            raise PipelineError("ArtifactSpec needs a non-empty name")


@dataclass(frozen=True)
class Stage:
    """One declared step of a pipeline graph.

    ``name``/``detail`` follow the run-log convention (``codegen`` /
    ``app`` renders as ``codegen[app]``); together they form the
    stage's unique :attr:`key`.  ``inputs`` lists the keys of stages
    this one consumes — the runner resolves them lazily when the build
    function asks, so a cache hit never forces its dependencies.
    ``build`` receives the executing
    :class:`~repro.pipeline.runner.PipelineRunner` (use
    ``runner.value(key)`` to read an input) and returns the stage
    value; a stage with several ``outputs`` returns one value per
    spec, in order.  ``cache_salt`` folds extra state into the graph
    fingerprint for stages whose build closure has no stable
    serialized form.
    """

    name: str
    detail: str = ""
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[ArtifactSpec, ...] = ()
    build: Optional[Callable[[Any], Any]] = None
    #: ``gate(value) -> bool``; False rejects the value.  A rejected
    #: cached value degrades to a rebuild; a rejected fresh build
    #: raises :class:`~repro.errors.StageGateError`.
    gate: Optional[Callable[[Any], bool]] = None
    cache_salt: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise PipelineError("Stage needs a non-empty name")
        if self.build is None:
            raise PipelineError(f"stage {self.key!r} needs a build function")

    @property
    def key(self) -> str:
        """The unique graph key: ``name`` or ``name:detail``."""
        return f"{self.name}:{self.detail}" if self.detail else self.name


@dataclass
class Artifact:
    """One executed stage: its value plus cache provenance."""

    #: The stage key this artifact came from.
    stage: str
    #: The stage value (a tuple for multi-output stages).
    value: Any = None
    #: ``hit`` (loaded from the store), ``miss`` (built and persisted),
    #: or ``off`` (built with no store attached / nothing to persist).
    cache: str = CACHE_OFF
    #: Bytes written to the store when the stage was built.
    bytes: int = 0
    #: Wall-clock seconds the stage took (load or build).
    seconds: float = 0.0

    @property
    def hit(self) -> bool:
        """True when the value was served from the artifact store."""
        return self.cache == "hit"


@dataclass(frozen=True)
class StageStatus:
    """Cache standing of one declared stage (``pipeline info``)."""

    key: str
    #: (artifact name, present-in-store, size in bytes) per output.
    artifacts: Tuple[Tuple[str, bool, int], ...] = ()
    #: True when the runner holds a memoized value for the stage.
    in_memory: bool = False

    @property
    def cached(self) -> int:
        """Outputs present in the store."""
        return sum(1 for _, present, _ in self.artifacts if present)

    @property
    def bytes(self) -> int:
        """Total size of the cached outputs."""
        return sum(size for _, present, size in self.artifacts if present)

    @property
    def state(self) -> str:
        """``ready`` (a replay would hit), ``partial``, ``missing``,
        or ``transient`` (the stage persists nothing)."""
        if not self.artifacts:
            return "transient"
        if self.cached == len(self.artifacts):
            return "ready"
        return "partial" if self.cached else "missing"
