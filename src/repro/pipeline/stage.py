"""Typed building blocks of the pipeline.

A :class:`Stage` declares one pipeline step: its identity (``name``
plus an optional ``detail``), the cacheable artifacts it produces
(``outputs``, each an :class:`ArtifactSpec` naming the file and its
loader/saver), and the build function that computes the value.

:class:`Artifact` is the runner-side handle for one executed stage:
the computed (or loaded) value plus its cache disposition, mirroring
the ``cache=hit|miss|off`` accounting of
:class:`~repro.pipeline.runlog.StageRecord`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.errors import PipelineError


@dataclass(frozen=True)
class ArtifactSpec:
    """One cacheable product of a stage.

    ``name`` is the artifact file name under the pipeline fingerprint
    (e.g. ``app.pkl``); ``loader``/``saver`` follow the
    :class:`~repro.harness.store.ArtifactStore` conventions —
    ``loader(path) -> object`` (any failure degrades to a cache miss)
    and ``saver(object, path) -> None`` (written atomically).  A loader
    that returns None also reads as a miss, so a consumer can refuse a
    cached value it does not trust.
    """

    name: str
    loader: Callable[[Any], Any]
    saver: Callable[[Any, Any], None]

    def __post_init__(self) -> None:
        if not self.name:
            raise PipelineError("ArtifactSpec needs a non-empty name")


@dataclass(frozen=True)
class Stage:
    """One declared step of a pipeline.

    ``name``/``detail`` follow the run-log convention (``codegen`` /
    ``app`` renders as ``codegen[app]``); together they form the
    stage's unique :attr:`key`.  ``build`` receives the executing
    :class:`~repro.pipeline.runner.PipelineRunner` (use
    ``runner.value(key)`` to read an input, which runs that stage only
    then, so a cache hit never forces its dependencies) and returns
    the stage value; a stage with several ``outputs`` returns one
    value per spec, in order.

    ``share_key`` (see :func:`share_key`) names a second store
    directory for stages whose build reads only part of the experiment
    configuration: the runner hard-links every saved output there, and
    a stage missing under the experiment fingerprint links the shared
    file back in instead of rebuilding.  Empty means not shared.
    """

    name: str
    detail: str = ""
    outputs: Tuple[ArtifactSpec, ...] = ()
    build: Optional[Callable[[Any], Any]] = None
    share_key: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise PipelineError("Stage needs a non-empty name")
        if self.build is None:
            raise PipelineError(f"stage {self.key!r} needs a build function")

    @property
    def key(self) -> str:
        """The unique stage key: ``name`` or ``name:detail``."""
        return f"{self.name}:{self.detail}" if self.detail else self.name


#: Directory prefix of share keys (never an experiment fingerprint).
SHARE_PREFIX = "shared-"


def share_key(stage: str, inputs: Any) -> str:
    """The share key of stage ``stage`` whose build reads exactly
    ``inputs`` (JSON-serializable): a content hash of both."""
    canonical = json.dumps(
        {"stage": stage, "inputs": inputs}, sort_keys=True, separators=(",", ":")
    )
    return SHARE_PREFIX + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


@dataclass
class Artifact:
    """One executed stage: its value plus cache provenance."""

    #: The stage value (a tuple for multi-output stages).
    value: Any
    #: ``hit`` (loaded from the store), ``miss`` (built and persisted),
    #: or ``off`` (built with no store attached / nothing to persist).
    cache: str

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
