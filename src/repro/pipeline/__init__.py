"""Typed stage execution core shared by every workload path.

The paper's profile → optimize → layout → simulate dataflow used to be
re-implemented in each layer (harness experiments, figure sweeps, the
scenario matrix, online relayout), each hand-wiring its own caching,
fan-out and tracing.  This package is the one substrate they
all run on:

- :class:`~repro.pipeline.stage.Stage` /
  :class:`~repro.pipeline.stage.ArtifactSpec` — one declared step and
  its cacheable products;
- :class:`~repro.pipeline.runner.PipelineRunner` — the lazy memo over
  declared stages: cache-aware execution with run-log/obs accounting
  and artifact keys compatible with pre-pipeline caches (existing
  stores replay warm);
- :func:`~repro.pipeline.fanout.parallel_map` /
  :func:`~repro.pipeline.fanout.resilient_map` — the one process
  fan-out, with crashed-worker retry and the ``shared=`` worker handoff;
- :class:`~repro.pipeline.runlog.RunLog` — per-stage timing and cache
  accounting.

At run time the package imports only :mod:`repro.errors` and
:mod:`repro.obs`, so the simulator and the harness can both build on it.

See ``docs/PIPELINE.md`` for the stage model and the cache-key
compatibility table.
"""

from repro.pipeline.fanout import (
    fork_available,
    parallel_map,
    resilient_map,
    resolve_jobs,
    shared_state,
)
from repro.pipeline.runlog import RunLog, StageRecord
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.stage import (
    Artifact,
    ArtifactSpec,
    Stage,
    StageStatus,
    share_key,
)

__all__ = [
    "Artifact",
    "ArtifactSpec",
    "PipelineRunner",
    "RunLog",
    "Stage",
    "StageRecord",
    "StageStatus",
    "fork_available",
    "parallel_map",
    "resilient_map",
    "resolve_jobs",
    "share_key",
    "shared_state",
]
