"""Typed stage-graph execution core shared by every workload path.

The paper's profile → optimize → layout → simulate dataflow used to be
re-implemented five times (harness experiments, figure sweeps, the
scenario matrix, serve's worker builds, online relayout), each
hand-wiring its own caching, fan-out, tracing, and gating.  This
package is the one substrate they all run on:

- :class:`~repro.pipeline.stage.Stage` /
  :class:`~repro.pipeline.stage.ArtifactSpec` — one declared step and
  its cacheable products;
- :class:`~repro.pipeline.graph.StageGraph` — validated, cycle-free,
  deterministically ordered stage registry with a structural
  :meth:`~repro.pipeline.graph.StageGraph.fingerprint`;
- :class:`~repro.pipeline.runner.PipelineRunner` — cache-aware
  execution with run-log/obs accounting, gate hooks, and artifact keys
  compatible with pre-pipeline caches (existing stores replay warm);
- :func:`~repro.pipeline.fanout.resilient_map` /
  :class:`~repro.pipeline.fanout.StreamHandoff` — crashed-worker retry
  atop ``parallel_map`` and stream handoff to forked workers.

See ``docs/PIPELINE.md`` for the stage model and the cache-key
compatibility table.
"""

from repro.pipeline.fanout import StreamHandoff, resilient_map
from repro.pipeline.graph import StageGraph
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.stage import Artifact, ArtifactSpec, Stage, StageStatus

__all__ = [
    "Artifact",
    "ArtifactSpec",
    "PipelineRunner",
    "Stage",
    "StageGraph",
    "StageStatus",
    "StreamHandoff",
    "resilient_map",
]
