"""The stage graph: declared stages, validation, deterministic order.

A :class:`StageGraph` is a mutable registry of
:class:`~repro.pipeline.stage.Stage` declarations keyed by their
``name[:detail]`` keys.  It owns the structural guarantees the runner
relies on: unique keys, inputs that resolve to declared stages, no
dependency cycles, and a :meth:`~StageGraph.topological_order` that is
**deterministic and insertion-order independent** — two graphs with
the same stages always execute identically no matter the order the
stages were added in.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import PipelineError
from repro.pipeline.stage import Stage


class StageGraph:
    """A validated, deterministically ordered set of stages."""

    def __init__(self, stages: Optional[List[Stage]] = None) -> None:
        self._stages: Dict[str, Stage] = {}
        for stage in stages or ():
            self.add(stage)

    # -- construction -------------------------------------------------------

    def add(self, stage: Stage) -> Stage:
        """Declare one stage; duplicate keys are an error."""
        if stage.key in self._stages:
            raise PipelineError(
                f"stage {stage.key!r} is already declared in this graph"
            )
        self._stages[stage.key] = stage
        return stage

    # -- lookup -------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def __iter__(self) -> Iterator[Stage]:
        """Stages in deterministic (topological) order."""
        return (self._stages[key] for key in self.topological_order())

    def stage(self, key: str) -> Stage:
        """The declared stage for ``key``; unknown keys are an error."""
        try:
            return self._stages[key]
        except KeyError:
            known = ", ".join(sorted(self._stages)) or "<empty graph>"
            raise PipelineError(
                f"unknown stage {key!r}; declared stages: {known}"
            ) from None

    # -- structure ----------------------------------------------------------

    def validate(self) -> "StageGraph":
        """Check inputs resolve and the graph is acyclic; returns self."""
        for stage in self._stages.values():
            for dep in stage.inputs:
                if dep not in self._stages:
                    raise PipelineError(
                        f"stage {stage.key!r} consumes undeclared stage "
                        f"{dep!r}"
                    )
        self.topological_order()  # raises on cycles
        return self

    def topological_order(self) -> List[str]:
        """Every stage key, dependencies first.

        Kahn's algorithm with a sorted ready set: ties break
        lexicographically, so the order is a pure function of the
        declared stages — reordering ``add`` calls cannot change it.
        """
        remaining = {
            key: {dep for dep in stage.inputs if dep in self._stages}
            for key, stage in self._stages.items()
        }
        order: List[str] = []
        while remaining:
            ready = sorted(key for key, deps in remaining.items() if not deps)
            if not ready:
                cycle = ", ".join(sorted(remaining))
                raise PipelineError(
                    f"stage graph has a dependency cycle among: {cycle}"
                )
            for key in ready:
                order.append(key)
                del remaining[key]
            for deps in remaining.values():
                deps.difference_update(ready)
        return order
