"""Reference CFG walker: the node-by-node oracle for repro.execution.

The walker that ``repro.execution.interpreter.CfgWalker`` replaced with
compiled routine templates, kept verbatim.  It walks the bid-annotated
routine specs with each event's semantic bindings, dispatching on node
type for every block it emits.  Application blocks keep their binary
ids; kernel blocks are offset by the application block count.  The
differential tests in ``tests/test_walker_compiled.py`` require the
compiled walker to emit the same block ids and raise the same errors.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.db.instrument import CallEvent
from repro.progen.builder import CompiledProgram
from repro.progen.dsl import (
    Call,
    CallSeq,
    ColdPath,
    If,
    Loop,
    Node,
    RoutineSpec,
    Straight,
    SubCall,
    Syscall,
    eval_cond,
    eval_count,
)


class CfgWalker:
    """Expands call-event trees into block-id traces."""

    def __init__(self, app: CompiledProgram, kernel: CompiledProgram) -> None:
        self.app = app
        self.kernel = kernel
        self.kernel_offset = app.binary.num_blocks

    @property
    def total_blocks(self) -> int:
        """Size of the combined block-id space."""
        return self.app.binary.num_blocks + self.kernel.binary.num_blocks

    # -- public API -------------------------------------------------------

    def expand(self, events: Sequence[CallEvent]) -> np.ndarray:
        """Expand top-level events into one flat block-id trace."""
        out: List[int] = []
        for event in events:
            self.walk_event(event, out)
        return np.asarray(out, dtype=np.int64)

    def walk_event(self, event: CallEvent, out: List[int]) -> None:
        """Expand one event (app routine or kernel entry) into ``out``."""
        if event.name.startswith("k."):
            spec = self.kernel.spec(event.name)
            offset = self.kernel_offset
        else:
            name = self.app.resolve(event.name, event.bindings.get("table"))
            spec = self.app.spec(name)
            offset = 0
        self._walk_routine(spec, event.bindings, event.children, offset, out)

    # -- routine walking -----------------------------------------------------

    def _walk_routine(
        self,
        spec: RoutineSpec,
        bindings: Dict,
        children: Sequence[CallEvent],
        offset: int,
        out: List[int],
    ) -> None:
        out.append(spec.prologue_bid + offset)
        cursor = [0]
        self._walk_seq(spec.body, bindings, children, cursor, offset, out)
        if cursor[0] != len(children):
            leftover = [c.name for c in children[cursor[0] :]]
            raise SimulationError(
                f"routine {spec.name!r}: {len(leftover)} unconsumed child "
                f"events: {leftover[:5]}"
            )
        out.append(spec.epilogue_bid + offset)

    def _walk_seq(self, nodes, bindings, children, cursor, offset, out) -> None:
        for node in nodes:
            self._walk_node(node, bindings, children, cursor, offset, out)

    def _walk_node(self, node: Node, bindings, children, cursor, offset, out) -> None:
        if isinstance(node, Straight):
            out.append(node.bid + offset)
        elif isinstance(node, If):
            out.append(node.bid + offset)
            if eval_cond(node.cond, bindings, nonce=node.bid):
                self._walk_seq(node.then, bindings, children, cursor, offset, out)
                if node.orelse:
                    out.append(node.then_exit_bid + offset)
            else:
                self._walk_seq(node.orelse, bindings, children, cursor, offset, out)
        elif isinstance(node, Loop):
            count = eval_count(node.count, node.minus, bindings)
            out.append(node.bid + offset)
            for _ in range(count):
                self._walk_seq(node.body, bindings, children, cursor, offset, out)
                out.append(node.latch_bid + offset)
                out.append(node.bid + offset)
        elif isinstance(node, Call):
            out.append(node.bid + offset)
            child = self._consume(node.match, children, cursor, node)
            self.walk_event(child, out)
        elif isinstance(node, Syscall):
            out.append(node.bid + offset)
            child = self._consume(node.match, children, cursor, node)
            if not child.name.startswith("k."):
                raise SimulationError(
                    f"Syscall matched non-kernel event {child.name!r}"
                )
            self.walk_event(child, out)
        elif isinstance(node, SubCall):
            out.append(node.bid + offset)
            program = self.kernel if offset else self.app
            self._walk_routine(program.spec(node.target), bindings, (), offset, out)
        elif isinstance(node, CallSeq):
            self._walk_callseq(node, bindings, children, cursor, offset, out)
        elif isinstance(node, ColdPath):
            out.append(node.bid + offset)
        else:
            raise SimulationError(f"unknown DSL node: {type(node).__name__}")

    def _walk_callseq(self, node: CallSeq, bindings, children, cursor, offset, out):
        k = len(node.matches)
        while cursor[0] < len(children) and children[cursor[0]].name in node.matches:
            child = children[cursor[0]]
            cursor[0] += 1
            out.append(node.bid + offset)
            idx = node.matches.index(child.name)
            # Dispatch chain executed up to the matching arm.
            last_dispatch = min(idx, k - 2)
            for i in range(last_dispatch + 1):
                out.append(getattr(node, f"_dispatch_{i}") + offset)
            out.append(getattr(node, f"_call_{idx}") + offset)
            self.walk_event(child, out)
            out.append(node.latch_bid + offset)
        out.append(node.bid + offset)

    def _consume(self, match: str, children, cursor, node) -> CallEvent:
        if cursor[0] >= len(children):
            raise SimulationError(
                f"expected child event {match!r} but the event has no more "
                f"children (node {type(node).__name__})"
            )
        child = children[cursor[0]]
        if child.name != match:
            raise SimulationError(
                f"expected child event {match!r}, got {child.name!r}"
            )
        cursor[0] += 1
        return child
