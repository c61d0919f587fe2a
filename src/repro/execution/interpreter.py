"""CFG interpreter: engine call events -> executed basic-block traces.

Walks the bid-annotated routine specs with each event's semantic
bindings, emitting global block ids.  Application blocks keep their
binary ids; kernel blocks are offset by the application block count so
one flat id space covers the combined instruction stream.

Each routine is compiled, on first use, into a *template*: a Python
function generated from its :class:`~repro.progen.dsl.RoutineSpec` with
the block offset built in.  Runs of block ids that always execute
together become one constant tuple, conditions are evaluated inline,
static helpers (``SubCall``) are inlined, and a loop whose body consumes
no child events runs its body once and repeats the emitted ids, because
every iteration sees the same bindings.  Templates are kept on the
program object, per block offset, so walkers over the same programs
share them; they are never pickled.  An
:class:`~repro.harness.store.ArtifactStore` hands every experiment over
it the same program objects, so the experiments of one scenario-matrix
pass compile each template once.  The output and the errors are
those of walking the DSL tree node by node (``tests/walker_reference.py``
keeps that walker as the oracle).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

#: ``template(walk, bindings, children, out)`` appends one routine's
#: block ids to ``out``; ``walk(event, out)`` expands a child event.
Template = Callable[[Callable, Dict, Sequence[CallEvent], List[int]], None]

#: Longest constant loop expansion folded into a template's tuples.
_MAX_UNROLL = 1024


class CfgWalker:
    """Expands call-event trees into block-id traces."""

    def __init__(self, app: CompiledProgram, kernel: CompiledProgram) -> None:
        self.app = app
        self.kernel = kernel
        self.kernel_offset = app.binary.num_blocks
        #: (event name, table binding) -> template.
        self._resolved: Dict[Tuple[str, Optional[str]], Template] = {}

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
        bindings = event.bindings
        key = (event.name, bindings.get("table"))
        try:
            template = self._resolved[key]
        except KeyError:
            template = self._resolved[key] = self._resolve(*key)
        template(self.walk_event, bindings, event.children, out)

    def _resolve(self, name: str, table: Optional[str]) -> Template:
        if name.startswith("k."):
            return _template(self.kernel, self.kernel_offset, name)
        return _template(self.app, 0, self.app.resolve(name, table))


def _template(program: CompiledProgram, offset: int, name: str) -> Template:
    """Routine ``name`` of ``program`` at ``offset``, compiled on first use."""
    templates = program.templates.setdefault(offset, {})
    template = templates.get(name)
    if template is None:
        spec = program.spec(name)
        template = templates[name] = _RoutineCompiler(program, offset, spec).build()
    return template


# -- errors raised by templates (the oracle's types and messages) -----------


def _missing_child(match: str, kind: str) -> SimulationError:
    return SimulationError(
        f"expected child event {match!r} but the event has no more "
        f"children (node {kind})"
    )


def _wrong_child(match: str, name: str) -> SimulationError:
    return SimulationError(f"expected child event {match!r}, got {name!r}")


def _not_kernel(name: str) -> SimulationError:
    return SimulationError(f"Syscall matched non-kernel event {name!r}")


def _unconsumed(
    routine: str, children: Sequence[CallEvent], cursor: int
) -> SimulationError:
    leftover = [c.name for c in children[cursor:]]
    return SimulationError(
        f"routine {routine!r}: {len(leftover)} unconsumed child "
        f"events: {leftover[:5]}"
    )


_GLOBALS = {
    "_missing_child": _missing_child,
    "_wrong_child": _wrong_child,
    "_not_kernel": _not_kernel,
    "_unconsumed": _unconsumed,
    "_eval_cond": eval_cond,
    "_eval_count": eval_count,
}


# -- the template compiler ----------------------------------------------------


def _consumes(nodes: Sequence[Node]) -> bool:
    """Whether walking ``nodes`` can consume child events."""
    for node in nodes:
        if isinstance(node, (Call, Syscall, CallSeq)):
            return True
        if isinstance(node, If) and (_consumes(node.then) or _consumes(node.orelse)):
            return True
        if isinstance(node, Loop) and _consumes(node.body):
            return True
    return False


def _extend(ids: List[int]) -> str:
    return f"app({ids[0]})" if len(ids) == 1 else f"ext({tuple(ids)!r})"


class _RoutineCompiler:
    """Generates the source of one routine's template.

    Generated statements are ``(depth, text)`` lines.  ``run`` holds the
    constant block ids emitted since the last flush; they are appended
    with one ``extend`` just before the next statement that emits ids.
    """

    def __init__(self, program: CompiledProgram, offset: int, spec: RoutineSpec) -> None:
        self.program = program
        self.offset = offset
        self.spec = spec
        self.lines: List[Tuple[int, str]] = []
        self.run: List[int] = []
        self.namespace: Dict[str, object] = dict(_GLOBALS)
        self.salted = False
        self.temps = 0
        #: The routine and the helpers being inlined into it.
        self.inlining = [spec.name]

    def build(self) -> Template:
        spec, off = self.spec, self.offset
        self.run.append(spec.prologue_bid + off)
        consumes = _consumes(spec.body)
        self.seq(spec.body, consumes)
        if consumes:
            self.emit(f"if i != len(ch): raise _unconsumed({spec.name!r}, ch, i)")
        else:
            self.emit(f"if ch: raise _unconsumed({spec.name!r}, ch, 0)")
        self.run.append(spec.epilogue_bid + off)
        self.flush()
        head = ["ext = out.extend", "app = out.append"]
        if self.salted:
            head.append("s = int(b.get('salt', 0))")
        if consumes:
            head.append("i = 0")
        source = "def template(walk, b, ch, out):\n" + "\n".join(
            "    " * (depth + 1) + text
            for depth, text in [(0, line) for line in head] + self.lines
        )
        exec(compile(source, f"<template {spec.name}>", "exec"), self.namespace)
        # Popped so that the template and its globals form no cycle.
        return self.namespace.pop("template")

    # -- statements ------------------------------------------------------------

    def emit(self, text: str, depth: int = 0) -> None:
        self.lines.append((depth, text))

    def flush(self) -> None:
        if self.run:
            self.emit(_extend(self.run))
        self.run = []

    def block(self, nodes: Sequence[Node], children: bool, prefix=()):
        """Compile ``nodes`` apart: ``(lines, trailing ids not yet emitted)``."""
        saved = self.lines, self.run
        self.lines, self.run = [], list(prefix)
        self.seq(nodes, children)
        compiled = self.lines, self.run
        self.lines, self.run = saved
        return compiled

    def nest(self, lines: List[Tuple[int, str]], ids: List[int], depth: int = 1) -> None:
        """Splice ``lines`` (then an extend of ``ids``) in at ``depth``."""
        if ids:
            lines = lines + [(0, _extend(ids))]
        self.lines.extend((d + depth, text) for d, text in lines or [(0, "pass")])

    def temp(self, stem: str) -> str:
        self.temps += 1
        return f"{stem}{self.temps}"

    def binding(self, name: str, on_missing: str) -> str:
        """Read ``b[name]`` into a temporary; a missing key runs ``on_missing``."""
        var = self.temp("v")
        self.emit("try:")
        self.emit(f"{var} = b[{name!r}]", 1)
        self.emit("except KeyError:")
        self.emit(on_missing, 1)
        return var

    # -- nodes ------------------------------------------------------------------

    def seq(self, nodes: Sequence[Node], children: bool) -> None:
        for node in nodes:
            self.node(node, children)

    def node(self, node: Node, children: bool) -> None:
        off = self.offset
        if isinstance(node, (Straight, ColdPath)):
            self.run.append(node.bid + off)
        elif isinstance(node, If):
            self.run.append(node.bid + off)
            self.branch(node, children)
        elif isinstance(node, Loop):
            self.loop(node, children)
        elif isinstance(node, (Call, Syscall)):
            self.call(node, children)
        elif isinstance(node, SubCall):
            self.run.append(node.bid + off)
            self.subcall(node)
        elif isinstance(node, CallSeq):
            if children:
                self.callseq(node)
            self.run.append(node.bid + off)
        else:
            raise SimulationError(f"unknown DSL node: {type(node).__name__}")

    def condition(self, cond: str, nonce: int):
        """``cond`` as a constant bool or the source of a bool expression."""
        negate = cond.startswith("!")
        name = cond[1:] if negate else cond
        if name == "never":
            return negate
        if name.startswith("?"):
            percent = int(name[1:])
            if percent <= 0 or percent >= 100:
                return (percent >= 100) != negate
            self.salted = True
            mixed = f"((s ^ {nonce * 0x9E3779B1}) * {0x85EBCA6B} & {0xFFFFFFFF})"
            return f"{mixed} % 100 {'>=' if negate else '<'} {percent}"
        var = self.binding(name, f"_eval_cond({cond!r}, b)")
        return f"not {var}" if negate else var

    def branch(self, node: If, children: bool) -> None:
        then_exit = [node.then_exit_bid + self.offset] if node.orelse else []
        test = self.condition(node.cond, node.bid)
        if test is True:
            self.seq(node.then, children)
            self.run += then_exit
        elif test is False:
            self.seq(node.orelse, children)
        else:
            # The pending ids join the first extend of each arm.
            prefix, self.run = self.run, []
            lines, ids = self.block(node.then, children, prefix)
            self.emit(f"if {test}:")
            self.nest(lines, ids + then_exit)
            self.emit("else:")
            self.nest(*self.block(node.orelse, children, prefix))

    def loop(self, node: Loop, children: bool) -> None:
        off = self.offset
        header, latch = node.bid + off, node.latch_bid + off
        if isinstance(node.count, int):
            count: object = max(0, node.count - node.minus)
            if count <= 1:
                self.run.append(header)
                if count:
                    self.seq(node.body, children)
                    self.run += [latch, header]
                return
        else:
            value = self.binding(
                node.count, f"_eval_count({node.count!r}, {node.minus}, b)"
            )
            count = self.temp("k")
            self.emit(f"{count} = int({value}) - {node.minus}")
        self.run.append(header)
        lines, ids = self.block(node.body, children)
        ids += [latch, header]
        if not lines:
            if isinstance(count, int) and count * len(ids) <= _MAX_UNROLL:
                self.run += ids * count
            else:
                self.flush()
                self.emit(f"ext({tuple(ids)!r} * {count})")
            return
        self.flush()
        if children and _consumes(node.body):
            self.emit(f"for _ in range({count}):")
            self.nest(lines, ids)
            return
        # Every iteration emits the same ids: run the body once, repeat them.
        mark = self.temp("m")
        if isinstance(count, int):
            self.emit(f"{mark} = len(out)")
            self.nest(lines, ids, 0)
            self.emit(f"ext(out[{mark}:] * {count - 1})")
            return
        self.emit(f"if {count} > 0:")
        self.emit(f"{mark} = len(out)", 1)
        self.nest(lines, ids)
        self.emit(f"if {count} > 1: ext(out[{mark}:] * ({count} - 1))", 1)

    def call(self, node, children: bool) -> None:
        kind = type(node).__name__
        self.run.append(node.bid + self.offset)
        if not children:
            self.emit(f"raise _missing_child({node.match!r}, {kind!r})")
            return
        self.emit(f"if i >= len(ch): raise _missing_child({node.match!r}, {kind!r})")
        self.emit("c = ch[i]")
        self.emit(f"if c.name != {node.match!r}: raise _wrong_child({node.match!r}, c.name)")
        self.emit("i += 1")
        if isinstance(node, Syscall) and not node.match.startswith("k."):
            self.emit(f"raise _not_kernel({node.match!r})")
            return
        self.flush()
        self.emit("walk(c, out)")

    def subcall(self, node: SubCall) -> None:
        """Inline a static helper: same bindings, no children."""
        target = node.target
        if target in self.inlining:
            # A helper's walk depends only on the bindings, so reaching
            # a helper again inside itself recurses without end.
            message = f"helper {target!r} calls itself"
            self.emit(f"raise RecursionError({message!r})")
            return
        spec = self.program.spec(target)
        self.inlining.append(target)
        self.run.append(spec.prologue_bid + self.offset)
        self.seq(spec.body, False)
        self.run.append(spec.epilogue_bid + self.offset)
        self.inlining.pop()

    def callseq(self, node: CallSeq) -> None:
        off = self.offset
        k = len(node.matches)
        arms: Dict[str, Tuple[int, ...]] = {}
        for idx, name in enumerate(node.matches):
            # The dispatch chain runs up to the matching arm; the first
            # arm of a repeated name wins.
            dispatch = [getattr(node, f"_dispatch_{i}") for i in range(min(idx, k - 2) + 1)]
            ids = (node.bid, *dispatch, getattr(node, f"_call_{idx}"))
            arms.setdefault(name, tuple(bid + off for bid in ids))
        table = self.temp("_arms")
        self.namespace[table] = arms
        self.flush()
        self.emit("while i < len(ch):")
        self.emit("c = ch[i]", 1)
        self.emit(f"a = {table}.get(c.name)", 1)
        self.emit("if a is None: break", 1)
        self.emit("i += 1", 1)
        self.emit("ext(a)", 1)
        self.emit("walk(c, out)", 1)
        self.emit(f"app({node.latch_bid + off})", 1)
