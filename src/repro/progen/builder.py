"""Compile routine specs (DSL) into a binary IR.

The compiled binary's *source order* is what a non-profile-guided
compiler would emit: prologue, body in source order with error handling
either inline or banked at the routine's end, epilogue.  The same DSL
tree, annotated with the compiled block ids, is what the CFG
interpreter compiles into routine templates at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir import Binary, Procedure, Terminator
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
)


def iter_nodes(body: Sequence[Node]) -> Iterator[Node]:
    """Depth-first iteration over a DSL body."""
    for node in body:
        yield node
        if isinstance(node, If):
            yield from iter_nodes(node.then)
            yield from iter_nodes(node.orelse)
        elif isinstance(node, Loop):
            yield from iter_nodes(node.body)


@dataclass
class CompiledProgram:
    """A binary plus the bid-annotated specs that drive interpretation."""

    binary: Binary
    specs: Dict[str, RoutineSpec]
    #: Routine templates the CFG walker compiled for this program, per
    #: block offset.  They live and die with the program and are never
    #: compared, copied or pickled.
    templates: Dict[int, Dict] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> Dict:
        return {"binary": self.binary, "specs": self.specs}

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self.templates = {}

    def spec(self, name: str) -> RoutineSpec:
        try:
            return self.specs[name]
        except KeyError:
            raise IRError(f"no routine spec named {name!r}") from None

    def resolve(self, event_name: str, table: Optional[str]) -> str:
        """Resolve an event to its (possibly specialized) routine name."""
        if table:
            specialized = f"{event_name}@{table}"
            if specialized in self.specs:
                return specialized
        if event_name in self.specs:
            return event_name
        raise IRError(f"no routine for event {event_name!r} (table={table!r})")


class _RoutineCompiler:
    """Compiles one RoutineSpec into a Procedure."""

    def __init__(self, spec: RoutineSpec, known_names: frozenset) -> None:
        self.spec = spec
        self.known = known_names
        self.proc = Procedure(spec.name)
        self._counter = 0
        #: (node, attribute, label) fixups resolved after the binary is sealed.
        self.fixups: List[Tuple[object, str, str]] = []
        #: Deferred out-of-line cold chains: (entry_label, coldpath node).
        self._deferred_cold: List[Tuple[str, ColdPath]] = []
        self._epilogue_label = ""

    def _fresh(self) -> str:
        label = f"b{self._counter}"
        self._counter += 1
        return label

    def compile(self) -> Procedure:
        prologue = self._fresh()
        epilogue = self._fresh()
        self._epilogue_label = epilogue
        self.fixups.append((self.spec, "prologue_bid", prologue))
        self.fixups.append((self.spec, "epilogue_bid", epilogue))
        body_entry = self._plan_seq(self.spec.body, epilogue)
        self.proc.add_block(
            prologue, self.spec.prologue, Terminator.FALLTHROUGH, succs=(body_entry,)
        )
        self._emit_seq(self.spec.body, epilogue)
        self.proc.add_block(epilogue, self.spec.epilogue, Terminator.RETURN)
        for entry_label, node in self._deferred_cold:
            self._emit_cold_chain(entry_label, node)
        return self.proc

    # -- label planning ------------------------------------------------------

    def _plan_seq(self, nodes: Sequence[Node], exit_label: str) -> str:
        """Assign entry labels to a node sequence; returns its entry."""
        labels = [self._fresh() for _ in nodes]
        for node, label in zip(nodes, labels):
            node._entry_label = label  # transient, used by _emit_seq
        return labels[0] if labels else exit_label

    # -- emission ---------------------------------------------------------------

    def _emit_seq(self, nodes: Sequence[Node], exit_label: str) -> None:
        for i, node in enumerate(nodes):
            nxt = nodes[i + 1]._entry_label if i + 1 < len(nodes) else exit_label
            self._emit_node(node, node._entry_label, nxt)

    def _emit_node(self, node: Node, entry: str, nxt: str) -> None:
        if isinstance(node, Straight):
            self.fixups.append((node, "bid", entry))
            self.proc.add_block(entry, node.size, Terminator.FALLTHROUGH, succs=(nxt,))
        elif isinstance(node, If):
            self._emit_if(node, entry, nxt)
        elif isinstance(node, Loop):
            self._emit_loop(node, entry, nxt)
        elif isinstance(node, Call):
            self.fixups.append((node, "bid", entry))
            target = self._resolve_call(node)
            self.proc.add_block(
                entry, node.size, Terminator.CALL, succs=(nxt,), call_target=target
            )
        elif isinstance(node, Syscall):
            self.fixups.append((node, "bid", entry))
            self.proc.add_block(entry, node.size, Terminator.FALLTHROUGH, succs=(nxt,))
        elif isinstance(node, SubCall):
            self.fixups.append((node, "bid", entry))
            target = self._resolve_subcall(node)
            self.proc.add_block(
                entry, node.size, Terminator.CALL, succs=(nxt,), call_target=target
            )
        elif isinstance(node, CallSeq):
            self._emit_callseq(node, entry, nxt)
        elif isinstance(node, ColdPath):
            self._emit_coldpath(node, entry, nxt)
        else:
            raise IRError(f"unknown DSL node type: {type(node).__name__}")

    def _resolve_call(self, node: Call) -> str:
        if node.target:
            return node.target
        if self.spec.suffix:
            specialized = f"{node.match}@{self.spec.suffix}"
            if specialized in self.known:
                node.target = specialized
                return specialized
        if node.match in self.known:
            node.target = node.match
            return node.match
        raise IRError(
            f"routine {self.spec.name!r}: call target {node.match!r} "
            f"is not a known routine"
        )

    def _resolve_subcall(self, node: SubCall) -> str:
        if self.spec.suffix:
            specialized = f"{node.target}@{self.spec.suffix}"
            if specialized in self.known:
                node.target = specialized
                return specialized
        if node.target in self.known:
            return node.target
        raise IRError(
            f"routine {self.spec.name!r}: helper {node.target!r} "
            f"is not a known routine"
        )

    def _emit_callseq(self, node: CallSeq, entry: str, nxt: str) -> None:
        if not node.matches:
            raise IRError(f"routine {self.spec.name!r}: CallSeq needs matches")
        self.fixups.append((node, "bid", entry))
        k = len(node.matches)
        latch = self._fresh()
        dispatch_labels = [self._fresh() for _ in range(k - 1)]
        call_labels = [self._fresh() for _ in range(k)]
        body_entry = dispatch_labels[0] if k > 1 else call_labels[0]
        self.proc.add_block(
            entry, node.header_size, Terminator.COND_BRANCH,
            succs=(nxt, body_entry),
        )
        # Dispatch chain: cmp_i falls through to call_i, branches on to
        # the next cmp (or the last call).
        for i, label in enumerate(dispatch_labels):
            escape = dispatch_labels[i + 1] if i + 1 < k - 1 else call_labels[k - 1]
            self.proc.add_block(
                label, node.dispatch_size, Terminator.COND_BRANCH,
                succs=(escape, call_labels[i]),
            )
            if i < k - 1:
                target = self._resolve_match(node.matches[i])
                self.proc.add_block(
                    call_labels[i], node.call_size, Terminator.CALL,
                    succs=(latch,), call_target=target,
                )
        target = self._resolve_match(node.matches[k - 1])
        self.proc.add_block(
            call_labels[k - 1], node.call_size, Terminator.CALL,
            succs=(latch,), call_target=target,
        )
        self.proc.add_block(latch, 1, Terminator.UNCOND_BRANCH, succs=(entry,))
        self.fixups.append((node, "latch_bid", latch))
        for i, label in enumerate(dispatch_labels):
            self.fixups.append((node, f"_dispatch_{i}", label))
        for i, label in enumerate(call_labels):
            self.fixups.append((node, f"_call_{i}", label))

    def _resolve_match(self, match: str) -> str:
        if self.spec.suffix:
            specialized = f"{match}@{self.spec.suffix}"
            if specialized in self.known:
                return specialized
        if match in self.known:
            return match
        raise IRError(
            f"routine {self.spec.name!r}: call target {match!r} "
            f"is not a known routine"
        )

    def _emit_if(self, node: If, entry: str, nxt: str) -> None:
        self.fixups.append((node, "bid", entry))
        if node.orelse and not node.then:
            raise IRError(
                f"routine {self.spec.name!r}: If with else-arm needs a then-arm "
                f"(negate the condition instead)"
            )
        then_entry = self._plan_seq(node.then, nxt)
        if node.orelse:
            then_exit = self._fresh()
            else_entry = self._plan_seq(node.orelse, nxt)
            # cmp: fallthrough to then, branch taken to else.
            self.proc.add_block(
                entry, node.size, Terminator.COND_BRANCH,
                succs=(else_entry, then_entry),
            )
            self._emit_seq_with_exit(node.then, then_exit)
            self.fixups.append((node, "then_exit_bid", then_exit))
            self.proc.add_block(then_exit, 1, Terminator.UNCOND_BRANCH, succs=(nxt,))
            self._emit_seq(node.orelse, nxt)
        else:
            self.proc.add_block(
                entry, node.size, Terminator.COND_BRANCH,
                succs=(nxt, then_entry),
            )
            self._emit_seq(node.then, nxt)

    def _emit_seq_with_exit(self, nodes: Sequence[Node], exit_label: str) -> None:
        if nodes:
            self._emit_seq(nodes, exit_label)

    def _emit_loop(self, node: Loop, entry: str, nxt: str) -> None:
        self.fixups.append((node, "bid", entry))
        latch = self._fresh()
        body_entry = self._plan_seq(node.body, latch)
        # Header: taken exits the loop, fallthrough enters the body.
        self.proc.add_block(
            entry, node.size, Terminator.COND_BRANCH, succs=(nxt, body_entry)
        )
        self._emit_seq(node.body, latch)
        self.fixups.append((node, "latch_bid", latch))
        self.proc.add_block(latch, 1, Terminator.UNCOND_BRANCH, succs=(entry,))

    def _emit_coldpath(self, node: ColdPath, entry: str, nxt: str) -> None:
        self.fixups.append((node, "bid", entry))
        cold_entry = self._fresh()
        node._cold_entry_label = cold_entry
        if getattr(node, "inline", False):
            # Inline error code: the common case *takes* the branch
            # around it -- the layout badness chaining exists to fix.
            self.proc.add_block(
                entry, 2, Terminator.COND_BRANCH, succs=(nxt, cold_entry)
            )
            self._emit_cold_chain(cold_entry, node)
        else:
            # Out-of-line: branch to cold code banked after the
            # epilogue; common case falls through.
            self.proc.add_block(
                entry, 2, Terminator.COND_BRANCH, succs=(cold_entry, nxt)
            )
            self._deferred_cold.append((cold_entry, node))

    def _emit_cold_chain(self, entry: str, node: ColdPath) -> None:
        per_block = max(1, node.size // max(1, node.blocks))
        labels = [entry] + [self._fresh() for _ in range(node.blocks - 1)]
        for i, label in enumerate(labels):
            if i + 1 < len(labels):
                self.proc.add_block(
                    label, per_block, Terminator.FALLTHROUGH, succs=(labels[i + 1],)
                )
            else:
                self.proc.add_block(
                    label, per_block, Terminator.UNCOND_BRANCH,
                    succs=(self._epilogue_label,),
                )


def build_binary(specs: Sequence[RoutineSpec], name: str = "a.out") -> CompiledProgram:
    """Compile routine specs into a sealed binary (in spec/link order)."""
    by_name: Dict[str, RoutineSpec] = {}
    for spec in specs:
        if spec.name in by_name:
            raise IRError(f"duplicate routine spec {spec.name!r}")
        by_name[spec.name] = spec
    known = frozenset(by_name)
    binary = Binary(name)
    fixups: List[Tuple[object, str, str, Procedure]] = []
    for spec in specs:
        compiler = _RoutineCompiler(spec, known)
        proc = compiler.compile()
        binary.add_procedure(proc)
        for obj, attr, label in compiler.fixups:
            fixups.append((obj, attr, label, proc))
    binary.seal()
    for obj, attr, label, proc in fixups:
        setattr(obj, attr, proc.block(label).bid)
    return CompiledProgram(binary=binary, specs=by_name)
