"""Routine DSL: structured CFG descriptions of synthetic routines.

Each logical engine routine (``sql_update``, ``buffer_get``, ...) is
described as a tree of DSL nodes.  The builder compiles the tree into
IR basic blocks; the CFG interpreter later compiles *the same tree*
into a routine template and runs it with an event's semantic bindings
(branch outcomes, loop trip counts) to emit the executed block ids.

Nodes:

* :class:`Straight` -- ``size`` straight-line instructions.
* :class:`If` -- two-way branch on a binding; the *then* side is the
  fallthrough (the common-case arm should go there in hand-written
  specs; the optimizer will fix it anyway when profiles disagree).
* :class:`Loop` -- bottom-tested loop executing ``count`` times, where
  count is a binding name or a constant.
* :class:`Call` -- call to another traced routine; consumes the next
  child event, whose name must match.
* :class:`Syscall` -- kernel entry (``k.*`` child event); the kernel
  walker emits kernel-binary blocks, then control returns inline.
* :class:`ColdPath` -- a never-taken branch guarding dead code: the
  error-handling bulk that inflates real binaries (and that splitting
  exists to move out of the way).

Conditions are binding names; prefix ``!`` negates.  The reserved
condition ``never`` is constant-false (used by ColdPath).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union

from repro.errors import IRError


class Node:
    """Base class for DSL nodes (compiled block ids filled by builder)."""

    __slots__ = ()


@dataclass
class Straight(Node):
    """``size`` straight-line instructions."""

    size: int
    bid: int = -1


@dataclass
class If(Node):
    """Two-way branch on a binding."""

    cond: str
    then: List[Node] = field(default_factory=list)
    orelse: List[Node] = field(default_factory=list)
    #: Instructions in the compare-and-branch block.
    size: int = 3
    bid: int = -1
    #: Block id of the unconditional jump block closing the then-arm
    #: (present only when the else-arm is non-empty).
    then_exit_bid: int = -1
    join_bid: int = -1


@dataclass
class Loop(Node):
    """Bottom-tested loop: body runs ``count`` times.

    ``count`` is a binding name (str) or a constant (int); ``minus``
    is subtracted and the result floored at zero.
    """

    count: Union[str, int]
    body: List[Node] = field(default_factory=list)
    minus: int = 0
    #: Instructions in the loop header (test + increment).
    size: int = 3
    bid: int = -1
    latch_bid: int = -1


@dataclass
class Call(Node):
    """Call to another traced routine (consumes one child event)."""

    match: str
    #: Instructions in the call-setup block (arg marshalling + call).
    size: int = 4
    #: Resolved static callee (set by the builder; may be a
    #: table-specialized variant of ``match``).
    target: str = ""
    bid: int = -1


@dataclass
class Syscall(Node):
    """Kernel entry: consumes one ``k.*`` child event."""

    match: str
    size: int = 6
    bid: int = -1


@dataclass
class SubCall(Node):
    """Static call to a helper routine with no trace event of its own.

    The callee is walked inline with the caller's bindings and no
    children; its spec must not contain Call/Syscall/CallSeq nodes.
    Shared utility helpers (hashing, memcpy flavors, comparators) are
    modeled this way.
    """

    target: str
    size: int = 3
    bid: int = -1


@dataclass
class CallSeq(Node):
    """Data-dependent repetition of traced calls.

    Consumes consecutive child events while their names are in
    ``matches``; compiles to a dispatch loop whose arms call each
    possible target.  Used where the engine's child sequence is
    data-dependent (B+tree insertion's mix of node loads, saves and
    splits).
    """

    matches: Tuple[str, ...]
    #: Instructions in the loop-test header / dispatch compare / call blocks.
    header_size: int = 3
    dispatch_size: int = 2
    call_size: int = 4
    bid: int = -1
    dispatch_bids: Tuple[int, ...] = ()
    call_bids: Tuple[int, ...] = ()
    latch_bid: int = -1


@dataclass
class ColdPath(Node):
    """Never-executed error-handling code behind a constant branch.

    ``inline=True`` places the dead code immediately after the guard
    (the executed path *takes* the branch around it); ``inline=False``
    banks it after the routine's epilogue (the executed path falls
    through).  Real unoptimized binaries contain both patterns.
    """

    size: int
    blocks: int = 3
    inline: bool = False
    bid: int = -1


@dataclass
class RoutineSpec:
    """One routine: name, entry/exit sizes, and a body of DSL nodes."""

    name: str
    body: List[Node]
    prologue: int = 4
    epilogue: int = 3
    #: Specialization suffix ("account", ...) used to resolve Call
    #: targets to specialized variants; empty for shared routines.
    suffix: str = ""
    prologue_bid: int = -1
    epilogue_bid: int = -1


def eval_cond(cond: str, bindings: dict, nonce: int = 0) -> bool:
    """Evaluate a DSL condition against an event's bindings.

    Conditions of the form ``?P`` (P in 0..100) are pseudo-random: true
    with probability ~P%, derived deterministically from the event's
    ``salt`` binding and the evaluating block's id (``nonce``).  They
    let generated warm code take data-dependent paths reproducibly.
    """
    negate = cond.startswith("!")
    name = cond[1:] if negate else cond
    if name.startswith("?"):
        percent = int(name[1:])
        salt = int(bindings.get("salt", 0))
        mixed = ((salt ^ (nonce * 0x9E3779B1)) * 0x85EBCA6B) & 0xFFFFFFFF
        value = (mixed % 100) < percent
    elif name == "never":
        value = False
    else:
        try:
            value = bool(bindings[name])
        except KeyError:
            raise IRError(
                f"condition {cond!r}: binding {name!r} missing from {bindings}"
            ) from None
    return (not value) if negate else value


def eval_count(count: Union[str, int], minus: int, bindings: dict) -> int:
    """Evaluate a loop trip count against an event's bindings."""
    if isinstance(count, int):
        value = count
    else:
        try:
            value = int(bindings[count])
        except KeyError:
            raise IRError(
                f"loop count {count!r} missing from bindings {bindings}"
            ) from None
    return max(0, value - minus)
