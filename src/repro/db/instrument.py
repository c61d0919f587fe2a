"""Instrumentation bridge: engine execution -> routine call events.

The execution model does not trace Python bytecode; instead the engine
emits a tree of :class:`CallEvent` describing which logical routines
ran, with *semantic bindings* (branch outcomes, loop trip counts) and
nested child calls.  The CFG interpreter later walks each routine's IR
using the bindings, producing the instruction-level address trace.

Event names starting with ``k.`` denote kernel entry points (syscalls,
handled by the OS model's binary); everything else is application code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.db.buffer import BufferPool
from repro.db.storage import PageStore


class CallEvent:
    """One dynamic routine invocation."""

    __slots__ = ("name", "bindings", "children")

    def __init__(self, name: str, bindings: Optional[Dict] = None) -> None:
        self.name = name
        self.bindings: Dict = bindings or {}
        self.children: List["CallEvent"] = []

    def bind(self, **kwargs) -> None:
        """Attach/overwrite bindings (usually at op completion)."""
        self.bindings.update(kwargs)

    def find(self, name: str) -> List["CallEvent"]:
        """All descendant events with a given name (tests/debugging)."""
        out = []
        for child in self.children:
            if child.name == name:
                out.append(child)
            out.extend(child.find(name))
        return out

    def __repr__(self) -> str:
        return f"CallEvent({self.name!r}, {self.bindings}, {len(self.children)} kids)"


class CallTrace:
    """Records a tree of call events for one unit of work.

    The orchestrator drains the tree after each engine step (see
    :meth:`take`), so memory stays bounded no matter how long a run is.
    """

    def __init__(self, salts: int = 0) -> None:
        self.root = CallEvent("root")
        self._stack: List[CallEvent] = [self.root]
        #: Salts drawn so far; a trace continuing a restored database
        #: starts from the count its load left behind.
        self.salts = salts

    def _next_salt(self) -> int:
        # A cheap avalanche over an op counter; the CFG interpreter uses
        # the salt to resolve pseudo-random ("?p") branch conditions so
        # generated warm code takes data-dependent paths deterministically.
        self.salts += 1
        return (self.salts * 2654435761) & 0x7FFFFFFF

    @contextmanager
    def op(self, name: str, **bindings) -> Iterator[CallEvent]:
        """Record a nested routine invocation."""
        event = CallEvent(name, dict(bindings))
        event.bindings.setdefault("salt", self._next_salt())
        self._stack[-1].children.append(event)
        self._stack.append(event)
        try:
            yield event
        finally:
            self._stack.pop()

    def leaf(self, name: str, **bindings) -> CallEvent:
        """Record a call with no traced children."""
        event = CallEvent(name, dict(bindings))
        event.bindings.setdefault("salt", self._next_salt())
        self._stack[-1].children.append(event)
        return event

    def take(self) -> List[CallEvent]:
        """Detach and return the events recorded so far.

        Only valid between units of work (no op may be open).
        """
        if len(self._stack) != 1:
            raise RuntimeError("CallTrace.take() inside an open op")
        events = self.root.children
        self.root = CallEvent("root")
        self._stack = [self.root]
        return events


class NullTrace:
    """No-op tracer: the engine runs untraced (tests, bulk loads)."""

    @contextmanager
    def op(self, name: str, **bindings) -> Iterator[CallEvent]:
        yield _NULL_EVENT

    def leaf(self, name: str, **bindings) -> CallEvent:
        return _NULL_EVENT

    def take(self) -> List[CallEvent]:
        return []


class SaltCounter(NullTrace):
    """Builds no events but advances the salt counter exactly as
    :class:`CallTrace` would (one salt per ``op`` or ``leaf``).

    A database loaded through it ends with the same salt counter as a
    traced load, which is what a later traced run continues from.
    """

    def __init__(self) -> None:
        self.salts = 0

    @contextmanager
    def op(self, name: str, **bindings) -> Iterator[CallEvent]:
        self.salts += 1
        yield _NULL_EVENT

    def leaf(self, name: str, **bindings) -> CallEvent:
        self.salts += 1
        return _NULL_EVENT


class _NullEvent:
    __slots__ = ()

    def bind(self, **kwargs) -> None:
        pass


_NULL_EVENT = _NullEvent()


class TracedBufferPool(BufferPool):
    """Buffer pool that records ``buffer_get`` events on every fetch.

    Physical reads triggered by misses surface as ``k.read`` children
    (wired through the store's ``on_read`` hook by :func:`traced_store`).
    """

    def __init__(self, store: PageStore, capacity: int, trace) -> None:
        super().__init__(store, capacity)
        self.trace = trace

    def fetch(self, page_id: int):
        hit = self.contains(page_id)
        with self.trace.op("buffer_get", hit=hit) as ev:
            writes_before = self.store.writes
            page = super().fetch(page_id)
            ev.bind(wrote_back=self.store.writes > writes_before)
        return page

    def new_page(self):
        with self.trace.op("buffer_new", hit=False) as ev:
            writes_before = self.store.writes
            page = super().new_page()
            ev.bind(wrote_back=self.store.writes > writes_before)
        return page


def traced_store(store: PageStore, trace) -> PageStore:
    """Wire a page store's I/O hooks to kernel-call events."""
    store.on_read = lambda page_id: trace.leaf("k.read", pages=1)
    store.on_write = lambda page_id: trace.leaf("k.write", pages=1)
    return store
