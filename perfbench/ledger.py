"""The per-layer time ledger used by traced benchmark runs.

:func:`install` wraps each layer's public entry points (the table
:data:`LAYERS`) so every call records its *self time* -- its duration
minus the time spent in nested wrapped calls on the same thread -- plus
the layer's work counts.  The wrappers are replaced wherever the
function is bound in a loaded ``repro`` module (``from x import f``
copies the binding), and :meth:`Installation.uninstall` puts every
original back.  Untraced runs never call :func:`install`.

Work done in other processes is recorded too:

* ``resilient_map`` fan-outs run each task through :class:`_Traced`,
  which gives the task a clean ledger in whichever process runs it
  (a forked worker inherits the wrappers) and ships the task's records
  back with its result.  The parent scales worker self time by the
  fan-out's parallel overlap (union of task intervals / sum of task
  durations), so layer seconds still add up to wall time, and counts
  the part of the fan-out no task covered as ``pipeline.fanout_s``.
* The layout server runs under ``perfbench/serve_launcher.py``, which
  installs the same wrappers before entering ``repro serve`` and writes
  its ledger to a JSON file on exit (see :func:`dump`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Prefix of the unscaled busy-time entry kept beside each time metric.
BUSY = "busy:"


def is_time_metric(name: str) -> bool:
    """Time metrics end in ``.s`` or ``_s``; everything else is a count."""
    return name.endswith(".s") or name.endswith("_s")


class Ledger:
    """One process's layer self times and counts."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> List[list]:
        """This thread's open spans as ``[child seconds, metric]``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def swap_stack(self, stack: List[list]) -> List[list]:
        """Install ``stack`` for this thread; returns the previous one."""
        previous = self.stack()
        self._local.stack = stack
        return previous

    def add(self, name: str, value: float) -> None:
        """Add to one metric (time metrics also add to their busy twin)."""
        with self._lock:
            self._values[name] += value
            if is_time_metric(name):
                self._values[BUSY + name] += value

    def take(self) -> Dict[str, float]:
        """Every recorded value, resetting the ledger."""
        with self._lock:
            values = dict(self._values)
            self._values.clear()
        return values

    def merge(self, values: Dict[str, float], scale: float = 1.0) -> None:
        """Add another ledger's values; wall-attributed time is scaled."""
        with self._lock:
            for name, value in values.items():
                if is_time_metric(name) and not name.startswith(BUSY):
                    value *= scale
                self._values[name] += value


def _span_wrapper(fn, ledger: Ledger, metric: str, after: Optional[Callable]):
    """``fn`` recording ``metric`` self time and ``after(result, args)``
    counts into ``ledger``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = ledger.stack()
        stack.append([0.0, metric])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()[0]
            if stack:
                stack[-1][0] += elapsed
            ledger.add(metric, elapsed - child)
        # Counts belong to the outermost call of a layer (check_all
        # runs check_layout inside it: one check, not two).
        if after is not None and all(f[1] != metric for f in stack):
            for name, value in after(result, args).items():
                ledger.add(name, value)
        return result

    return wrapper


def _stream_instructions(streams) -> int:
    return sum(int(counts.sum()) for _, counts in streams)


def _store_load_counts(result, args) -> Dict[str, float]:
    if result is None:
        return {"store.misses": 1}
    store, fingerprint, name = args[0], args[1], args[2]
    path = store.path(fingerprint, name)
    return {"store.hits": 1, "store.read_bytes": path.stat().st_size}


def _check_counts(result, _args) -> Dict[str, float]:
    return {"check.runs": 1, "check.rejected": 0 if result.ok else 1}


#: (module, attribute path, time metric, counts from (result, args)).
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.progen", "build_app_program", "progen.s", None),
    ("repro.osmodel", "build_kernel_program", "osmodel.s", None),
    # Building the system loads the TPC-B database (the db layer).
    ("repro.execution", "OltpSystem.__init__", "execution.s", None),
    ("repro.execution", "OltpSystem.run", "execution.s",
     lambda trace, _a: {
         "execution.blocks": sum(len(cpu.blocks) for cpu in trace.cpus)}),
    ("repro.profiles", "PixieProfiler.add_stream", "profiles.s", None),
    ("repro.profiles", "PixieProfiler.profile", "profiles.s", None),
    ("repro.layout", "SpikeOptimizer.layout", "layout.s",
     lambda _r, _a: {"layout.builds": 1}),
    ("repro.check", "check_all", "check.s", _check_counts),
    ("repro.check", "check_layout", "check.s", _check_counts),
    ("repro.ir", "assign_addresses", "ir.assign_s", None),
    ("repro.ir.layout", "AddressMap.expand_spans", "ir.expand_s",
     lambda spans, _a: {"ir.expand_instructions": int(spans[1].sum())}),
    ("repro.execution", "CombinedAddressMap.expand_spans", "ir.expand_s",
     lambda spans, _a: {"ir.expand_instructions": int(spans[1].sum())}),
    ("repro.sim", "simulate", "sim.lru_s",
     lambda result, _a: {"sim.instructions": result.instructions}),
    ("repro.sim", "simulate_grid", "sim.grid_s",
     lambda _r, args: {"sim.instructions": _stream_instructions(args[0])
                       * len(args[1]) * len(args[2])}),
    ("repro.harness.store", "ArtifactStore.load", "store.load_s",
     _store_load_counts),
    ("repro.harness.store", "ArtifactStore.save", "store.save_s",
     lambda written, _a: {"store.write_bytes": written}),
)

#: Modules whose import binds the wrapped names; loaded before patching
#: so every ``from x import f`` copy is found and replaced.
PRELOAD = (
    "repro.harness.figures",
    "repro.scenarios.matrix",
    "repro.serve.server",
    "repro.serve.fleet",
    "repro.online.relayout",
    "repro.pipeline.fanout",
)


class _Traced:
    """A fan-out task that ships its ledger records home.

    Picklable (module-level class, the task function by reference).
    Runs the task on a clean ledger and a clean span stack, in the
    worker or -- for serial maps -- in the parent, and returns
    ``(result, records, start, end)``.
    """

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        ledger = _ACTIVE.ledger
        saved = ledger.take()
        saved_stack = ledger.swap_stack([])
        start = time.perf_counter()
        try:
            result = self.fn(item)
        finally:
            end = time.perf_counter()
            records = ledger.take()
            ledger.merge(saved)
            ledger.swap_stack(saved_stack)
        return result, records, start, end


def union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Seconds covered by at least one ``(start, end)`` interval."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _fanout_wrapper(fn, ledger: Ledger):
    @functools.wraps(fn)
    def wrapper(task, items, *args, **kwargs):
        stack = ledger.stack()
        stack.append([0.0, "pipeline.fanout_s"])
        start = time.perf_counter()
        covered = 0.0
        try:
            outcomes = fn(_Traced(task), items, *args, **kwargs)
            intervals = [(begin, end) for _, _, begin, end in outcomes]
            covered = union_seconds(intervals)
            busy = sum(end - begin for begin, end in intervals)
            scale = covered / busy if busy > 0 else 1.0
            for _, records, _, _ in outcomes:
                ledger.merge(records, scale)
        finally:
            elapsed = time.perf_counter() - start
            child = stack.pop()[0]
            if stack:
                stack[-1][0] += elapsed
            ledger.add("pipeline.fanout_s", max(0.0, elapsed - child - covered))
        ledger.add("pipeline.fanout_tasks", len(outcomes))
        return [result for result, _, _, _ in outcomes]

    return wrapper


class Installation:
    """The wrappers of one :func:`install`; undone by :meth:`uninstall`."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._patches: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_function(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        global _ACTIVE
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


#: The installation forked fan-out workers (and serial tasks) record
#: into; set by :func:`install`, cleared by ``uninstall``.
_ACTIVE: Optional[Installation] = None


def install(ledger: Ledger) -> Installation:
    """Wrap every layer entry point so calls record into ``ledger``."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a ledger is already installed in this process")
    for name in PRELOAD:
        importlib.import_module(name)
    installation = Installation(ledger)
    for module_name, path, metric, after in LAYERS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        replacement = _span_wrapper(original, ledger, metric, after)
        if isinstance(owner, type):
            installation._patch(owner, attr, replacement)
        else:
            installation._patch_function(original, replacement)
    fanout = importlib.import_module("repro.pipeline.fanout").resilient_map
    installation._patch_function(fanout, _fanout_wrapper(fanout, ledger))
    _ACTIVE = installation
    return installation


def installed() -> bool:
    """True while a ledger is installed in this process."""
    return _ACTIVE is not None


def dump(values: Dict[str, float], path: str) -> None:
    """Write one process's ledger values as JSON."""
    with open(path, "w") as handle:
        json.dump(values, handle)


def load(path: str) -> Dict[str, float]:
    """Read a :func:`dump` file."""
    with open(path) as handle:
        return json.load(handle)
