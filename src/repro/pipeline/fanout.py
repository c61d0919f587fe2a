"""The one process fan-out: deterministic, resilient, one worker handoff.

:func:`parallel_map` fans independent cells over a fork-based
``ProcessPoolExecutor`` and returns results in input order, so parallel
output is bit-identical to serial; ``jobs <= 1``, a single cell or a
platform without ``fork`` runs the same function serially.  A
``timeout`` bounds the whole map: a hung or killed worker terminates the
pool and raises :class:`~repro.errors.ParallelError`, and
:func:`resilient_map` re-runs such a map with exponential backoff.

A map's read-only inputs travel as ``shared=``.  The pool initializer
stores them in a thread-local slot that tasks read with
:func:`shared_state`, and a forked pool inherits ``initargs`` without
pickling them.  The serial path installs the value around its loop and
restores the previous one, so a nested map leaves the outer state
intact.  The layout server's executors use the same initializer.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, TypeVar

from repro import obs
from repro.errors import ParallelError

T = TypeVar("T")
R = TypeVar("R")

LOGGER = logging.getLogger("repro.pipeline")

#: The ``shared=`` state of the fan-out running in this thread.
_SHARED = threading.local()


def install_shared(state: Any) -> None:
    """Make ``state`` what :func:`shared_state` returns in this thread
    (the pool ``initializer``)."""
    _SHARED.value = state


def shared_state() -> Any:
    """The ``shared=`` state of the map running the current task
    (``None`` outside any map)."""
    return getattr(_SHARED, "value", None)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a job-count request: ``None``/``0`` -> 1 (serial),
    negative -> one worker per CPU."""
    if not jobs:
        return 1
    if jobs < 0:
        return os.cpu_count() or 1
    return jobs


def fork_available() -> bool:
    """True when the deterministic ``fork`` start method exists."""
    return "fork" in multiprocessing.get_all_start_methods()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on stuck or dead workers.

    ``shutdown(wait=True)`` would block on a hung worker, so the
    worker processes are terminated first.  ``_processes`` is private
    but stable across the supported CPython versions; an attribute
    error degrades to a non-waiting shutdown.
    """
    try:
        processes = list(getattr(pool, "_processes", {}).values())
    except Exception:
        processes = []
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _mapped_with_deadline(
    pool: ProcessPoolExecutor,
    fn: Callable[[T], R],
    work: List[T],
    timeout: float,
) -> List[R]:
    """Submit every task, then collect in order against one deadline."""
    futures = [pool.submit(fn, item) for item in work]
    deadline = time.monotonic() + timeout
    results: List[R] = []
    for index, future in enumerate(futures):
        remaining = deadline - time.monotonic()
        try:
            results.append(future.result(timeout=max(0.0, remaining)))
        except FutureTimeoutError:
            _kill_pool(pool)
            raise ParallelError(
                f"parallel_map task {index} did not finish within the "
                f"{timeout:g}s hard timeout ({len(results)} of "
                f"{len(work)} tasks completed); worker pool terminated"
            ) from None
        except BrokenProcessPool as exc:
            _kill_pool(pool)
            raise ParallelError(
                f"parallel_map worker crashed while running task {index} "
                f"(process killed or died without returning); "
                f"{len(results)} of {len(work)} tasks completed"
            ) from exc
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    chunksize: int = 1,
    timeout: Optional[float] = None,
    shared: Any = None,
) -> List[R]:
    """Order-preserving map over independent items.

    ``fn`` must be a module-level (picklable) function of one item.
    Results are returned in input order regardless of completion order,
    so parallel runs reproduce serial output exactly.  ``shared`` is
    the map's read-only state, read by tasks with :func:`shared_state`.

    ``timeout`` (seconds, parallel path only) bounds the whole map.
    On expiry — or when a worker process dies mid-task — the pool is
    terminated and :class:`~repro.errors.ParallelError` is raised
    naming the first unfinished / crashed task index.
    """
    work = list(items)
    workers = min(resolve_jobs(jobs), len(work))
    if workers <= 1 or not fork_available():
        outer = shared_state()
        install_shared(shared)
        try:
            return [fn(item) for item in work]
        finally:
            install_shared(outer)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=install_shared,
        initargs=(shared,),
    )
    try:
        if timeout is None:
            try:
                return list(pool.map(fn, work, chunksize=chunksize))
            except BrokenProcessPool as exc:
                _kill_pool(pool)
                raise ParallelError(
                    "parallel_map worker crashed (process killed or died "
                    "without returning); rerun with timeout= to identify "
                    "the offending task"
                ) from exc
        return _mapped_with_deadline(pool, fn, work, timeout)
    finally:
        # Normal completion: a regular shutdown (workers are idle).
        # Error paths already terminated the workers, so this returns
        # immediately instead of joining corpses.
        pool.shutdown(wait=False, cancel_futures=True)


def resilient_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    chunksize: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.25,
    _sleep: Callable[[float], None] = time.sleep,
    shared: Any = None,
) -> List[R]:
    """Order-preserving map that retries crashed or hung fan-outs.

    Semantics match :func:`parallel_map` (results in input order,
    bit-identical to serial, ``shared`` handed to every task), plus:
    when the map raises :class:`~repro.errors.ParallelError` — a worker
    was killed mid-task or the hard ``timeout`` expired — the whole map
    is re-run up to ``retries`` more times, sleeping
    ``backoff * 2**attempt`` seconds before each retry.  ``fn`` must
    therefore be pure (every sweep cell already is).  The final
    failure is re-raised unchanged.
    """
    work = list(items)
    attempt = 0
    while True:
        try:
            return parallel_map(
                fn, work, jobs=jobs, chunksize=chunksize, timeout=timeout,
                shared=shared,
            )
        except ParallelError as exc:
            attempt += 1
            if attempt > retries:
                raise
            delay = backoff * (2 ** (attempt - 1))
            obs.counter("pipeline.retries").inc()
            LOGGER.warning(
                "fan-out failed (%s); retry %d/%d in %.2fs",
                exc, attempt, retries, delay,
            )
            _sleep(delay)
