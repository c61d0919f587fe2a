"""Resilient fan-out and stream handoff between stages.

:func:`resilient_map` wraps :func:`~repro.harness.parallel.parallel_map`
with crashed-worker retry: the whole map is re-run with exponential
backoff when a worker dies or hangs (cells are pure functions of their
arguments, so re-running is always safe and the retried results are
bit-identical).  :class:`StreamHandoff` publishes prepared fetch-span
streams to fork-based workers, which read the parent's arrays
copy-on-write, and withdraws them however the fan-out exits.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from repro import obs
from repro.errors import ParallelError
from repro.harness.parallel import parallel_map

T = TypeVar("T")
R = TypeVar("R")

LOGGER = logging.getLogger("repro.pipeline")

#: Streams published to fork-based pool workers, keyed by caller-chosen
#: names.  Workers inherit this module global over ``fork`` and read it
#: with :meth:`StreamHandoff.get`.
_HANDOFF: Dict[str, Any] = {}


def resilient_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    chunksize: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.25,
    _sleep: Callable[[float], None] = time.sleep,
) -> List[R]:
    """Order-preserving map that retries crashed or hung fan-outs.

    Semantics match :func:`~repro.harness.parallel.parallel_map`
    (results in input order, bit-identical to serial), plus: when the
    map raises :class:`~repro.errors.ParallelError` — a worker was
    killed mid-task or the hard ``timeout`` expired — the whole map is
    re-run up to ``retries`` more times, sleeping
    ``backoff * 2**attempt`` seconds before each retry.  ``fn`` must
    therefore be pure (every sweep cell already is).  The final
    failure is re-raised unchanged.
    """
    work = list(items)
    attempt = 0
    while True:
        try:
            return parallel_map(
                fn, work, jobs=jobs, chunksize=chunksize, timeout=timeout
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


class StreamHandoff:
    """Publishes prepared streams to fork-based workers for one fan-out.

    Use as a context manager around :func:`resilient_map`::

        with StreamHandoff({combo: exp.streams(combo)}) as handoff:
            results = resilient_map(_cell, cells, jobs=jobs)

    Workers (which inherit the parent's memory over ``fork``) read the
    published collections with ``StreamHandoff.get(key)``; the parent
    withdraws them on exit.
    """

    def __init__(self, streams: Dict[str, Any]) -> None:
        self._streams = streams

    def __enter__(self) -> "StreamHandoff":
        _HANDOFF.clear()
        _HANDOFF.update(
            (key, list(collection)) for key, collection in self._streams.items()
        )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _HANDOFF.clear()

    @staticmethod
    def get(key: str) -> Any:
        """The published collection for ``key`` (worker-side accessor)."""
        return _HANDOFF[key]
