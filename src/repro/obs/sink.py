"""The JSONL event sink: one observability event per line.

Spans and metric flushes are appended to a single ``.jsonl`` file as
self-contained JSON objects.  The sink must survive the repo's two
concurrency regimes:

* **threads** — a lock serializes encoding + writing;
* **fork-based worker processes** (:func:`repro.pipeline.parallel_map`)
  — the file descriptor is opened with ``O_APPEND`` and every event is
  written with a *single* ``os.write`` call, so lines from different
  processes interleave whole, never intra-line.

Events are plain dicts.  Every event carries ``type`` (``"span"`` or
``"metrics"``), ``pid``, and a wall-clock ``ts`` (Unix seconds); span
events add the timing payload described in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Dict, Iterator, List, Union

PathLike = Union[str, "os.PathLike[str]"]


class JsonlSink:
    """Append-only, thread- and fork-safe JSONL event writer."""

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()
        self._closed = False

    def emit(self, event: Dict) -> None:
        """Append one event as a single JSON line (atomic per line)."""
        if self._closed:
            return
        line = json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            if not self._closed:
                os.write(self._fd, data)

    def close(self) -> None:
        """Close the descriptor; subsequent emits are dropped."""
        with self._lock:
            if not self._closed:
                self._closed = True
                os.close(self._fd)

    def __repr__(self) -> str:
        return f"JsonlSink({str(self.path)!r})"


def read_events(path: PathLike) -> List[Dict]:
    """Load every event from a JSONL trace file, in file order.

    Raises ``ValueError`` on a corrupt (non-JSON) line — the
    concurrency tests rely on this to prove lines never tear.
    """
    return list(iter_events(path))


def iter_events(path: PathLike) -> Iterator[Dict]:
    """Yield events from a JSONL trace file one at a time."""
    with open(str(path), "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{number}: corrupt trace line ({exc})"
                ) from exc
