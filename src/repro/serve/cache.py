"""Two-tier layout cache: in-memory LRU over the persistent store.

The server answers most traffic from here.  Tier 1 is a bounded
in-process LRU of served layouts keyed by ``(profile fingerprint,
combo)``, each held as its wire encoding (:func:`encode_layout`) made
once when the layout passed the server's swap gate; tier 2 is the
content-addressed :class:`~repro.harness.store.ArtifactStore` the
offline pipeline already uses (entries named
``serve-layout-<combo>.json`` under the profile fingerprint), so
layouts survive server restarts and are shared by every server on the
same cache directory (:class:`~repro.online.relayout.AdaptiveRelayout`
writes its own ``online-layout-<combo>.json`` entries, which the
server never reads).  A disk entry is decoded against the served
binary -- a document the decode check refuses is a miss -- and is
promoted into memory only after it passes the gate.

Every lookup lands in the ``serve.cache_*`` counters: ``cache_hits``
(memory), ``cache_disk_hits`` (promoted from disk), ``cache_misses``,
and ``cache_evictions``.  Disk-tier writes go through the store's
atomic ``save`` so a torn artifact can never be served.
"""

from __future__ import annotations

import json
import pathlib
import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from repro import obs
from repro.check.layout_checks import decode_layout
from repro.harness.store import ArtifactStore, layout_to_dict, save_layout
from repro.ir import Binary, Layout
from repro.serve.protocol import RawJSON, encode_json

#: Default number of layout documents the memory tier holds.
DEFAULT_MEMORY_ENTRIES = 128


def encode_layout(layout: Layout) -> RawJSON:
    """The wire encoding of one layout's
    :func:`~repro.harness.store.layout_to_dict` document."""
    return encode_json(layout_to_dict(layout))


class LayoutCache:
    """Thread-safe (fingerprint, combo) -> served-layout cache.

    Memory-tier values are :func:`encode_layout` bytes of layouts that
    passed the swap gate -- exactly what goes on the wire -- so a hit
    serves with zero conversion work.
    """

    def __init__(
        self,
        binary: Binary,
        store: Optional[ArtifactStore] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.binary = binary
        self.store = store
        self.memory_entries = max(1, memory_entries)
        self._memory: "OrderedDict[Tuple[str, str], RawJSON]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def _artifact(combo: str) -> str:
        return f"serve-layout-{combo}.json"

    def get(
        self, fingerprint: str, combo: str, gate: Callable[[Layout], bool]
    ) -> Tuple[Optional[RawJSON], str]:
        """Look one layout up; returns ``(encoded document, tier)``.

        ``tier`` is ``"memory"``, ``"disk"``, or ``""`` on a miss.  A
        disk entry is served and promoted into the memory tier only when
        ``gate`` passes it (the disk tier may hold artifacts written by
        other processes); a rejected entry is a miss.
        """
        key = (fingerprint, combo)
        with self._lock:
            encoded = self._memory.get(key)
            if encoded is not None:
                self._memory.move_to_end(key)
                obs.counter("serve.cache_hits").inc()
                return encoded, "memory"
        if self.store is not None:
            layout = self.store.load(fingerprint, self._artifact(combo), self._decode)
            if layout is not None and gate(layout):
                encoded = encode_layout(layout)
                self._insert(key, encoded)
                obs.counter("serve.cache_disk_hits").inc()
                return encoded, "disk"
        obs.counter("serve.cache_misses").inc()
        return None, ""

    def _decode(self, path: pathlib.Path) -> Optional[Layout]:
        """A disk entry, or None when the decode check refuses it."""
        return decode_layout(self.binary, json.loads(path.read_text()))[0]

    def put(self, fingerprint: str, combo: str, layout: Layout) -> RawJSON:
        """Install one finished (already gated) layout; returns its
        wire encoding.

        The memory tier is updated synchronously; the disk tier write
        is atomic and best-effort (a read-only store degrades to
        memory-only caching).
        """
        encoded = encode_layout(layout)
        self._insert((fingerprint, combo), encoded)
        if self.store is not None:
            self.store.save(
                fingerprint, self._artifact(combo), layout, save_layout
            )
        return encoded

    def _insert(self, key: Tuple[str, str], encoded: RawJSON) -> None:
        with self._lock:
            self._memory[key] = encoded
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                obs.counter("serve.cache_evictions").inc()

    def __len__(self) -> int:
        return len(self._memory)
