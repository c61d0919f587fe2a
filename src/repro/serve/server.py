"""The layout-optimization service: an asyncio server over the protocol.

Production semantics on top of the offline optimizer:

* **Admission control** — at most ``queue_limit`` optimizations are
  in flight; a request that would exceed it gets an explicit
  ``REJECTED`` response immediately (clients retry with backoff)
  instead of piling onto an unbounded queue.
* **Single-flight coalescing** — concurrent requests for the same
  ``(profile fingerprint, combo)`` share one optimization: the first
  request runs it, the rest await its future and are counted in
  ``serve.coalesced``.  The static cold-start layout takes the same
  path under the key ``(SOURCE_STATIC, combo)``.
* **Worker pool** — optimizations run off the event loop: in forked
  ``ProcessPoolExecutor`` workers (``workers >= 1`` on fork-capable
  platforms, the production shape) or an in-process thread pool
  (``workers = 0``, the test/embedded shape).
* **Swap gate** — every layout entering the server (freshly built,
  statically synthesized, *or* loaded from the disk tier) must pass
  the ``repro.check`` integrity gate before it is encoded, cached or
  served; failures bump ``serve.gate_rejected`` and return an error
  response rather than a corrupt layout.
* **Encode once** — a layout that passes the gate is encoded to its
  wire bytes once (:func:`~repro.serve.cache.encode_layout`); every
  answer for it splices those bytes into the response frame.

State is per-binary: the server optimizes exactly one binary and
refuses profiles submitted for any other.  All activity lands in
``serve.*`` spans, counters and series (:mod:`repro.obs`).
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.check import check_all
from repro.errors import LayoutError, ProtocolError, ServeError
from repro.harness.store import ArtifactStore
from repro.ir import Binary, Layout
from repro.layout import Combo, SpikeOptimizer
from repro.pipeline.fanout import fork_available, install_shared, shared_state
from repro.serve.cache import (
    DEFAULT_MEMORY_ENTRIES,
    LayoutCache,
    encode_layout,
)
from repro.serve.protocol import (
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    LayoutRequest,
    LayoutResponse,
    ProfileSubmit,
    RawJSON,
    SOURCE_BUILT,
    SOURCE_COALESCED,
    SOURCE_STATIC,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    SubmitAck,
    encode_message,
    read_message,
)
from repro.staticpred import synthesize_profile

#: Builds whose queue waits :meth:`LayoutServer.queue_wait_p95_ms`
#: reads: the most recent ones, so a long-running server holds a
#: bounded window (the ``serve.queue_wait_ms`` histogram keeps the
#: lifetime summary).
QUEUE_WAIT_WINDOW = 1024


def serve_counters() -> Dict[str, int]:
    """Current value of every ``serve.*`` counter in this process."""
    return {
        name: payload["value"]
        for name, payload in obs.registry().snapshot().items()
        if name.startswith("serve.") and payload.get("kind") == "counter"
    }


def _optimize_task(
    submit: Optional[ProfileSubmit], combo: str, enqueued_at: float
) -> Dict:
    """One optimization, executed inside a worker.

    ``submit=None`` optimizes against the static profile synthesized
    from the binary's CFG structure (the cold-start fallback).  Returns
    ``{"layout": <Layout>, "queue_wait_ms": ...}``.  The queue
    wait is measured from admission to worker start, so a saturated
    pool shows up in the ``serve.queue_wait_ms`` histogram.  The
    binary is the executor's shared state (see ``_make_executor``).
    """
    started = time.time()
    binary = shared_state()
    if binary is None:
        raise ServeError("optimization worker has no binary configured")
    profile = (
        synthesize_profile(binary) if submit is None
        else submit.to_profile(binary)
    )
    return {
        "layout": SpikeOptimizer(binary, profile).layout(combo),
        "queue_wait_ms": max(0.0, (started - enqueued_at) * 1000.0),
    }


@dataclass
class ServerConfig:
    """Operational knobs of one :class:`LayoutServer`."""

    #: TCP bind host (ignored when ``unix_path`` is set).
    host: str = "127.0.0.1"
    #: TCP bind port; 0 asks the OS for an ephemeral port.
    port: int = 0
    #: Bind a unix domain socket here instead of TCP.
    unix_path: Optional[str] = None
    #: Maximum optimizations in flight before requests are REJECTED.
    queue_limit: int = 8
    #: Optimization worker processes; 0 runs a thread pool in-process.
    workers: int = 0
    #: Memory-tier capacity of the layout cache.
    cache_entries: int = DEFAULT_MEMORY_ENTRIES
    #: Distinct submitted profiles kept (LRU beyond this).
    max_profiles: int = 256
    #: Answer requests for unknown profile fingerprints with a layout
    #: built from a statically synthesized profile (cold start) instead
    #: of an error telling the client to submit a profile first.
    static_fallback: bool = True


class LayoutServer:
    """One layout-optimization service instance for one binary."""

    def __init__(
        self,
        binary: Binary,
        *,
        store: Optional[ArtifactStore] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.binary = binary
        self.config = config or ServerConfig()
        self.cache = LayoutCache(
            binary, store, memory_entries=self.config.cache_entries
        )
        self._profiles: "OrderedDict[str, ProfileSubmit]" = OrderedDict()
        self._inflight: Dict[Tuple[str, str], "asyncio.Future"] = {}
        #: combo -> encoded, gated static-fallback layout (cold start).
        self._static_documents: Dict[str, RawJSON] = {}
        self._pending = 0
        self._executor: Optional[Executor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: List[asyncio.StreamWriter] = []
        self._started_at = time.time()
        self._queue_waits_ms: "deque[float]" = deque(
            maxlen=QUEUE_WAIT_WINDOW
        )
        #: (host, port) or the unix path once the server is listening.
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle --------------------------------------------------------

    def _make_executor(self) -> Executor:
        """The optimization pool; every worker (thread or forked
        process) starts with this server's binary as its shared state,
        inherited over ``fork`` without pickling."""
        handoff = dict(initializer=install_shared, initargs=(self.binary,))
        if self.config.workers >= 1 and fork_available():
            import multiprocessing

            return ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("fork"),
                **handoff,
            )
        return ThreadPoolExecutor(
            max_workers=max(1, self.config.workers or 1),
            thread_name_prefix="serve-opt",
            **handoff,
        )

    async def start(self) -> "LayoutServer":
        """Bind and start accepting connections; returns self."""
        self._executor = self._make_executor()
        self._started_at = time.time()
        if self.config.unix_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path
            )
            self.address = self.config.unix_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        return self

    async def stop(self) -> None:
        """Stop accepting, drop open connections, shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        self._writers.clear()
        for future in list(self._inflight.values()):
            if not future.done():
                future.cancel()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.append(writer)
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    obs.counter("serve.protocol_errors").inc()
                    writer.write(encode_message(ErrorResponse(str(exc))))
                    await writer.drain()
                    break
                if message is None:
                    break
                response = await self._dispatch(message)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if writer in self._writers:
                self._writers.remove(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, message):
        with obs.span("serve.request", type=message.TYPE):
            if isinstance(message, ProfileSubmit):
                return self._handle_submit(message)
            if isinstance(message, LayoutRequest):
                return await self._handle_layout(message)
            if isinstance(message, HealthRequest):
                return self._handle_health()
            obs.counter("serve.protocol_errors").inc()
            return ErrorResponse(
                f"unexpected message type {message.TYPE!r} "
                "(server accepts profile_submit/layout_request/health)"
            )

    # -- request handlers -------------------------------------------------

    def _handle_submit(self, submit: ProfileSubmit):
        obs.counter("serve.submissions").inc()
        if submit.fingerprint in self._profiles:
            self._profiles.move_to_end(submit.fingerprint)
            return SubmitAck(fingerprint=submit.fingerprint, known=True)
        try:
            profile = submit.to_profile(self.binary)
        except ProtocolError as exc:
            obs.counter("serve.bad_submissions").inc()
            return ErrorResponse(str(exc))
        actual = profile.fingerprint()
        if actual != submit.fingerprint:
            obs.counter("serve.bad_submissions").inc()
            return ErrorResponse(
                f"submitted fingerprint {submit.fingerprint!r} does not "
                f"match profile content ({actual!r})"
            )
        self._profiles[submit.fingerprint] = submit
        while len(self._profiles) > self.config.max_profiles:
            self._profiles.popitem(last=False)
        return SubmitAck(fingerprint=submit.fingerprint, known=False)

    async def _handle_layout(self, request: LayoutRequest) -> LayoutResponse:
        obs.counter("serve.requests").inc()
        fingerprint = request.fingerprint
        try:
            combo = Combo.parse(request.combo).value
        except LayoutError as exc:
            return LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=fingerprint,
                combo=request.combo,
                error=str(exc),
            )

        document, tier = self.cache.get(fingerprint, combo, self._gate_ok)
        if document is not None:
            return LayoutResponse(
                status=STATUS_OK,
                fingerprint=fingerprint,
                combo=combo,
                source=tier,
                layout=document,
            )

        key = (fingerprint, combo)
        submit = self._profiles.get(fingerprint)
        if submit is None and key not in self._inflight:
            if self.config.static_fallback:
                return await self._serve_static(fingerprint, combo)
            return LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=fingerprint,
                combo=combo,
                error=(
                    f"unknown profile fingerprint {fingerprint!r}; "
                    "send profile_submit first"
                ),
            )
        return await self._single_flight(
            key, submit, functools.partial(self.cache.put, fingerprint, combo)
        )

    async def _serve_static(
        self, fingerprint: str, combo: str
    ) -> LayoutResponse:
        """Cold start: the fingerprint is unknown, so serve a layout
        built from the static profile synthesized off the binary's CFG
        (:mod:`repro.staticpred`) -- gated like any other layout --
        instead of turning the client away empty-handed.

        The build takes the single-flight path under the key
        ``(SOURCE_STATIC, combo)``; its encoding is kept for the
        lifetime of the server (static synthesis is deterministic per
        binary).
        """
        document = self._static_documents.get(combo)
        if document is None:
            built = await self._single_flight(
                (SOURCE_STATIC, combo),
                None,
                lambda layout: self._static_documents.setdefault(
                    combo, encode_layout(layout)
                ),
            )
            if not built.ok:
                return replace(built, fingerprint=fingerprint)
            document = built.layout
        obs.counter("serve.static_served").inc()
        return LayoutResponse(
            status=STATUS_OK,
            fingerprint=fingerprint,
            combo=combo,
            source=SOURCE_STATIC,
            layout=document,
        )

    async def _single_flight(
        self,
        key: Tuple[str, str],
        submit: Optional[ProfileSubmit],
        keep: Callable[[Layout], RawJSON],
    ) -> LayoutResponse:
        """Build the layout for ``key = (fingerprint, combo)`` once,
        however many requests ask for it at the same time.

        The first request passes admission control, optimizes ``submit``
        (the static profile when None) in the pool, gates the layout and
        hands it to ``keep``, which stores it and returns its encoding.
        Requests arriving meanwhile await that response and count in
        ``serve.coalesced``.
        """
        inflight = self._inflight.get(key)
        if inflight is not None:
            obs.counter("serve.coalesced").inc()
            response = LayoutResponse(**vars(await asyncio.shield(inflight)))
            if response.status == STATUS_OK:
                response.source = SOURCE_COALESCED
            return response

        fingerprint, combo = key
        if self._pending >= self.config.queue_limit:
            obs.counter("serve.rejected").inc()
            return LayoutResponse(
                status=STATUS_REJECTED,
                fingerprint=fingerprint,
                combo=combo,
                error=(
                    f"admission control: {self._pending} optimizations in "
                    f"flight (limit {self.config.queue_limit}); retry later"
                ),
            )

        loop = asyncio.get_event_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        self._pending += 1
        obs.series("serve.queue_depth").record(self._pending)
        try:
            with obs.span("serve.optimize", combo=combo):
                outcome = await loop.run_in_executor(
                    self._executor, _optimize_task, submit, combo, time.time()
                )
            layout = outcome["layout"]
            wait_ms = float(outcome["queue_wait_ms"])
            self._queue_waits_ms.append(wait_ms)
            obs.histogram("serve.queue_wait_ms").record(wait_ms)
            obs.counter("serve.optimizations").inc()
            if self._gate_ok(layout):
                response = LayoutResponse(
                    status=STATUS_OK,
                    fingerprint=fingerprint,
                    combo=combo,
                    source=SOURCE_BUILT,
                    layout=keep(layout),
                    queue_wait_ms=wait_ms,
                )
            else:
                response = LayoutResponse(
                    status=STATUS_ERROR,
                    fingerprint=fingerprint,
                    combo=combo,
                    error="built layout failed the repro.check integrity gate",
                    queue_wait_ms=wait_ms,
                )
        except Exception as exc:  # worker died, layout error, ...
            obs.counter("serve.optimize_errors").inc()
            response = LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=fingerprint,
                combo=combo,
                error=f"optimization failed: {exc}",
            )
        finally:
            self._pending -= 1
            self._inflight.pop(key, None)
        if not future.done():
            future.set_result(response)
        return response

    def _gate_ok(self, layout: Layout) -> bool:
        """The :func:`~repro.check.check_all` swap gate over one
        layout."""
        with obs.span("serve.gate"):
            try:
                report = check_all(self.binary, layout=layout, target="serve")
            except Exception:
                report = None
        if report is not None and report.ok:
            return True
        obs.counter("serve.gate_rejected").inc()
        return False

    def _handle_health(self) -> HealthResponse:
        return HealthResponse(
            status="ok",
            uptime_s=max(0.0, time.time() - self._started_at),
            inflight=self._pending,
            profiles=len(self._profiles),
            counters=serve_counters(),
        )

    # -- introspection ----------------------------------------------------

    def queue_wait_p95_ms(self) -> float:
        """The 95th-percentile queue wait (ms) of the latest
        :data:`QUEUE_WAIT_WINDOW` optimizations."""
        waits = sorted(self._queue_waits_ms)
        if not waits:
            return 0.0
        index = min(len(waits) - 1, int(0.95 * (len(waits) - 1) + 0.5))
        return waits[index]


class ServerThread:
    """Host a :class:`LayoutServer` on a background event loop.

    The in-process deployment shape used by the fleet driver and the
    tests: ``start()`` returns once the server is listening; ``stop()``
    shuts it down.
    """

    def __init__(self, server: LayoutServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @classmethod
    def start(
        cls,
        binary: Binary,
        *,
        store: Optional[ArtifactStore] = None,
        config: Optional[ServerConfig] = None,
        timeout: float = 10.0,
    ) -> "ServerThread":
        """Create, start, and wait for a server; returns the handle."""
        handle = cls(LayoutServer(binary, store=store, config=config))
        handle._launch(timeout)
        return handle

    @property
    def address(self):
        """Where the server listens: ``(host, port)`` or a unix path."""
        return self.server.address

    def _launch(self, timeout: float) -> None:
        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # bind failure etc.
                self._startup_error = exc
                self._ready.set()
                loop.close()
                return
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=run, name="layout-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServeError("layout server did not start in time")
        if self._startup_error is not None:
            raise ServeError(
                f"layout server failed to start: {self._startup_error}"
            )

    def stop(self) -> None:
        """Stop the loop and join the thread: the listening socket and
        every open connection close, so clients mid-conversation see a
        dead server (the fleet's degraded scenario)."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
        self._loop = None
        self._thread = None
