"""The layout-optimization service: an asyncio server over the protocol.

Production semantics on top of the offline optimizer:

* **Admission control** — at most ``queue_limit`` optimizations are
  in flight; a request that would exceed it gets an explicit
  ``REJECTED`` response immediately (clients retry with backoff)
  instead of piling onto an unbounded queue.
* **Single-flight coalescing** — concurrent requests for the same
  ``(profile fingerprint, combo)`` share one optimization: the first
  request runs it, the rest await its future and are counted in
  ``serve.coalesced``.
* **Worker pool** — optimizations run off the event loop: in forked
  ``ProcessPoolExecutor`` workers (``workers >= 1`` on fork-capable
  platforms, the production shape) or an in-process thread pool
  (``workers = 0``, the test/embedded shape).
* **Swap gate** — every layout leaving the server (freshly built *or*
  loaded from the disk tier) must pass the ``repro.check`` integrity
  gate; failures bump ``serve.gate_rejected`` and return an error
  response rather than a corrupt layout.

State is per-binary: the server optimizes exactly one binary and
refuses profiles submitted for any other.  All activity lands in
``serve.*`` spans, counters and series (:mod:`repro.obs`).
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.check import gate_layout
from repro.errors import LayoutError, ProtocolError, ServeError
from repro.harness.store import (
    ArtifactStore,
    layout_from_dict,
    layout_to_dict,
)
from repro.ir import Binary
from repro.layout import Combo, SpikeOptimizer
from repro.pipeline.fanout import fork_available, install_shared, shared_state
from repro.serve.cache import DEFAULT_MEMORY_ENTRIES, LayoutCache
from repro.serve.protocol import (
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    LayoutRequest,
    LayoutResponse,
    ProfileSubmit,
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

def _optimize_task(
    submit: Optional[ProfileSubmit], combo: str, enqueued_at: float
) -> Dict:
    """One optimization, executed inside a worker.

    ``submit=None`` optimizes against the static profile synthesized
    from the binary's CFG structure (the cold-start fallback).  Returns
    ``{"layout": <layout document>, "queue_wait_ms": ...}``.  The queue
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
        "layout": layout_to_dict(SpikeOptimizer(binary, profile).layout(combo)),
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
            store, memory_entries=self.config.cache_entries
        )
        self._profiles: "OrderedDict[str, ProfileSubmit]" = OrderedDict()
        self._inflight: Dict[Tuple[str, str], "asyncio.Future"] = {}
        #: combo -> gated static-fallback layout document (cold start).
        self._static_documents: Dict[str, Dict] = {}
        self._static_inflight: Dict[str, "asyncio.Future"] = {}
        self._pending = 0
        self._executor: Optional[Executor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: List[asyncio.StreamWriter] = []
        self._started_at = time.time()
        self._queue_waits_ms: List[float] = []
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
        try:
            combo = Combo.parse(request.combo).value
        except LayoutError as exc:
            return LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=request.fingerprint,
                combo=request.combo,
                error=str(exc),
            )
        key = (request.fingerprint, combo)

        document, tier = self.cache.get(request.fingerprint, combo)
        if document is not None and tier == "disk":
            # Memory-tier entries were gated on insert; the disk tier
            # may hold artifacts written by other processes, so they
            # pass the gate on their way out.
            if not self._gate_ok(document):
                document = None
        if document is not None:
            return LayoutResponse(
                status=STATUS_OK,
                fingerprint=request.fingerprint,
                combo=combo,
                source=tier,
                layout=document,
            )

        inflight = self._inflight.get(key)
        if inflight is not None:
            obs.counter("serve.coalesced").inc()
            template = await asyncio.shield(inflight)
            response = LayoutResponse(**vars(template))
            if response.status == STATUS_OK:
                response.source = SOURCE_COALESCED
            return response

        submit = self._profiles.get(request.fingerprint)
        if submit is None:
            if self.config.static_fallback:
                return await self._serve_static(request, combo)
            return LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=request.fingerprint,
                combo=combo,
                error=(
                    f"unknown profile fingerprint {request.fingerprint!r}; "
                    "send profile_submit first"
                ),
            )

        if self._pending >= self.config.queue_limit:
            obs.counter("serve.rejected").inc()
            return LayoutResponse(
                status=STATUS_REJECTED,
                fingerprint=request.fingerprint,
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
            response = await self._optimize(submit, combo)
        except Exception as exc:  # belt and braces: never strand waiters
            obs.counter("serve.optimize_errors").inc()
            response = LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=request.fingerprint,
                combo=combo,
                error=f"internal error: {exc}",
            )
        finally:
            self._pending -= 1
            self._inflight.pop(key, None)
        if not future.done():
            future.set_result(response)
        return response

    async def _optimize(
        self, submit: ProfileSubmit, combo: str
    ) -> LayoutResponse:
        loop = asyncio.get_event_loop()
        enqueued = time.time()
        try:
            with obs.span("serve.optimize", combo=combo):
                outcome = await loop.run_in_executor(
                    self._executor, _optimize_task, submit, combo, enqueued
                )
        except Exception as exc:  # worker died, layout error, ...
            obs.counter("serve.optimize_errors").inc()
            return LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=submit.fingerprint,
                combo=combo,
                error=f"optimization failed: {exc}",
            )
        document = outcome["layout"]
        wait_ms = float(outcome["queue_wait_ms"])
        self._queue_waits_ms.append(wait_ms)
        obs.histogram("serve.queue_wait_ms").record(wait_ms)
        obs.counter("serve.optimizations").inc()
        if not self._gate_ok(document):
            return LayoutResponse(
                status=STATUS_ERROR,
                fingerprint=submit.fingerprint,
                combo=combo,
                error="built layout failed the repro.check integrity gate",
                queue_wait_ms=wait_ms,
            )
        self.cache.put(submit.fingerprint, combo, document)
        return LayoutResponse(
            status=STATUS_OK,
            fingerprint=submit.fingerprint,
            combo=combo,
            source=SOURCE_BUILT,
            layout=document,
            queue_wait_ms=wait_ms,
        )

    async def _serve_static(
        self, request: LayoutRequest, combo: str
    ) -> LayoutResponse:
        """Cold start: the fingerprint is unknown, so serve a layout
        built from the static profile synthesized off the binary's CFG
        (:mod:`repro.staticpred`) -- gated like any other layout --
        instead of turning the client away empty-handed.

        One build per combo, coalesced and cached for the lifetime of
        the server (static synthesis is deterministic per binary).
        """
        document = self._static_documents.get(combo)
        if document is None:
            inflight = self._static_inflight.get(combo)
            if inflight is None:
                loop = asyncio.get_event_loop()
                inflight = loop.run_in_executor(
                    self._executor, _optimize_task, None, combo, time.time()
                )
                self._static_inflight[combo] = inflight
            else:
                obs.counter("serve.coalesced").inc()
            try:
                with obs.span("serve.static_optimize", combo=combo):
                    document = (await asyncio.shield(inflight))["layout"]
            except Exception as exc:
                obs.counter("serve.optimize_errors").inc()
                return LayoutResponse(
                    status=STATUS_ERROR,
                    fingerprint=request.fingerprint,
                    combo=combo,
                    error=f"static fallback failed: {exc}",
                )
            finally:
                self._static_inflight.pop(combo, None)
            if not self._gate_ok(document):
                return LayoutResponse(
                    status=STATUS_ERROR,
                    fingerprint=request.fingerprint,
                    combo=combo,
                    error=(
                        "static fallback layout failed the repro.check "
                        "integrity gate"
                    ),
                )
            self._static_documents[combo] = document
        obs.counter("serve.static_served").inc()
        return LayoutResponse(
            status=STATUS_OK,
            fingerprint=request.fingerprint,
            combo=combo,
            source=SOURCE_STATIC,
            layout=document,
        )

    def _gate_ok(self, document: Dict) -> bool:
        """The :func:`~repro.check.gate_layout` swap gate over one
        layout document."""
        with obs.span("serve.gate"):
            try:
                report = gate_layout(
                    self.binary, layout_from_dict(document), target="serve"
                )
            except Exception:
                report = None
        if report is not None and report.ok:
            return True
        obs.counter("serve.gate_rejected").inc()
        return False

    def _handle_health(self) -> HealthResponse:
        counters = {
            name: payload["value"]
            for name, payload in obs.registry().snapshot().items()
            if name.startswith("serve.") and payload.get("kind") == "counter"
        }
        return HealthResponse(
            status="ok",
            uptime_s=max(0.0, time.time() - self._started_at),
            inflight=self._pending,
            profiles=len(self._profiles),
            counters=counters,
        )

    # -- introspection ----------------------------------------------------

    def queue_wait_p95_ms(self) -> float:
        """The 95th-percentile optimization queue wait so far (ms)."""
        waits = sorted(self._queue_waits_ms)
        if not waits:
            return 0.0
        index = min(len(waits) - 1, int(0.95 * (len(waits) - 1) + 0.5))
        return waits[index]


class ServerThread:
    """Host a :class:`LayoutServer` on a background event loop.

    The in-process deployment shape used by the fleet driver and the
    tests: ``start()`` returns once the server is listening; ``stop()``
    shuts it down gracefully; ``kill()`` tears the listening socket and
    every open connection down abruptly — the degraded-mode scenario.
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

    def _shutdown(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, close, join the thread."""
        self._shutdown()

    def kill(self) -> None:
        """Abrupt death: connections drop mid-conversation.

        From the clients' point of view this is a crashed server —
        exactly what the degraded-mode fleet scenario exercises.
        """
        self._shutdown()
