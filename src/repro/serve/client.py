"""The fleet-side layout client: retries, circuit breaking, fallback.

A client node cannot let layout service hiccups take down transaction
processing, so every failure mode degrades instead of propagating:

* **Timeouts** — every request carries a socket deadline.
* **Retries** — transient failures (refused/dropped connections,
  timeouts, REJECTED admission-control responses) retry with
  exponential backoff plus deterministic jitter (seeded per client,
  so a thundering herd decorrelates but tests reproduce).
* **Circuit breaker** — after ``breaker_threshold`` consecutive
  failures the breaker opens and requests fail fast (no socket work)
  for ``breaker_cooldown_s``; the first request after the cooldown is
  the half-open probe, and its success closes the breaker again.
* **Last-known-good fallback** — :meth:`LayoutClient.fetch_layout`
  remembers every layout it has served; when the service is
  unreachable it returns the cached document (marked
  ``source="fallback"``) instead of raising.  Only a cold client with
  no fallback surfaces :class:`~repro.errors.ServeError`.

Client behaviour is observable through ``serve.retries``,
``serve.fallbacks``, ``serve.client_errors``, and the
``serve.breaker_state`` series (0 closed, 1 half-open, 2 open).
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    HealthRequest,
    HealthResponse,
    LayoutRequest,
    LayoutResponse,
    ProfileSubmit,
    STATUS_OK,
    STATUS_REJECTED,
    SubmitAck,
    encode_message,
    read_message_sync,
)

#: ``LayoutResponse.source`` value for last-known-good fallbacks.
SOURCE_FALLBACK = "fallback"

#: Circuit-breaker states (the values recorded on serve.breaker_state).
BREAKER_CLOSED = 0
BREAKER_HALF_OPEN = 1
BREAKER_OPEN = 2

_BREAKER_NAMES = {
    BREAKER_CLOSED: "closed",
    BREAKER_HALF_OPEN: "half-open",
    BREAKER_OPEN: "open",
}


@dataclass
class ClientConfig:
    """Resilience knobs of one :class:`LayoutClient`."""

    #: Socket deadline per request attempt (connect + round trip).
    timeout_s: float = 5.0
    #: Attempts per request (1 = no retries).
    max_attempts: int = 3
    #: First retry delay; doubles per attempt.
    backoff_s: float = 0.05
    #: Backoff ceiling.
    backoff_max_s: float = 2.0
    #: Jitter fraction applied to each delay (0.2 = up to +-20%).
    jitter: float = 0.2
    #: Consecutive failures that open the breaker.
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before the half-open probe.
    breaker_cooldown_s: float = 1.0
    #: Seed for the jitter RNG (deterministic per client).
    seed: int = 0


class CircuitBreaker:
    """Consecutive-failure breaker with a time-based half-open probe."""

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = max(1, threshold)
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.state = BREAKER_CLOSED
        self.opened_at = 0.0
        #: closed -> open transitions (also ``serve.breaker_trips``).
        self.trips = 0

    def allow(self) -> bool:
        """May a request go out right now?"""
        if self.state == BREAKER_OPEN:
            if time.monotonic() - self.opened_at >= self.cooldown_s:
                self._transition(BREAKER_HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        """A request completed: reset and close."""
        self.failures = 0
        if self.state != BREAKER_CLOSED:
            self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        """A request failed: count, and open past the threshold.

        A half-open probe failing re-opens immediately (one strike).
        """
        self.failures += 1
        if self.state == BREAKER_HALF_OPEN or (
            self.state == BREAKER_CLOSED and self.failures >= self.threshold
        ):
            self.opened_at = time.monotonic()
            if self.state != BREAKER_OPEN:
                self.trips += 1
                obs.counter("serve.breaker_trips").inc()
            self._transition(BREAKER_OPEN)

    @property
    def state_name(self) -> str:
        """``"closed"``, ``"half-open"``, or ``"open"``."""
        return _BREAKER_NAMES[self.state]

    def _transition(self, state: int) -> None:
        self.state = state
        obs.series("serve.breaker_state").record(state)


class LayoutClient:
    """One node's connection to the layout service.

    ``address`` is ``(host, port)`` for TCP or a string path for a
    unix socket.  The client is connection-per-request (the protocol
    is strict request/response), synchronous, and safe to drive from
    one thread per client.
    """

    def __init__(
        self,
        address,
        config: Optional[ClientConfig] = None,
        name: str = "client",
    ) -> None:
        self.address = address
        self.config = config or ClientConfig()
        self.name = name
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        self._rng = random.Random(self.config.seed)
        #: (fingerprint, combo) -> last layout document served to us.
        self._last_good: Dict[Tuple[str, str], Dict] = {}
        #: combo -> most recent layout served for *any* profile, so a
        #: degraded client with a never-served (drifted) profile still
        #: has something valid to run — a stale layout beats no layout.
        self._latest_good: Dict[str, Dict] = {}
        self._submitted: set = set()

    # -- public API -------------------------------------------------------

    def submit_profile(self, profile) -> bool:
        """Ship one profile; True when the server accepted it.

        Already-acknowledged fingerprints are skipped locally.  An
        unreachable server is not fatal here — the submission rides
        along with the next successful exchange.
        """
        frame = ProfileSubmit.from_profile(profile)
        if frame.fingerprint in self._submitted:
            return True
        try:
            reply = self._call(frame)
        except ServeError:
            return False
        if isinstance(reply, SubmitAck):
            self._submitted.add(frame.fingerprint)
            return True
        return False

    def fetch_layout(
        self, profile, combo: str = "all"
    ) -> LayoutResponse:
        """The layout for ``profile``, degrading but never crashing.

        Returns an ok :class:`LayoutResponse` from the server when it
        is healthy, or a synthesized ``source="fallback"`` response
        carrying the last layout this client served for the same key
        when it is not.  Raises :class:`~repro.errors.ServeError` only
        when the service is down *and* no fallback exists.
        """
        fingerprint = profile.fingerprint()
        key = (fingerprint, combo)
        try:
            self._ensure_submitted(profile, fingerprint)
            reply = self._call(LayoutRequest(fingerprint, combo))
        except ServeError as exc:
            return self._fall_back(key, exc)
        if isinstance(reply, LayoutResponse) and reply.ok:
            self._last_good[key] = reply.layout
            self._latest_good[combo] = reply.layout
            return reply
        detail = getattr(reply, "error", "") or getattr(
            reply, "message", ""
        ) or f"unexpected reply {type(reply).__name__}"
        return self._fall_back(
            key, ServeError(f"layout request failed: {detail}")
        )

    def health(self) -> HealthResponse:
        """One health probe (no retries beyond the standard policy)."""
        reply = self._call(HealthRequest())
        if not isinstance(reply, HealthResponse):
            raise ServeError(
                f"health probe got {type(reply).__name__} instead of "
                "a health response"
            )
        return reply

    # -- internals --------------------------------------------------------

    def _ensure_submitted(self, profile, fingerprint: str) -> None:
        if fingerprint in self._submitted:
            return
        reply = self._call(ProfileSubmit.from_profile(profile))
        if not isinstance(reply, SubmitAck):
            raise ServeError(
                "profile submission refused: "
                f"{getattr(reply, 'message', None) or reply!r}"
            )
        self._submitted.add(fingerprint)

    def _fall_back(self, key, cause: ServeError) -> LayoutResponse:
        document = self._last_good.get(key)
        if document is None:
            document = self._latest_good.get(key[1])
        if document is None:
            obs.counter("serve.client_errors").inc()
            raise ServeError(
                f"{self.name}: layout service unavailable and no "
                f"last-known-good layout for {key[0]}/{key[1]}: {cause}"
            ) from cause
        obs.counter("serve.fallbacks").inc()
        return LayoutResponse(
            status=STATUS_OK,
            fingerprint=key[0],
            combo=key[1],
            source=SOURCE_FALLBACK,
            layout=document,
        )

    def _call(self, message):
        """One request with the full resilience policy applied.

        Retries transient failures; raises :class:`ServeError` when
        attempts are exhausted or the breaker is open.
        """
        config = self.config
        last_error: Optional[Exception] = None
        for attempt in range(config.max_attempts):
            if not self.breaker.allow():
                obs.counter("serve.client_errors").inc()
                raise ServeError(
                    f"{self.name}: circuit breaker open "
                    f"({self.breaker.failures} consecutive failures); "
                    "failing fast"
                )
            if attempt:
                obs.counter("serve.retries").inc()
                time.sleep(self._delay(attempt))
            try:
                reply = self._exchange(message)
            except (ConnectionError, socket.timeout, OSError, ProtocolError) as exc:
                last_error = exc
                self.breaker.record_failure()
                continue
            if (
                isinstance(reply, LayoutResponse)
                and reply.status == STATUS_REJECTED
            ):
                # Load shedding is server-side backpressure, not a
                # server fault: back off and retry without touching
                # the breaker.
                last_error = ServeError(reply.error or "request rejected")
                continue
            self.breaker.record_success()
            return reply
        obs.counter("serve.client_errors").inc()
        raise ServeError(
            f"{self.name}: request failed after {config.max_attempts} "
            f"attempt(s): {last_error}"
        ) from last_error

    def _delay(self, attempt: int) -> float:
        base = min(
            self.config.backoff_max_s,
            self.config.backoff_s * (2 ** (attempt - 1)),
        )
        jitter = 1.0 + self.config.jitter * (2.0 * self._rng.random() - 1.0)
        return max(0.0, base * jitter)

    def _exchange(self, message):
        """One connect / send / receive cycle with a deadline."""
        with self._connect() as sock:
            sock.sendall(encode_message(message))
            with sock.makefile("rb") as stream:
                reply = read_message_sync(stream)
        if reply is None:
            raise ProtocolError("server closed the connection mid-request")
        return reply

    def _connect(self) -> socket.socket:
        if isinstance(self.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.config.timeout_s)
                sock.connect(self.address)
            except BaseException:
                sock.close()
                raise
            return sock
        host, port = self.address
        return socket.create_connection(
            (host, port), timeout=self.config.timeout_s
        )
