"""Fault injection against the layout client (ISSUE satellite).

Every scenario drives a real :class:`LayoutClient` into a misbehaving
peer — dropped connections, a server that never answers (timeout), a
server that answers garbage (malformed frames) — and asserts the
resilience policy: retries happen (``serve.retries`` moves), the
last-known-good fallback is served, and the circuit breaker walks
open -> half-open -> closed (``serve.breaker_state`` moves).
"""

import socket
import threading
import time

import pytest

from repro import obs
from repro.errors import ServeError
from repro.serve.client import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    SOURCE_FALLBACK,
    ClientConfig,
    LayoutClient,
)
from repro.serve.protocol import LayoutRequest
from repro.serve.server import ServerConfig, ServerThread


def counter_value(name):
    payload = obs.registry().snapshot().get(name)
    return payload["value"] if payload else 0


def series_points(name):
    payload = obs.registry().snapshot().get(name)
    return len(payload.get("points", [])) if payload else 0


class FaultyServer:
    """A TCP listener with a pluggable per-connection fault."""

    def __init__(self, handler):
        self.handler = handler
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.address = self.listener.getsockname()
        self.connections = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            try:
                self.handler(conn)
            except Exception:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        self._stop.set()
        self.listener.close()
        self._thread.join(timeout=5)


@pytest.fixture()
def warm_client(serve_env, tmp_path):
    """A client that already served one layout from a live server.

    Yields ``(client, profile, expected_document)``; the server is shut
    down before the test body runs, so the client holds a last-known-
    good layout and nothing else.
    """
    binary, (profile, _) = serve_env
    handle = ServerThread.start(
        binary, store=None, config=ServerConfig(workers=0)
    )
    client = LayoutClient(
        handle.address,
        ClientConfig(
            timeout_s=0.5,
            max_attempts=2,
            backoff_s=0.01,
            backoff_max_s=0.05,
            breaker_threshold=3,
            breaker_cooldown_s=0.2,
        ),
        name="fault-client",
    )
    response = client.fetch_layout(profile, "all")
    assert response.ok and response.source != SOURCE_FALLBACK
    handle.stop()
    yield client, profile, response.layout


class TestDroppedConnections:
    def test_fallback_after_connection_drops(self, warm_client):
        client, profile, expected = warm_client
        dropper = FaultyServer(lambda conn: conn.close())
        client.address = dropper.address
        retries_before = counter_value("serve.retries")
        fallbacks_before = counter_value("serve.fallbacks")
        try:
            response = client.fetch_layout(profile, "all")
        finally:
            dropper.close()
        assert response.ok
        assert response.source == SOURCE_FALLBACK
        assert response.layout == expected
        assert dropper.connections >= 2  # both attempts hit the wire
        assert counter_value("serve.retries") > retries_before
        assert counter_value("serve.fallbacks") == fallbacks_before + 1

    def test_refused_connection_falls_back(self, warm_client):
        client, profile, expected = warm_client
        # The warm server is stopped; its port now refuses connections.
        response = client.fetch_layout(profile, "all")
        assert response.source == SOURCE_FALLBACK
        assert response.layout == expected

    def test_cold_client_surfaces_serve_error(self, serve_env):
        _, (profile, _) = serve_env
        errors_before = counter_value("serve.client_errors")
        client = LayoutClient(
            ("127.0.0.1", 1),  # nothing listens here
            ClientConfig(timeout_s=0.2, max_attempts=1),
        )
        with pytest.raises(ServeError, match="no last-known-good"):
            client.fetch_layout(profile, "all")
        assert counter_value("serve.client_errors") > errors_before


class TestSlowServer:
    def test_timeout_retries_then_falls_back(self, warm_client):
        client, profile, expected = warm_client

        def sleepy(conn):
            # Accept, read the request, never answer.
            time.sleep(1.2)

        slow = FaultyServer(sleepy)
        client.address = slow.address
        retries_before = counter_value("serve.retries")
        started = time.monotonic()
        try:
            response = client.fetch_layout(profile, "all")
        finally:
            slow.close()
        elapsed = time.monotonic() - started
        assert response.source == SOURCE_FALLBACK
        assert response.layout == expected
        # Two attempts, each bounded by the 0.5 s socket deadline.
        assert elapsed < 5.0
        assert counter_value("serve.retries") > retries_before


class TestMalformedResponses:
    def test_garbage_reply_falls_back(self, warm_client):
        client, profile, expected = warm_client

        def garbage(conn):
            conn.makefile("rb").read(4)  # let the request start
            conn.sendall(b"\xde\xad\xbe\xef not a frame at all")

        faulty = FaultyServer(garbage)
        client.address = faulty.address
        try:
            response = client.fetch_layout(profile, "all")
        finally:
            faulty.close()
        assert response.source == SOURCE_FALLBACK
        assert response.layout == expected

    def test_truncated_reply_falls_back(self, warm_client):
        client, profile, expected = warm_client

        def truncating(conn):
            # A plausible frame header, then the connection dies.
            conn.sendall(b"\x00\x00\x01\x00{\"v\":1")

        faulty = FaultyServer(truncating)
        client.address = faulty.address
        try:
            response = client.fetch_layout(profile, "all")
        finally:
            faulty.close()
        assert response.source == SOURCE_FALLBACK
        assert response.layout == expected


class TestCircuitBreaker:
    def test_open_half_open_closed_cycle(self, serve_env, warm_client):
        client, profile, expected = warm_client
        binary, _ = serve_env
        trips_before = counter_value("serve.breaker_trips")
        points_before = series_points("serve.breaker_state")

        # breaker_threshold=3, max_attempts=2: the first fetch records
        # two consecutive failures, the second fetch's first failure
        # opens the breaker mid-call.
        assert client.fetch_layout(profile, "all").source == SOURCE_FALLBACK
        assert client.breaker.state == BREAKER_CLOSED
        assert client.fetch_layout(profile, "all").source == SOURCE_FALLBACK
        assert client.breaker.state == BREAKER_OPEN
        assert client.breaker.trips == 1
        assert counter_value("serve.breaker_trips") == trips_before + 1
        assert series_points("serve.breaker_state") > points_before

        # While open: fail fast (no socket work) but still degrade to
        # the fallback layout.
        response = client.fetch_layout(profile, "all")
        assert response.source == SOURCE_FALLBACK
        assert client.breaker.state == BREAKER_OPEN

        # A failed half-open probe reopens immediately (one strike).
        time.sleep(client.config.breaker_cooldown_s + 0.05)
        assert client.fetch_layout(profile, "all").source == SOURCE_FALLBACK
        assert client.breaker.state == BREAKER_OPEN
        assert client.breaker.trips == 2

        # After the cooldown a healthy server closes it via the
        # half-open probe.
        handle = ServerThread.start(
            binary, store=None, config=ServerConfig(workers=0)
        )
        try:
            client.address = handle.address
            client._submitted.clear()  # re-submit to the fresh server
            time.sleep(client.config.breaker_cooldown_s + 0.05)
            response = client.fetch_layout(profile, "all")
            assert response.ok and response.source != SOURCE_FALLBACK
            assert client.breaker.state == BREAKER_CLOSED
            assert client.breaker.failures == 0
        finally:
            handle.stop()

    def test_open_breaker_raises_for_cold_requests(self, warm_client):
        client, profile, _ = warm_client
        client.breaker.record_failure()
        client.breaker.record_failure()
        client.breaker.record_failure()
        assert client.breaker.state == BREAKER_OPEN
        with pytest.raises(ServeError, match="circuit breaker open"):
            client._call(LayoutRequest("unseen-fingerprint", "all"))


class TestFallbackForDriftedProfiles:
    def test_latest_good_serves_unseen_fingerprint(self, serve_env, warm_client):
        client, profile, expected = warm_client
        binary, (_, other_profile) = serve_env
        assert other_profile.fingerprint() != profile.fingerprint()
        # The service is down and this exact profile was never served,
        # but the client still runs on the freshest layout it has.
        response = client.fetch_layout(other_profile, "all")
        assert response.source == SOURCE_FALLBACK
        assert response.layout == expected
