"""LayoutServer behaviour: dispatch, coalescing, admission, the gate."""

import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.errors import ServeError
from repro.check import check_all
from repro.harness.store import ArtifactStore, layout_from_dict, layout_to_dict
from repro.layout import SpikeOptimizer
from repro.serve import server as server_module
from repro.serve.client import ClientConfig, LayoutClient
from repro.serve.protocol import (
    SOURCE_BUILT,
    SOURCE_COALESCED,
    SOURCE_MEMORY,
    SOURCE_STATIC,
    STATUS_OK,
    ErrorResponse,
    HealthRequest,
    LayoutRequest,
    LayoutResponse,
    ProfileSubmit,
    encode_message,
    read_message_sync,
)
from repro.serve.server import ServerConfig, ServerThread
from repro.staticpred import synthesize_profile


@pytest.fixture()
def running_server(serve_env, tmp_path):
    binary, _ = serve_env
    handle = ServerThread.start(
        binary,
        store=ArtifactStore(tmp_path / "store"),
        config=ServerConfig(queue_limit=4, workers=0),
    )
    try:
        yield handle
    finally:
        handle.stop()


def make_client(handle, **overrides):
    defaults = dict(timeout_s=10.0, max_attempts=2, backoff_s=0.01)
    defaults.update(overrides)
    return LayoutClient(handle.address, ClientConfig(**defaults))


def counter_value(name):
    payload = obs.registry().snapshot().get(name)
    return payload["value"] if payload else 0


class TestRequestHandling:
    def test_submit_then_fetch_then_cache_hit(self, running_server, serve_env):
        binary, (profile, _) = serve_env
        client = make_client(running_server)
        assert client.submit_profile(profile)
        # Resubmission dedupes client-side; a second client's submission
        # of the same profile dedupes server-side (known=True).
        assert client.submit_profile(profile)

        first = client.fetch_layout(profile, "all")
        assert first.ok and first.source == SOURCE_BUILT
        assert first.layout == layout_to_dict(
            SpikeOptimizer(binary, profile).layout("all")
        )

        second = client.fetch_layout(profile, "all")
        assert second.ok and second.source == SOURCE_MEMORY
        assert second.layout == first.layout

        health = client.health()
        assert health.status == "ok"
        assert health.profiles == 1
        assert health.counters.get("serve.optimizations", 0) >= 1
        assert health.counters.get("serve.cache_hits", 0) >= 1

    def test_unknown_fingerprint_is_an_error(self, serve_env, tmp_path):
        # With the static cold-start fallback disabled, an unknown
        # fingerprint is refused outright (the pre-fallback behaviour).
        binary, (profile, _) = serve_env
        handle = ServerThread.start(
            binary,
            store=None,
            config=ServerConfig(workers=0, static_fallback=False),
        )
        try:
            client = make_client(handle, max_attempts=1)
            reply = client._call(LayoutRequest("not-a-fingerprint", "all"))
            assert isinstance(reply, LayoutResponse)
            assert reply.status == "error"
            assert "unknown profile fingerprint" in reply.error
            # fetch_layout degrades the same error into ServeError when
            # the client holds no fallback: skip the submission so the
            # server has never seen this profile's fingerprint.
            cold = make_client(handle, max_attempts=1)
            cold._submitted.add(profile.fingerprint())
            with pytest.raises(ServeError, match="no\\s+last-known-good"):
                cold.fetch_layout(profile, "all")
        finally:
            handle.stop()

    def test_cold_start_serves_gated_static_layout(
        self, running_server, serve_env
    ):
        # Default config: a layout_request whose fingerprint the server
        # has never seen gets a layout synthesized from static program
        # structure -- gated by repro.check -- instead of an error.
        binary, (profile, _) = serve_env
        client = make_client(running_server, max_attempts=1)
        before = counter_value("serve.static_served")
        reply = client._call(LayoutRequest("never-submitted", "all"))
        assert isinstance(reply, LayoutResponse)
        assert reply.ok
        assert reply.source == SOURCE_STATIC
        assert reply.layout == layout_to_dict(
            SpikeOptimizer(binary, synthesize_profile(binary)).layout("all")
        )
        assert counter_value("serve.static_served") == before + 1
        # The per-combo static document is built once and reused.
        again = client._call(LayoutRequest("also-never-submitted", "all"))
        assert again.ok and again.source == SOURCE_STATIC
        assert again.layout == reply.layout
        assert counter_value("serve.static_served") == before + 2
        # A submitted profile still takes the measured path.
        client.submit_profile(profile)
        measured = client.fetch_layout(profile, "all")
        assert measured.ok and measured.source == SOURCE_BUILT

    def test_bad_combo_is_an_error(self, running_server, serve_env):
        _, (profile, _) = serve_env
        client = make_client(running_server, max_attempts=1)
        client.submit_profile(profile)
        reply = client._call(
            LayoutRequest(profile.fingerprint(), "not-a-combo")
        )
        assert reply.status == "error"
        assert "not-a-combo" in reply.error

    def test_mismatched_fingerprint_refused(self, running_server, serve_env):
        _, (profile, _) = serve_env
        client = make_client(running_server, max_attempts=1)
        submit = ProfileSubmit.from_profile(profile)
        submit.fingerprint = "forged"
        before = counter_value("serve.bad_submissions")
        reply = client._call(submit)
        assert isinstance(reply, ErrorResponse)
        assert "does not match" in reply.message
        assert counter_value("serve.bad_submissions") == before + 1

    @pytest.mark.parametrize("field", ["block_counts", "edges"])
    def test_non_numeric_counts_get_error_response(
        self, running_server, serve_env, field
    ):
        _, (profile, _) = serve_env
        submit = ProfileSubmit.from_profile(profile)
        if field == "block_counts":
            submit.block_counts = ["a"] * len(submit.block_counts)
        else:
            submit.edges = [[0, 1, "many"]]
        before = counter_value("serve.bad_submissions")
        with socket.create_connection(running_server.address, timeout=5) as sock:
            sock.sendall(encode_message(submit))
            with sock.makefile("rb") as stream:
                reply = read_message_sync(stream)
        assert isinstance(reply, ErrorResponse)
        assert "malformed profile counts" in reply.message
        assert counter_value("serve.bad_submissions") == before + 1

    def test_garbage_frame_gets_error_response(self, running_server):
        before = counter_value("serve.protocol_errors")
        with socket.create_connection(running_server.address, timeout=5) as sock:
            sock.sendall(b"\x00\x00\x00\x05junk\n")
            with sock.makefile("rb") as stream:
                reply = read_message_sync(stream)
        assert isinstance(reply, ErrorResponse)
        assert counter_value("serve.protocol_errors") == before + 1

    def test_health_over_raw_socket(self, running_server):
        with socket.create_connection(running_server.address, timeout=5) as sock:
            sock.sendall(encode_message(HealthRequest()))
            with sock.makefile("rb") as stream:
                reply = read_message_sync(stream)
        assert reply.TYPE == "health_response"
        assert reply.uptime_s >= 0.0


class TestCoalescing:
    def test_concurrent_requests_share_one_build(self, running_server, serve_env):
        _, (_, profile) = serve_env
        fan_out = 6
        clients = [
            make_client(running_server, seed=i) for i in range(fan_out)
        ]
        clients[0].submit_profile(profile)
        before_opt = counter_value("serve.optimizations")
        before_coal = counter_value("serve.coalesced")

        barrier = threading.Barrier(fan_out)
        responses = [None] * fan_out

        def fetch(index):
            barrier.wait(timeout=30)
            responses[index] = clients[index].fetch_layout(profile, "all")

        threads = [
            threading.Thread(target=fetch, args=(i,)) for i in range(fan_out)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert all(r is not None and r.ok for r in responses)
        layouts = [json.dumps(r.layout, sort_keys=True) for r in responses]
        assert len(set(layouts)) == 1  # everyone got the same document
        built = counter_value("serve.optimizations") - before_opt
        coalesced = counter_value("serve.coalesced") - before_coal
        assert built == 1
        sources = sorted(r.source for r in responses)
        assert sources.count(SOURCE_COALESCED) == coalesced
        # Every non-leader either coalesced or hit the cache just after.
        assert built + coalesced + sources.count(SOURCE_MEMORY) == fan_out


class TestAdmissionControl:
    def test_queue_limit_rejects_overflow(
        self, serve_env, tmp_path, monkeypatch
    ):
        binary, (profile_a, profile_b) = serve_env
        release = threading.Event()
        original = server_module._optimize_task

        def stalled_optimize(submit, combo, enqueued_at):
            release.wait(timeout=30)
            return original(submit, combo, enqueued_at)

        monkeypatch.setattr(
            server_module, "_optimize_task", stalled_optimize
        )

        handle = ServerThread.start(
            binary,
            store=None,
            config=ServerConfig(queue_limit=1, workers=0),
        )
        try:
            blocker = make_client(handle, max_attempts=1)
            blocker.submit_profile(profile_a)
            rejected_client = make_client(handle, max_attempts=1)
            rejected_client.submit_profile(profile_b)

            before = counter_value("serve.rejected")
            result = [None]
            thread = threading.Thread(
                target=lambda: result.__setitem__(
                    0, blocker.fetch_layout(profile_a, "all")
                )
            )
            thread.start()
            # Wait until the stalled optimization occupies the queue slot.
            deadline = time.monotonic() + 10
            while (
                handle.server._pending < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert handle.server._pending == 1

            reply = rejected_client._call(
                LayoutRequest(profile_b.fingerprint(), "all")
            )
            # _call retries REJECTED; with max_attempts=1 it raises.
            pytest.fail(f"expected ServeError, got {reply!r}")
        except ServeError as exc:
            assert "admission control" in str(exc)
        finally:
            release.set()
            thread.join(timeout=60)
            handle.stop()
        assert counter_value("serve.rejected") > before
        assert result[0] is not None and result[0].ok

    def test_static_cold_start_is_admitted_like_any_build(
        self, serve_env, monkeypatch
    ):
        # The static build shares the single-flight path: a full queue
        # sheds it, and once admitted it counts as an optimization.
        binary, (profile, _) = serve_env
        release = threading.Event()
        original = server_module._optimize_task

        def stalled_optimize(submit, combo, enqueued_at):
            release.wait(timeout=30)
            return original(submit, combo, enqueued_at)

        monkeypatch.setattr(
            server_module, "_optimize_task", stalled_optimize
        )
        handle = ServerThread.start(
            binary, store=None, config=ServerConfig(queue_limit=1, workers=0)
        )
        blocker = make_client(handle, max_attempts=1)
        blocker.submit_profile(profile)
        thread = threading.Thread(
            target=blocker.fetch_layout, args=(profile, "all")
        )
        try:
            thread.start()
            deadline = time.monotonic() + 10
            while handle.server._pending < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.server._pending == 1
            cold = make_client(handle, max_attempts=1)
            with pytest.raises(ServeError, match="admission control"):
                cold._call(LayoutRequest("never-submitted", "all"))
            release.set()
            thread.join(timeout=60)
            before = counter_value("serve.optimizations")
            reply = cold._call(LayoutRequest("never-submitted", "all"))
            assert reply.ok and reply.source == SOURCE_STATIC
            assert counter_value("serve.optimizations") == before + 1
        finally:
            release.set()
            thread.join(timeout=60)
            handle.stop()
        assert not thread.is_alive()

    def test_rejected_is_backpressure_not_a_fault(self):
        # A server that sheds every request exhausts the client's
        # attempts, but backpressure must never trip the breaker.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        stop = threading.Event()
        shed = []

        def shedding_server():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    with conn.makefile("rb") as stream:
                        if read_message_sync(stream) is None:
                            continue
                    shed.append(conn)
                    conn.sendall(
                        encode_message(
                            LayoutResponse(
                                status="rejected",
                                error="admission control: retry later",
                            )
                        )
                    )

        thread = threading.Thread(target=shedding_server, daemon=True)
        thread.start()
        client = LayoutClient(
            listener.getsockname(),
            ClientConfig(
                max_attempts=2, backoff_s=0.01, breaker_threshold=1
            ),
        )
        retries = counter_value("serve.retries")
        try:
            with pytest.raises(ServeError, match="admission control"):
                client._call(LayoutRequest("fp", "all"))
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5)
        assert len(shed) == 2
        assert counter_value("serve.retries") == retries + 1
        assert client.breaker.state_name == "closed"
        assert client.breaker.trips == 0


class TestSwapGate:
    def test_corrupt_disk_entry_is_rebuilt(self, serve_env, tmp_path):
        binary, (profile, _) = serve_env
        store = ArtifactStore(tmp_path / "store")
        handle = ServerThread.start(
            binary, store=store, config=ServerConfig(workers=0)
        )
        try:
            client = make_client(handle)
            client.submit_profile(profile)
            first = client.fetch_layout(profile, "all")
            assert first.ok

            # Corrupt the persisted artifact (drop a block from the
            # first unit) and evict the memory tier so the next request
            # must go through the disk tier and its re-gate.
            path = store.path(
                profile.fingerprint(), "serve-layout-all.json"
            )
            document = json.loads(path.read_text())
            document["units"][0]["block_ids"] = document["units"][0][
                "block_ids"
            ][1:]
            path.write_text(json.dumps(document))
            handle.server.cache._memory.clear()

            before = counter_value("serve.gate_rejected")
            reply = client.fetch_layout(profile, "all")
            assert reply.ok
            assert reply.source == SOURCE_BUILT  # not the corrupt entry
            assert counter_value("serve.gate_rejected") == before + 1
            assert reply.status == STATUS_OK
        finally:
            handle.stop()


    def test_corrupt_disk_entry_is_never_promoted(self, serve_env, tmp_path):
        # A restarted server that does not know the profile finds a
        # corrupt disk entry: it must fail the gate on every request and
        # never reach the memory tier, so both answers are static.
        binary, (profile, _) = serve_env
        store = ArtifactStore(tmp_path / "store")
        handle = ServerThread.start(
            binary, store=store, config=ServerConfig(workers=0)
        )
        try:
            client = make_client(handle)
            client.submit_profile(profile)
            assert client.fetch_layout(profile, "all").ok
        finally:
            handle.stop()
        path = store.path(profile.fingerprint(), "serve-layout-all.json")
        document = json.loads(path.read_text())
        document["units"][0]["block_ids"] = document["units"][0][
            "block_ids"
        ][1:]
        path.write_text(json.dumps(document))

        handle = ServerThread.start(
            binary, store=store, config=ServerConfig(workers=0)
        )
        try:
            client = make_client(handle, max_attempts=1)
            before = counter_value("serve.gate_rejected")
            replies = [
                client._call(LayoutRequest(profile.fingerprint(), "all"))
                for _ in range(2)
            ]
            assert [r.source for r in replies] == [SOURCE_STATIC] * 2
            assert counter_value("serve.gate_rejected") == before + 2
            assert len(handle.server.cache) == 0
            for reply in replies:
                assert check_all(
                    binary, layout=layout_from_dict(reply.layout, binary), target="test"
                ).ok
        finally:
            handle.stop()


class TestPerServerBinary:
    def test_two_servers_build_with_their_own_binaries(self, serve_env):
        """Each server's optimization pool carries its own binary: a
        second server over a different binary must not change what the
        first one builds with."""
        from repro.progen import AppCodeConfig, build_app_program

        binary, (profile, _) = serve_env
        other = build_app_program(
            AppCodeConfig(scale=0.5, filler_routines=14, filler_instructions=2_000)
        ).binary
        assert other.num_blocks != binary.num_blocks
        other_profile = synthesize_profile(other)
        first = ServerThread.start(binary, config=ServerConfig(workers=0))
        try:
            second = ServerThread.start(other, config=ServerConfig(workers=0))
            try:
                reply = make_client(first, max_attempts=1).fetch_layout(
                    profile, "all"
                )
                assert reply.ok, reply
                assert reply.layout == layout_to_dict(
                    SpikeOptimizer(binary, profile).layout("all")
                )
                reply = make_client(second, max_attempts=1).fetch_layout(
                    other_profile, "all"
                )
                assert reply.ok, reply
                assert reply.layout == layout_to_dict(
                    SpikeOptimizer(other, other_profile).layout("all")
                )
            finally:
                second.stop()
        finally:
            first.stop()


class TestQueueWaitWindow:
    def test_p95_reads_only_the_latest_builds(self, serve_env, monkeypatch):
        """The per-server queue-wait record is a bounded window: after
        more builds than it holds, only the latest waits remain and the
        p95 comes from them alone."""
        binary, profiles = serve_env
        waits = [500.0, 400.0, 3.0, 2.0, 1.0]
        scripted = list(waits)
        original = server_module._optimize_task

        def scripted_optimize(submit, combo, enqueued_at):
            outcome = original(submit, combo, enqueued_at)
            outcome["queue_wait_ms"] = scripted.pop(0)
            return outcome

        monkeypatch.setattr(server_module, "QUEUE_WAIT_WINDOW", 3)
        monkeypatch.setattr(
            server_module, "_optimize_task", scripted_optimize
        )
        handle = ServerThread.start(
            binary, store=None, config=ServerConfig(workers=0)
        )
        try:
            client = make_client(handle, max_attempts=1)
            requests = [
                (profile, combo)
                for profile in profiles
                for combo in ("base", "chain", "all")
            ][: len(waits)]
            for profile, combo in requests:
                reply = client.fetch_layout(profile, combo)
                assert reply.ok and reply.source == SOURCE_BUILT, reply
            assert scripted == []
            server = handle.server
            assert list(server._queue_waits_ms) == waits[-3:]
            assert server.queue_wait_p95_ms() == 3.0
        finally:
            handle.stop()
