"""Frame identity: every served layout frames like its plain document.

The server encodes each layout once and splices those bytes into every
answer.  For each source (static, built, coalesced, memory, disk) the
raw frame read off the socket must equal :func:`encode_message` of the
same response carrying the plain :func:`layout_to_dict` document, which
is ``json.dumps`` of the envelope with compact separators.  Unit names
need JSON escaping (quote, backslash) and carry non-ASCII text.
"""

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.harness.store import ArtifactStore, layout_to_dict
from repro.ir import Binary, Procedure, Terminator
from repro.layout import SpikeOptimizer
from repro.profiles.profile import Profile
from repro.serve import server as server_module
from repro.serve.protocol import (
    SOURCE_BUILT,
    SOURCE_COALESCED,
    SOURCE_DISK,
    SOURCE_MEMORY,
    SOURCE_STATIC,
    LayoutRequest,
    LayoutResponse,
    ProfileSubmit,
    SubmitAck,
    decode_body,
    encode_message,
)
from repro.serve.server import ServerConfig, ServerThread
from repro.staticpred import synthesize_profile

CALLEES = ('quote"and\\backslash', "naïve_ünïcode", "日本語/ルーチン")


@pytest.fixture(scope="module")
def escapes_env():
    """A binary whose procedure names need escaping, plus a profile."""
    binary = Binary("escapes")
    main = Procedure("main")
    for i, callee in enumerate(CALLEES):
        after = f"c{i + 1}" if i + 1 < len(CALLEES) else "ret"
        main.add_block(f"c{i}", 3, Terminator.CALL, succs=(after,), call_target=callee)
    main.add_block("ret", 1, Terminator.RETURN)
    binary.add_procedure(main)
    for callee in CALLEES:
        proc = Procedure(callee)
        proc.add_block("e", 4, Terminator.COND_BRANCH, succs=("t", "f"))
        proc.add_block("t", 5, Terminator.RETURN)
        proc.add_block("f", 6, Terminator.RETURN)
        binary.add_procedure(proc)
    binary.seal()
    profile = Profile(binary)
    profile.block_counts = np.array(
        [0 if b.label == "f" else 10 + b.bid for b in binary.blocks()],
        dtype=np.int64,
    )
    for block in binary.blocks():
        if block.label == "e":
            profile.edge_counts[(block.bid, block.bid + 1)] = int(
                profile.block_counts[block.bid]
            )
    return binary, profile


class Connection:
    """One raw socket to the server: frames in, frames out."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.stream = self.sock.makefile("rb")

    def send(self, message):
        self.sock.sendall(encode_message(message))

    def receive(self) -> bytes:
        header = self.stream.read(4)
        (length,) = struct.unpack("!I", header)
        return header + self.stream.read(length)

    def close(self):
        self.stream.close()
        self.sock.close()


def counter_value(name):
    payload = obs.registry().snapshot().get(name)
    return payload["value"] if payload else 0


def wait_for(predicate):
    deadline = time.monotonic() + 30
    while not predicate():
        assert time.monotonic() < deadline, "server did not get there in time"
        time.sleep(0.01)


def assert_plain_frame(frame, source, document):
    """``frame`` is what encoding the plain ``document`` produces."""
    response = decode_body(frame[4:])
    assert response.source == source
    assert response.layout == document
    plain = LayoutResponse(**{**vars(response), "layout": document})
    assert frame == encode_message(plain)
    envelope = {"v": 1, "type": plain.TYPE, "payload": plain.to_wire()}
    body = json.dumps(envelope, separators=(",", ":")).encode("utf-8") + b"\n"
    assert frame[4:] == body
    assert b'\\"and\\\\backslash' in body and b"\\u00ef" in body


def test_every_source_frames_like_the_plain_document(
    escapes_env, tmp_path, monkeypatch
):
    binary, profile = escapes_env
    fingerprint = profile.fingerprint()
    measured = layout_to_dict(SpikeOptimizer(binary, profile).layout("all"))
    static = layout_to_dict(
        SpikeOptimizer(binary, synthesize_profile(binary)).layout("all")
    )
    release = threading.Event()
    release.set()
    original = server_module._optimize_task

    def held_optimize(submit, combo, enqueued_at):
        release.wait(timeout=30)
        return original(submit, combo, enqueued_at)

    monkeypatch.setattr(server_module, "_optimize_task", held_optimize)
    store = ArtifactStore(tmp_path / "store")
    handle = ServerThread.start(binary, store=store, config=ServerConfig(workers=0))
    first, second = Connection(handle.address), Connection(handle.address)
    try:
        first.send(LayoutRequest("never-submitted", "all"))
        assert_plain_frame(first.receive(), SOURCE_STATIC, static)

        first.send(ProfileSubmit.from_profile(profile))
        assert isinstance(decode_body(first.receive()[4:]), SubmitAck)
        # Hold the build so the second request waits on it.
        release.clear()
        coalesced = counter_value("serve.coalesced")
        first.send(LayoutRequest(fingerprint, "all"))
        wait_for(lambda: handle.server._pending == 1)
        second.send(LayoutRequest(fingerprint, "all"))
        wait_for(lambda: counter_value("serve.coalesced") == coalesced + 1)
        release.set()
        assert_plain_frame(first.receive(), SOURCE_BUILT, measured)
        assert_plain_frame(second.receive(), SOURCE_COALESCED, measured)

        first.send(LayoutRequest(fingerprint, "all"))
        assert_plain_frame(first.receive(), SOURCE_MEMORY, measured)
    finally:
        release.set()
        first.close()
        second.close()
        handle.stop()

    # A restarted server answers from the disk tier, then from memory.
    handle = ServerThread.start(binary, store=store, config=ServerConfig(workers=0))
    conn = Connection(handle.address)
    try:
        conn.send(LayoutRequest(fingerprint, "all"))
        assert_plain_frame(conn.receive(), SOURCE_DISK, measured)
        conn.send(LayoutRequest(fingerprint, "all"))
        assert_plain_frame(conn.receive(), SOURCE_MEMORY, measured)
    finally:
        conn.close()
        handle.stop()
