"""Wire-protocol round trips and violation handling for repro.serve."""

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    PROTOCOL_VERSION,
    STATUS_OK,
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    LayoutRequest,
    LayoutResponse,
    ProfileSubmit,
    SubmitAck,
    decode_body,
    encode_json,
    encode_message,
    read_message_sync,
)


def roundtrip(message):
    frame = encode_message(message)
    (length,) = struct.unpack("!I", frame[:4])
    assert length == len(frame) - 4
    assert frame[4:].endswith(b"\n")
    return decode_body(frame[4:])


class TestRoundTrips:
    def test_every_message_type_round_trips(self):
        messages = [
            ProfileSubmit(
                binary="app",
                fingerprint="abc123",
                block_counts=[1, 0, 7],
                edges=[[0, 2, 5]],
            ),
            SubmitAck(fingerprint="abc123", known=True),
            LayoutRequest(fingerprint="abc123", combo="hotcold"),
            LayoutResponse(
                status=STATUS_OK,
                fingerprint="abc123",
                combo="all",
                source="built",
                layout={"name": "l", "alignment": 16, "units": []},
                queue_wait_ms=1.5,
            ),
            HealthRequest(),
            HealthResponse(
                status="ok",
                uptime_s=2.0,
                inflight=1,
                profiles=3,
                counters={"serve.requests": 4},
            ),
            ErrorResponse(message="nope"),
        ]
        assert {m.TYPE for m in messages} == set(MESSAGE_TYPES)
        for message in messages:
            assert roundtrip(message) == message

    def test_frame_is_jsonl(self):
        frame = encode_message(HealthRequest())
        envelope = json.loads(frame[4:].decode())
        assert envelope["v"] == PROTOCOL_VERSION
        assert envelope["type"] == "health"

    def test_layout_response_ok_property(self):
        assert LayoutResponse(status=STATUS_OK, layout={"units": []}).ok
        assert not LayoutResponse(status=STATUS_OK, layout=None).ok
        assert not LayoutResponse(status="error", layout={"units": []}).ok

    def test_layout_request_defaults_combo(self):
        parsed = decode_body(
            json.dumps(
                {
                    "v": PROTOCOL_VERSION,
                    "type": "layout_request",
                    "payload": {"fingerprint": "f"},
                }
            ).encode()
        )
        assert parsed.combo == "all"


class TestViolations:
    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed frame body"):
            decode_body(b"{not json\n")

    def test_non_object_envelope(self):
        with pytest.raises(ProtocolError, match="expected an envelope"):
            decode_body(b"[1,2,3]\n")

    def test_version_mismatch(self):
        body = json.dumps({"v": 99, "type": "health", "payload": {}}).encode()
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_body(body)

    def test_unknown_type(self):
        body = json.dumps(
            {"v": PROTOCOL_VERSION, "type": "surprise", "payload": {}}
        ).encode()
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_body(body)

    def test_malformed_payload(self):
        body = json.dumps(
            {"v": PROTOCOL_VERSION, "type": "profile_submit", "payload": {}}
        ).encode()
        with pytest.raises(ProtocolError, match="malformed"):
            decode_body(body)


class TestSyncReader:
    def test_reads_consecutive_frames_then_clean_eof(self):
        stream = io.BytesIO(
            encode_message(HealthRequest())
            + encode_message(SubmitAck(fingerprint="f", known=False))
        )
        assert isinstance(read_message_sync(stream), HealthRequest)
        assert isinstance(read_message_sync(stream), SubmitAck)
        assert read_message_sync(stream) is None

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="frame bytes"):
            read_message_sync(io.BytesIO(b"\x00\x00"))

    def test_truncated_body(self):
        frame = encode_message(HealthRequest())
        with pytest.raises(ProtocolError, match="connection closed"):
            read_message_sync(io.BytesIO(frame[:-2]))

    def test_zero_length_frame_rejected(self):
        with pytest.raises(ProtocolError, match="invalid frame length"):
            read_message_sync(io.BytesIO(struct.pack("!I", 0) + b"x"))

    def test_oversized_frame_rejected(self):
        header = struct.pack("!I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="invalid frame length"):
            read_message_sync(io.BytesIO(header))


class TestProfileSubmit:
    def test_profile_round_trip(self, serve_env):
        binary, (profile, _) = serve_env
        submit = ProfileSubmit.from_profile(profile)
        assert submit.binary == binary.name
        assert submit.fingerprint == profile.fingerprint()
        rebuilt = roundtrip(submit).to_profile(binary)
        assert rebuilt.fingerprint() == profile.fingerprint()
        assert np.array_equal(rebuilt.block_counts, profile.block_counts)

    def test_wrong_binary_name_refused(self, serve_env):
        _, (profile, _) = serve_env
        submit = ProfileSubmit.from_profile(profile)
        submit.binary = "someone-else"
        binary, _ = serve_env
        with pytest.raises(ProtocolError, match="different binary|server optimizes"):
            submit.to_profile(binary)

    def test_wrong_block_count_refused(self, serve_env):
        binary, (profile, _) = serve_env
        submit = ProfileSubmit.from_profile(profile)
        submit.block_counts = submit.block_counts[:-1]
        with pytest.raises(ProtocolError, match="blocks"):
            submit.to_profile(binary)


texts = st.text(max_size=12)
finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | texts,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=12,
)
documents = st.dictionaries(texts, json_values, max_size=4)

#: One strategy per message type, covering every field.
MESSAGE_STRATEGIES = {
    ProfileSubmit: st.builds(
        ProfileSubmit,
        binary=texts,
        fingerprint=texts,
        block_counts=st.lists(st.integers(), max_size=8),
        edges=st.lists(
            st.lists(st.integers(), min_size=3, max_size=3), max_size=4
        ),
    ),
    SubmitAck: st.builds(SubmitAck, fingerprint=texts, known=st.booleans()),
    LayoutRequest: st.builds(LayoutRequest, fingerprint=texts, combo=texts),
    LayoutResponse: st.builds(
        LayoutResponse,
        status=texts,
        fingerprint=texts,
        combo=texts,
        source=texts,
        layout=st.none() | documents,
        error=texts,
        queue_wait_ms=finite,
    ),
    HealthRequest: st.builds(HealthRequest),
    HealthResponse: st.builds(
        HealthResponse,
        status=texts,
        uptime_s=finite,
        inflight=st.integers(),
        profiles=st.integers(),
        counters=st.dictionaries(texts, st.integers(), max_size=4),
    ),
    ErrorResponse: st.builds(ErrorResponse, message=texts),
}


class TestCodecProperties:
    def test_strategies_cover_every_message_type(self):
        assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES.values())

    @given(st.one_of(*MESSAGE_STRATEGIES.values()))
    def test_every_message_round_trips(self, message):
        decoded = roundtrip(message)
        assert type(decoded) is type(message)
        assert decoded == message

    @given(documents)
    def test_raw_layout_frames_like_the_plain_document(self, document):
        plain = LayoutResponse(status=STATUS_OK, layout=document)
        raw = LayoutResponse(status=STATUS_OK, layout=encode_json(document))
        assert encode_message(raw) == encode_message(plain)


#: A complete payload per message type, and the fields it may omit.
FULL_PAYLOADS = {
    ProfileSubmit: (
        {"binary": "app", "fingerprint": "f", "block_counts": [1],
         "edges": [[0, 0, 1]]},
        set(),
    ),
    SubmitAck: ({"fingerprint": "f", "known": True}, {"known"}),
    LayoutRequest: ({"fingerprint": "f", "combo": "base"}, {"combo"}),
    LayoutResponse: (
        {"status": "ok", "fingerprint": "f", "combo": "all",
         "source": "built", "layout": {"units": []}, "error": "e",
         "queue_wait_ms": 2.5},
        {"fingerprint", "combo", "source", "layout", "error",
         "queue_wait_ms"},
    ),
    HealthRequest: ({}, set()),
    HealthResponse: (
        {"status": "busy", "uptime_s": 1.0, "inflight": 2, "profiles": 3,
         "counters": {"serve.requests": 4}},
        {"status", "uptime_s", "inflight", "profiles", "counters"},
    ),
    ErrorResponse: ({"message": "nope"}, {"message"}),
}


def decode_payload(cls, payload):
    body = json.dumps(
        {"v": PROTOCOL_VERSION, "type": cls.TYPE, "payload": payload}
    ).encode()
    return decode_body(body)


class TestMissingFields:
    """A field without a default is required; an optional one takes its
    default when the payload omits it."""

    def test_payloads_cover_every_field(self):
        assert set(FULL_PAYLOADS) == set(MESSAGE_TYPES.values())
        for cls, (payload, _) in FULL_PAYLOADS.items():
            assert list(payload) == list(cls.__dataclass_fields__)

    @pytest.mark.parametrize(
        "cls, name",
        [
            pytest.param(cls, name, id=f"{cls.TYPE}.{name}")
            for cls, (payload, _) in FULL_PAYLOADS.items()
            for name in payload
        ],
    )
    def test_missing_field(self, cls, name):
        payload, optional = FULL_PAYLOADS[cls]
        partial = {k: v for k, v in payload.items() if k != name}
        if name not in optional:
            with pytest.raises(ProtocolError, match=f"malformed.*{name}"):
                decode_payload(cls, partial)
            return
        # ``cls(**partial)`` fills the omitted field with its default.
        assert decode_payload(cls, partial) == cls(**partial)

    def test_submit_ack_known_defaults_to_false(self):
        assert decode_payload(SubmitAck, {"fingerprint": "f"}) == SubmitAck(
            fingerprint="f", known=False
        )

    def test_error_response_message_is_lenient(self):
        assert decode_payload(ErrorResponse, {}) == ErrorResponse(message="")
