"""The serve wire protocol: versioned messages over length-prefixed JSONL.

Every message on the wire is one *frame*: a 4-byte big-endian length
followed by exactly that many bytes of UTF-8 JSON terminated by a
newline (so a captured stream is also valid JSONL once the length
prefixes are stripped).  The JSON envelope is::

    {"v": 1, "type": "layout_request", "payload": {...}}

``v`` is :data:`PROTOCOL_VERSION`; a server refuses frames from a
different major version with an :class:`ErrorResponse` rather than
guessing.  ``type`` selects one of the :class:`Message` dataclasses
below; the payload is that dataclass's fields, encoded and decoded by
the one generic ``to_wire()`` / ``from_wire()`` pair on the base.

The conversation is strictly request/response: a client sends
:class:`ProfileSubmit` / :class:`LayoutRequest` / :class:`HealthRequest`
frames and reads exactly one response frame per request, over TCP or a
unix socket.  Framing and payload errors raise
:class:`~repro.errors.ProtocolError` on the reading side.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple, Type, Union
from typing import get_args, get_origin, get_type_hints

import numpy as np

from repro.errors import ProtocolError
from repro.ir import Binary
from repro.profiles.profile import Profile

#: Bump on any incompatible change to the envelope or payload shapes.
PROTOCOL_VERSION = 1

#: Upper bound on one frame; anything larger is a protocol violation
#: (guards the server against unbounded allocations from bad peers).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: ``LayoutResponse.status`` values.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"

#: ``LayoutResponse.source`` values (how the layout was produced).
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_BUILT = "built"
SOURCE_COALESCED = "coalesced"
#: Cold-start answer: no profile known, layout built from the static
#: profile synthesized off the binary's CFG (:mod:`repro.staticpred`).
SOURCE_STATIC = "static"


class RawJSON(bytes):
    """A value already encoded as compact JSON (see :func:`encode_json`).

    :func:`encode_message` splices it into the frame verbatim, so a
    document encoded once is served any number of times without being
    encoded again.
    """


def _coercion(annotation) -> Callable:
    """How a decoded JSON value becomes a field typed ``annotation``.

    Scalars and ``list``/``dict`` fields are coerced with their type (a
    list of lists copies each inner list); anything else, such as the
    layout document union, is kept as decoded.
    """
    origin = get_origin(annotation)
    if origin is list:
        (item,) = get_args(annotation)
        if get_origin(item) is list:
            return lambda value: [list(inner) for inner in value]
        return list
    if origin is dict:
        return dict
    if annotation in (str, int, float, bool):
        return annotation
    return lambda value: value


@functools.lru_cache(maxsize=None)
def _codec(cls) -> Tuple[Tuple[str, Callable], ...]:
    """``(name, coercion)`` per field of one message class, in
    declaration order (resolved once per class)."""
    hints = get_type_hints(cls)
    return tuple((f.name, _coercion(hints[f.name])) for f in fields(cls))


class Message:
    """Base of every wire message: a dataclass whose fields are its
    payload.

    Field order sets the payload's key order and each field's
    annotation its decode coercion.  A field without a default is
    required: decoding a payload that lacks it raises
    :class:`~repro.errors.ProtocolError` (the constructor's TypeError,
    via :func:`decode_body`); a missing optional field takes its
    default.
    """

    #: The envelope ``type`` naming this message.
    TYPE = ""

    def to_wire(self) -> Dict:
        """JSON-ready payload."""
        return {name: getattr(self, name) for name, _ in _codec(type(self))}

    @classmethod
    def from_wire(cls, payload: Dict) -> "Message":
        """Parse the payload (shape errors raise TypeError or
        ValueError)."""
        return cls(**{
            name: coerce(payload[name])
            for name, coerce in _codec(cls)
            if name in payload
        })


@dataclass
class ProfileSubmit(Message):
    """A client ships one execution profile to the server.

    The profile is keyed by its content fingerprint
    (:meth:`repro.profiles.profile.Profile.fingerprint`), which later
    :class:`LayoutRequest` frames reference, so identical profiles
    from many clients submit (and optimize) once.
    """

    TYPE = "profile_submit"

    binary: str
    fingerprint: str
    block_counts: List[int]
    edges: List[List[int]]

    @classmethod
    def from_profile(cls, profile: Profile) -> "ProfileSubmit":
        """Build the submission frame for one in-memory profile."""
        return cls(
            binary=profile.binary.name,
            fingerprint=profile.fingerprint(),
            block_counts=[int(c) for c in profile.block_counts],
            edges=[
                [int(src), int(dst), int(count)]
                for (src, dst), count in sorted(profile.edge_counts.items())
                if count
            ],
        )

    def to_profile(self, binary: Binary) -> Profile:
        """Rebuild the profile against the server's binary.

        Raises :class:`~repro.errors.ProtocolError` when the submission
        belongs to a different binary (name or block-count mismatch) or
        holds a count or edge that is not an integer triple.
        """
        if self.binary != binary.name:
            raise ProtocolError(
                f"profile is for binary {self.binary!r}, "
                f"server optimizes {binary.name!r}"
            )
        if len(self.block_counts) != binary.num_blocks:
            raise ProtocolError(
                f"profile covers {len(self.block_counts)} blocks, "
                f"binary has {binary.num_blocks}"
            )
        profile = Profile(binary)
        try:
            profile.block_counts = np.asarray(self.block_counts, dtype=np.int64)
            for src, dst, count in self.edges:
                profile.edge_counts[(int(src), int(dst))] = int(count)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"malformed profile counts: {exc}") from None
        return profile


@dataclass
class SubmitAck(Message):
    """Server acknowledgement of a :class:`ProfileSubmit`.

    ``known`` is True when the server already held the profile (the
    submission was deduplicated by fingerprint).
    """

    TYPE = "submit_ack"

    fingerprint: str
    known: bool = False


@dataclass
class LayoutRequest(Message):
    """Ask for the optimized layout of a previously submitted profile."""

    TYPE = "layout_request"

    fingerprint: str
    combo: str = "all"


@dataclass
class LayoutResponse(Message):
    """The server's answer to a :class:`LayoutRequest`.

    ``status`` is ``"ok"`` (``layout`` carries the
    :func:`repro.harness.store.layout_to_dict` document: a dict once
    decoded, its :class:`RawJSON` encoding on the server), ``"rejected"``
    (admission control shed the request — retry later), or ``"error"``
    (``error`` says why; e.g. unknown fingerprint, gate failure).
    ``source`` records which tier produced an ok layout; ``queue_wait_ms``
    is how long the request sat before its optimization started.
    """

    TYPE = "layout_response"

    status: str
    fingerprint: str = ""
    combo: str = ""
    source: str = ""
    layout: Union[Dict, RawJSON, None] = None
    error: str = ""
    queue_wait_ms: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the response carries a served layout."""
        return self.status == STATUS_OK and self.layout is not None


@dataclass
class HealthRequest(Message):
    """Liveness / load probe."""

    TYPE = "health"


@dataclass
class HealthResponse(Message):
    """Server status snapshot: load plus the ``serve.*`` counters."""

    TYPE = "health_response"

    status: str = "ok"
    uptime_s: float = 0.0
    inflight: int = 0
    profiles: int = 0
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class ErrorResponse(Message):
    """Protocol-level refusal (bad version, unknown type, bad frame)."""

    TYPE = "error"

    message: str = ""


#: type string -> message class, for decoding.
MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.TYPE: cls
    for cls in (
        ProfileSubmit,
        SubmitAck,
        LayoutRequest,
        LayoutResponse,
        HealthRequest,
        HealthResponse,
        ErrorResponse,
    )
}


def encode_json(value) -> RawJSON:
    """``value`` as the compact JSON that appears inside a frame."""
    return RawJSON(json.dumps(value, separators=(",", ":")).encode("utf-8"))


def encode_message(message) -> bytes:
    """One message as a complete wire frame (length prefix + JSONL).

    The body is byte-identical to ``json.dumps`` of the envelope with
    compact separators; payload values that are :class:`RawJSON` are
    spliced in as they are.
    """
    fields = b",".join(
        encode_json(key) + b":" + (
            value if isinstance(value, RawJSON) else encode_json(value)
        )
        for key, value in message.to_wire().items()
    )
    body = b'{"v":%s,"type":%s,"payload":{%s}}\n' % (
        encode_json(PROTOCOL_VERSION), encode_json(message.TYPE), fields
    )
    return struct.pack("!I", len(body)) + body


def decode_body(body: bytes):
    """Decode one frame body (sans length prefix) into a message.

    Raises :class:`~repro.errors.ProtocolError` on malformed JSON, a
    version mismatch, an unknown type, or a payload of the wrong shape.
    """
    try:
        envelope = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame body: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ProtocolError(
            f"frame body is {type(envelope).__name__}, expected an envelope"
        )
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    mtype = envelope.get("type")
    cls = MESSAGE_TYPES.get(mtype)
    if cls is None:
        raise ProtocolError(f"unknown message type {mtype!r}")
    try:
        return cls.from_wire(envelope.get("payload") or {})
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"malformed {mtype!r} payload: {exc!r}"
        ) from exc


def _check_frame_length(length: int) -> None:
    if length <= 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"invalid frame length {length} "
            f"(limit {MAX_FRAME_BYTES} bytes)"
        )


async def read_message(reader):
    """Read one message from an ``asyncio.StreamReader``.

    Returns None on clean EOF before a frame starts; raises
    :class:`~repro.errors.ProtocolError` on a truncated or invalid
    frame.
    """
    import asyncio

    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError("connection closed mid-frame header") from exc
    (length,) = struct.unpack("!I", header)
    _check_frame_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame body") from exc
    return decode_body(body)


def read_message_sync(stream):
    """Read one message from a blocking binary stream (``sock.makefile``).

    Same semantics as :func:`read_message`: None on clean EOF,
    :class:`~repro.errors.ProtocolError` on truncation or bad frames.
    """
    header = _read_exact(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack("!I", header)
    _check_frame_length(length)
    body = _read_exact(stream, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame body")
    return decode_body(body)


def _read_exact(stream, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"connection closed after {got} of {n} frame bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
