"""The ``repro/telemetry/v1`` wire protocol — sans-IO codec and messages.

Everything here is pure bytes-in/objects-out, with no sockets, threads,
or clocks, so the conformance and fuzz suites can drive the exact code
the server and client run without any IO plumbing.

Frame layout (all integers little-endian)::

    u32   length     (= 1 + len(payload) + 4; bounded by max_frame)
    u8    type       (one of the FRAME_* constants)
    ...   payload    (JSON for control frames; varint seq, varint
                      sent_ns + a binio document for EVENTS)
    u32   crc32      (over the type byte plus the payload)

The CRC trailer mirrors the binio trace format's: a flipped bit or a
silently shortened stream is caught even when the damage still parses.
EVENTS payloads embed a complete binio document (magic, version, count,
column blocks, CRC): clients write v3, and a v2 document is still
accepted.  Event data is thus integrity-checked twice — once per frame
in flight, once per chunk at rest in the server's replay spool.  That
document is the chunk's one form from client to shard: the client
encodes it once, the server checks its envelope and forwards the same
bytes to the spool and the shard worker, and only the worker decodes
the records, into columns (:func:`decode_columns`).
:attr:`EventsChunk.events` decodes a chunk into events on demand.

Error contract: **every** malformed input maps to a *named* subclass of
:class:`ProtocolError` — never a hang, never a bare ``ValueError`` or
``KeyError``.  ``tests/test_net_protocol.py`` fuzzes this promise with
hypothesis plus the fault-injection helpers from :mod:`repro.util.faults`.

Session lifecycle (client → server unless noted)::

    HELLO {schema, session, detector, backend?, resume?}
      → HELLO_ACK {session, resume_seq, credits}     (server)
      → ERROR {code, detail}                         (server, then close)
    SITES {sites: {id: name}}          incremental site-name table
    EVENTS <seq, sent_ns, binio document>    consumes one credit
      → CREDIT {ack, credits}          (server: durable seq + replenish)
    HEARTBEAT {nonce}                  → HEARTBEAT {nonce}  (echo)
    SPANS {pid, name, dropped, events} client-side trace spans (optional)
    QUERY {trace?}                     → REPORT {report, sessions, metrics}
    CLOSE {seq}                        → CLOSE_ACK {summary}

Observability rides the same frames: HELLO_ACK carries a server-assigned
``trace_id`` (used to derive cross-process flow-arrow ids), each EVENTS
chunk carries the sender's monotonic ``sent_ns`` timestamp (zero when
tracing is off) so the shard worker can histogram end-to-end chunk lag,
and a client may ship its buffered spans in a SPANS frame before CLOSE
so ``repro serve --trace-out`` merges client, front-tier, and
shard-worker spans into one Perfetto document.

Backpressure is credit-based: the server grants an initial window in
HELLO_ACK, each EVENTS frame spends one credit, and the server returns
credits only after the chunk is durably applied (shard-acked and
spooled).  A client with zero credits must block, which bounds server
memory at ``credits x max_frame`` bytes per connection.

Reconnect-with-resume: EVENTS frames carry a per-session sequence
number.  On reconnect the client sends HELLO with ``resume: true``; the
server answers with ``resume_seq`` — the last durably applied sequence —
and the client retransmits everything newer from its unacked buffer.
Duplicates (``seq <= resume_seq``) are acknowledged and dropped, so
delivery is exactly-once end to end.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..trace.binio import (
    Columns,
    check_binary,
    decode_binary_columns,
    decode_binary_events,
    dumps_binary,
)
from ..trace.events import Event
from ..trace.trace import TraceFormatError

__all__ = [
    "PROTOCOL_SCHEMA",
    "DEFAULT_MAX_FRAME",
    "DEFAULT_CREDITS",
    "FRAME_NAMES",
    "Frame",
    "FrameDecoder",
    "ProtocolError",
    "FrameTooLarge",
    "FrameCorrupt",
    "FrameTruncated",
    "UnknownFrameType",
    "PayloadError",
    "HandshakeError",
    "SessionStateError",
    "ServerBusy",
    "SessionEvicted",
    "Hello",
    "HelloAck",
    "EventsChunk",
    "Credit",
    "Heartbeat",
    "Close",
    "CloseAck",
    "ErrorMessage",
    "Query",
    "Report",
    "Sites",
    "Spans",
    "decode_columns",
    "decode_events",
    "decode_message",
    "encode_message",
]

#: versioned handshake identifier; bump the suffix on incompatible change
PROTOCOL_SCHEMA = "repro/telemetry/v1"

#: hard ceiling on one frame's wire size (length field), server default
DEFAULT_MAX_FRAME = 1 << 20

#: default credit window granted in HELLO_ACK
DEFAULT_CREDITS = 8

_LEN_BYTES = 4
_CRC_BYTES = 4
_MIN_LENGTH = 1 + _CRC_BYTES  # type byte + CRC, empty payload

# -- frame types ---------------------------------------------------------------

FRAME_HELLO = 1
FRAME_HELLO_ACK = 2
FRAME_EVENTS = 3
FRAME_CREDIT = 4
FRAME_HEARTBEAT = 5
FRAME_CLOSE = 6
FRAME_CLOSE_ACK = 7
FRAME_ERROR = 8
FRAME_QUERY = 9
FRAME_REPORT = 10
FRAME_SITES = 11
FRAME_SPANS = 12

FRAME_NAMES: Dict[int, str] = {
    FRAME_HELLO: "hello",
    FRAME_HELLO_ACK: "hello-ack",
    FRAME_EVENTS: "events",
    FRAME_CREDIT: "credit",
    FRAME_HEARTBEAT: "heartbeat",
    FRAME_CLOSE: "close",
    FRAME_CLOSE_ACK: "close-ack",
    FRAME_ERROR: "error",
    FRAME_QUERY: "query",
    FRAME_REPORT: "report",
    FRAME_SITES: "sites",
    FRAME_SPANS: "spans",
}


# -- named errors --------------------------------------------------------------


class ProtocolError(Exception):
    """Base of every telemetry protocol failure; ``code`` names it.

    ``retry_after`` is advisory: a server that sheds load stamps the
    seconds a well-behaved client should back off before reconnecting
    (zero everywhere else).  It rides the ERROR frame's optional
    ``retry_after`` field, so every named error can carry it.
    """

    code = "protocol"
    retry_after = 0.0


class FrameTooLarge(ProtocolError):
    """A frame length beyond the negotiated maximum (or absurdly huge)."""

    code = "frame-too-large"


class FrameCorrupt(ProtocolError):
    """A structurally impossible frame or a CRC32 mismatch."""

    code = "frame-corrupt"


class FrameTruncated(ProtocolError):
    """The stream ended mid-frame (EOF with a partial frame buffered)."""

    code = "frame-truncated"


class UnknownFrameType(ProtocolError):
    """A frame type byte outside the ``repro/telemetry/v1`` alphabet."""

    code = "unknown-frame-type"


class PayloadError(ProtocolError):
    """A known frame type whose payload does not decode."""

    code = "bad-payload"


class HandshakeError(ProtocolError):
    """A HELLO that cannot open (or resume) a session."""

    code = "handshake"


class SessionStateError(ProtocolError):
    """A frame that is illegal in the session's current state."""

    code = "session-state"


class ServerBusy(ProtocolError):
    """The server refused admission: at capacity, overloaded, or draining.

    Unlike :class:`HandshakeError` (the request itself is wrong), BUSY
    means *try again later*: the session name and configuration are fine,
    the server just cannot take it right now.  ``retry_after`` carries
    the server's suggested backoff.
    """

    code = "busy"


class SessionEvicted(ProtocolError):
    """The server evicted this session (quota exceeded or too slow).

    The session's applied progress is kept and spooled; a later resume
    reattaches.  ``retry_after`` carries the server's suggested backoff.
    """

    code = "evicted"


#: code string -> exception class, for reconstructing server-sent errors
ERROR_CLASSES: Dict[str, type] = {
    cls.code: cls
    for cls in (
        ProtocolError,
        FrameTooLarge,
        FrameCorrupt,
        FrameTruncated,
        UnknownFrameType,
        PayloadError,
        HandshakeError,
        SessionStateError,
        ServerBusy,
        SessionEvicted,
    )
}


def error_for_code(
    code: str, detail: str, retry_after: float = 0.0
) -> ProtocolError:
    """Rebuild the named error a peer reported in an ERROR frame."""
    exc = ERROR_CLASSES.get(code, ProtocolError)(detail)
    if retry_after:
        exc.retry_after = retry_after
    return exc


# -- frame codec ---------------------------------------------------------------


class Frame(Tuple):
    """(type, payload) — kept as a tiny named tuple-alike."""

    __slots__ = ()

    def __new__(cls, frame_type: int, payload: bytes) -> "Frame":
        return super().__new__(cls, (frame_type, payload))

    @property
    def type(self) -> int:
        return self[0]

    @property
    def payload(self) -> bytes:
        return self[1]

    @property
    def name(self) -> str:
        return FRAME_NAMES.get(self.type, f"type#{self.type}")


def encode_frame(frame_type: int, payload: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame: length, type, payload, CRC32 trailer."""
    body = bytes([frame_type]) + payload
    length = len(body) + _CRC_BYTES
    if length > max_frame:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds the {max_frame}-byte maximum"
        )
    return (
        length.to_bytes(_LEN_BYTES, "little")
        + body
        + zlib.crc32(body).to_bytes(_CRC_BYTES, "little")
    )


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    ``feed`` returns every complete frame the new bytes finish and keeps
    the remainder buffered; ``close`` raises :class:`FrameTruncated` if
    the stream ended mid-frame.  All failures are named
    :class:`ProtocolError` subclasses, and parsing work per call is
    linear in the buffered bytes — no input can make it loop or recurse.
    """

    __slots__ = ("max_frame", "buffer", "bytes_consumed", "buffer_high")

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        if max_frame < _LEN_BYTES + _MIN_LENGTH:
            raise ValueError(f"max_frame {max_frame} below minimum frame size")
        self.max_frame = max_frame
        self.buffer = bytearray()
        #: total payload bytes successfully consumed (for metrics)
        self.bytes_consumed = 0
        #: high-water mark of the receive buffer (bounded-memory evidence)
        self.buffer_high = 0

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data`` and return every frame it completes."""
        buf = self.buffer
        buf += data
        if len(buf) > self.buffer_high:
            self.buffer_high = len(buf)
        frames: List[Frame] = []
        pos = 0
        end = len(buf)
        while end - pos >= _LEN_BYTES:
            length = int.from_bytes(buf[pos : pos + _LEN_BYTES], "little")
            if length > self.max_frame:
                raise FrameTooLarge(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame}-byte maximum"
                )
            if length < _MIN_LENGTH:
                raise FrameCorrupt(
                    f"declared frame length {length} below the {_MIN_LENGTH}-byte "
                    f"minimum (type byte + CRC32)"
                )
            if end - pos - _LEN_BYTES < length:
                break  # incomplete: wait for more bytes
            body_start = pos + _LEN_BYTES
            crc_start = body_start + length - _CRC_BYTES
            body = bytes(buf[body_start:crc_start])
            stored = int.from_bytes(buf[crc_start : crc_start + _CRC_BYTES], "little")
            computed = zlib.crc32(body)
            if stored != computed:
                raise FrameCorrupt(
                    f"frame CRC32 mismatch: stored 0x{stored:08x}, "
                    f"computed 0x{computed:08x}"
                )
            frame_type = body[0]
            if frame_type not in FRAME_NAMES:
                raise UnknownFrameType(f"unknown frame type {frame_type}")
            frames.append(Frame(frame_type, body[1:]))
            pos = crc_start + _CRC_BYTES
            self.bytes_consumed += _LEN_BYTES + length
        if pos:
            del buf[:pos]
            if len(buf) > self.buffer_high:  # pragma: no cover - shrank
                self.buffer_high = len(buf)
        return frames

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self.buffer)

    def close(self) -> None:
        """Signal EOF; a partial buffered frame is a truncation error."""
        if self.buffer:
            raise FrameTruncated(
                f"stream ended with {len(self.buffer)} byte(s) of an "
                f"incomplete frame buffered"
            )


def decode_all(data: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> List[Frame]:
    """Parse a complete byte string into frames (EOF-checked)."""
    decoder = FrameDecoder(max_frame=max_frame)
    frames = decoder.feed(data)
    decoder.close()
    return frames


# -- varint helpers (EVENTS seq prefix; same encoding as binio) ----------------


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    end = len(data)
    while True:
        if pos >= end:
            raise PayloadError(f"truncated varint at payload byte {pos}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise PayloadError(f"varint longer than 64 bits at payload byte {pos}")


# -- messages ------------------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Client opening (or resuming) a session."""

    session: str
    detector: str = "fasttrack"
    backend: Optional[str] = None
    resume: bool = False
    schema: str = PROTOCOL_SCHEMA


@dataclass(frozen=True)
class HelloAck:
    """Server accepting a session.

    ``trace_id`` is the server-assigned id for wire-propagated tracing:
    distinct per session (stable across resume), used by both ends to
    derive cross-process flow-arrow ids.  Zero means unassigned.
    """

    session: str
    resume_seq: int
    credits: int
    trace_id: int = 0


def decode_columns(data: bytes) -> Columns:
    """Decode an EVENTS chunk's binio document into record columns.

    Returns ``(kinds, tids, targets, sites)`` lists — what a shard
    worker replays.  ``data`` must already have passed the envelope
    checks of :func:`decode_message` (header, event count, CRC); this
    checks the record structure, and any format error is a
    :class:`PayloadError`.
    """
    try:
        return decode_binary_columns(data)
    except TraceFormatError as exc:
        raise PayloadError(f"events payload: {exc}") from None


def decode_events(data: bytes) -> List[Event]:
    """:func:`decode_columns`, as events (:attr:`EventsChunk.events`)."""
    try:
        return decode_binary_events(data)
    except TraceFormatError as exc:
        raise PayloadError(f"events payload: {exc}") from None


class EventsChunk:
    """One sequenced chunk of trace events, carried as binio bytes.

    ``data`` is the chunk's wire form, a complete binio document (v3 when
    this class encodes it, v2 also accepted off the wire), and
    ``count`` the event count in its header.  A chunk built from events
    encodes them once, here; retransmits, the server's spool, and the
    shard pipe all reuse these bytes.  A chunk decoded off the wire holds
    only the bytes, and :attr:`events` decodes them on demand.

    ``sent_ns`` is the sender's monotonic-clock nanosecond timestamp at
    send time (zero when tracing is disabled); the shard worker that
    applies the chunk subtracts it from its own monotonic clock to
    observe end-to-end chunk lag.
    """

    __slots__ = ("seq", "data", "count", "sent_ns", "_events")

    def __init__(
        self, seq: int, events: Sequence[Event], sent_ns: int = 0
    ) -> None:
        self.seq = seq
        self.sent_ns = sent_ns
        self._events: Optional[Tuple[Event, ...]] = tuple(events)
        self.data = dumps_binary(self._events)
        self.count = len(self._events)

    @classmethod
    def from_data(
        cls, seq: int, data: bytes, count: int, sent_ns: int = 0
    ) -> "EventsChunk":
        """A chunk around an already encoded (and checked) document."""
        chunk = cls.__new__(cls)
        chunk.seq = seq
        chunk.data = data
        chunk.count = count
        chunk.sent_ns = sent_ns
        chunk._events = None
        return chunk

    def stamped(self, sent_ns: int) -> "EventsChunk":
        """The same chunk, same bytes, with a fresh send stamp."""
        chunk = EventsChunk.from_data(self.seq, self.data, self.count, sent_ns)
        chunk._events = self._events
        return chunk

    @property
    def events(self) -> Tuple[Event, ...]:
        """The chunk's events (decoded on first use; :class:`PayloadError`)."""
        if self._events is None:
            self._events = tuple(decode_events(self.data))
        return self._events

    def __repr__(self) -> str:
        return (
            f"EventsChunk(seq={self.seq}, count={self.count}, "
            f"sent_ns={self.sent_ns})"
        )


@dataclass(frozen=True)
class Credit:
    """Server: chunk ``ack`` is durably applied; spend ``credits`` more."""

    ack: int
    credits: int


@dataclass(frozen=True)
class Heartbeat:
    """Liveness ping; the peer echoes the nonce back."""

    nonce: int = 0


@dataclass(frozen=True)
class Close:
    """Client: all chunks through ``seq`` sent; finalize the session."""

    seq: int


@dataclass(frozen=True)
class CloseAck:
    """Server: the session's final accounting."""

    summary: Dict


@dataclass(frozen=True)
class ErrorMessage:
    """A named protocol error, shipped before the sender closes.

    ``retry_after`` (seconds, advisory) is only meaningful on
    load-shedding codes (``busy``, ``evicted``); zero means "no advice"
    and is omitted from the wire for compatibility with old peers.
    """

    error_code: str
    detail: str
    retry_after: float = 0.0

    def to_exception(self) -> ProtocolError:
        return error_for_code(self.error_code, self.detail, self.retry_after)


@dataclass(frozen=True)
class Query:
    """Ask the server for its live merged report and session roster.

    ``trace`` additionally requests the merged service trace document
    (``doc["trace"]``) — off by default because span collection across
    shard workers is the expensive part of a query.
    """

    trace: bool = False


@dataclass(frozen=True)
class Report:
    """Server answer to QUERY."""

    doc: Dict


@dataclass(frozen=True)
class Sites:
    """Incremental site-name table (live shim sessions)."""

    sites: Dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Spans:
    """Client-recorded trace spans, shipped once before CLOSE.

    ``events`` are Chrome trace-event dicts from a
    :class:`~repro.obs.tracing.SpanRecorder`; ``pid``/``name`` identify
    the sending process's track in the merged service trace and
    ``dropped`` counts spans lost to the recorder's bound.
    """

    pid: int
    name: str
    events: Tuple[Dict, ...] = ()
    dropped: int = 0


Message = Union[
    Hello, HelloAck, EventsChunk, Credit, Heartbeat, Close, CloseAck,
    ErrorMessage, Query, Report, Sites, Spans,
]


# -- encoding ------------------------------------------------------------------


def _json_payload(doc: Dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_message(msg: Message, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize one message into a complete wire frame."""
    if isinstance(msg, Hello):
        doc: Dict = {
            "schema": msg.schema,
            "session": msg.session,
            "detector": msg.detector,
            "resume": msg.resume,
        }
        if msg.backend is not None:
            doc["backend"] = msg.backend
        return encode_frame(FRAME_HELLO, _json_payload(doc), max_frame)
    if isinstance(msg, HelloAck):
        return encode_frame(
            FRAME_HELLO_ACK,
            _json_payload(
                {
                    "session": msg.session,
                    "resume_seq": msg.resume_seq,
                    "credits": msg.credits,
                    "trace_id": msg.trace_id,
                }
            ),
            max_frame,
        )
    if isinstance(msg, EventsChunk):
        out = bytearray()
        _write_varint(out, msg.seq)
        _write_varint(out, msg.sent_ns)
        out += msg.data
        return encode_frame(FRAME_EVENTS, bytes(out), max_frame)
    if isinstance(msg, Credit):
        return encode_frame(
            FRAME_CREDIT,
            _json_payload({"ack": msg.ack, "credits": msg.credits}),
            max_frame,
        )
    if isinstance(msg, Heartbeat):
        return encode_frame(
            FRAME_HEARTBEAT, _json_payload({"nonce": msg.nonce}), max_frame
        )
    if isinstance(msg, Close):
        return encode_frame(FRAME_CLOSE, _json_payload({"seq": msg.seq}), max_frame)
    if isinstance(msg, CloseAck):
        return encode_frame(
            FRAME_CLOSE_ACK, _json_payload({"summary": msg.summary}), max_frame
        )
    if isinstance(msg, ErrorMessage):
        doc = {"code": msg.error_code, "detail": msg.detail}
        if msg.retry_after:
            doc["retry_after"] = msg.retry_after
        return encode_frame(FRAME_ERROR, _json_payload(doc), max_frame)
    if isinstance(msg, Query):
        doc = {"trace": True} if msg.trace else {}
        return encode_frame(FRAME_QUERY, _json_payload(doc), max_frame)
    if isinstance(msg, Report):
        return encode_frame(FRAME_REPORT, _json_payload(msg.doc), max_frame)
    if isinstance(msg, Sites):
        return encode_frame(
            FRAME_SITES,
            _json_payload({"sites": {str(k): v for k, v in msg.sites.items()}}),
            max_frame,
        )
    if isinstance(msg, Spans):
        return encode_frame(
            FRAME_SPANS,
            _json_payload(
                {
                    "pid": msg.pid,
                    "name": msg.name,
                    "dropped": msg.dropped,
                    "events": list(msg.events),
                }
            ),
            max_frame,
        )
    raise TypeError(f"cannot encode message {msg!r}")


# -- decoding ------------------------------------------------------------------


def _json_doc(frame: Frame) -> Dict:
    try:
        doc = json.loads(frame.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PayloadError(f"{frame.name} payload is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise PayloadError(
            f"{frame.name} payload must be a JSON object, got "
            f"{type(doc).__name__}"
        )
    return doc


def _field(frame: Frame, doc: Dict, key: str, kind: type):
    value = doc.get(key)
    if kind is int and isinstance(value, bool):
        raise PayloadError(f"{frame.name} field {key!r} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise PayloadError(
            f"{frame.name} field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _nonneg(frame: Frame, doc: Dict, key: str) -> int:
    value = _field(frame, doc, key, int)
    if value < 0:
        raise PayloadError(f"{frame.name} field {key!r} must be >= 0, got {value}")
    return value


def decode_message(frame: Frame) -> Message:
    """Parse one frame's payload into a typed message.

    Every malformed payload raises a named :class:`ProtocolError`
    subclass: :class:`PayloadError` for undecodable bytes or wrong field
    types, :class:`HandshakeError` for a HELLO with the wrong schema.

    An EVENTS chunk's binio document is checked here up to its envelope
    (magic, version, event count, CRC) but not decoded: the chunk keeps
    the bytes, and its record structure is checked where it is decoded.
    """
    ftype = frame.type
    if ftype == FRAME_EVENTS:
        seq, pos = _read_varint(frame.payload, 0)
        sent_ns, pos = _read_varint(frame.payload, pos)
        data = bytes(frame.payload[pos:])
        try:
            count = check_binary(data)
        except TraceFormatError as exc:
            raise PayloadError(f"events payload: {exc}") from None
        return EventsChunk.from_data(seq, data, count, sent_ns)
    if ftype == FRAME_HELLO:
        doc = _json_doc(frame)
        schema = doc.get("schema")
        if schema != PROTOCOL_SCHEMA:
            raise HandshakeError(
                f"unsupported schema {schema!r} (this peer speaks "
                f"{PROTOCOL_SCHEMA!r})"
            )
        session = _field(frame, doc, "session", str)
        if not session:
            raise HandshakeError("session name must be non-empty")
        detector = doc.get("detector", "fasttrack")
        if not isinstance(detector, str):
            raise PayloadError("hello field 'detector' must be str")
        backend = doc.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise PayloadError("hello field 'backend' must be str or absent")
        resume = doc.get("resume", False)
        if not isinstance(resume, bool):
            raise PayloadError("hello field 'resume' must be bool")
        return Hello(
            session=session, detector=detector, backend=backend, resume=resume
        )
    if ftype == FRAME_HELLO_ACK:
        doc = _json_doc(frame)
        trace_id = doc.get("trace_id", 0)
        if not isinstance(trace_id, int) or isinstance(trace_id, bool) or trace_id < 0:
            raise PayloadError(
                f"hello-ack field 'trace_id' must be an int >= 0, got {trace_id!r}"
            )
        return HelloAck(
            session=_field(frame, doc, "session", str),
            resume_seq=_nonneg(frame, doc, "resume_seq"),
            credits=_nonneg(frame, doc, "credits"),
            trace_id=trace_id,
        )
    if ftype == FRAME_CREDIT:
        doc = _json_doc(frame)
        return Credit(
            ack=_nonneg(frame, doc, "ack"),
            credits=_nonneg(frame, doc, "credits"),
        )
    if ftype == FRAME_HEARTBEAT:
        doc = _json_doc(frame)
        return Heartbeat(nonce=_nonneg(frame, doc, "nonce"))
    if ftype == FRAME_CLOSE:
        doc = _json_doc(frame)
        return Close(seq=_nonneg(frame, doc, "seq"))
    if ftype == FRAME_CLOSE_ACK:
        doc = _json_doc(frame)
        return CloseAck(summary=_field(frame, doc, "summary", dict))
    if ftype == FRAME_ERROR:
        doc = _json_doc(frame)
        retry_after = doc.get("retry_after", 0.0)
        if (
            isinstance(retry_after, bool)
            or not isinstance(retry_after, (int, float))
            or retry_after < 0
        ):
            raise PayloadError(
                f"error field 'retry_after' must be a number >= 0, "
                f"got {retry_after!r}"
            )
        return ErrorMessage(
            error_code=_field(frame, doc, "code", str),
            detail=_field(frame, doc, "detail", str),
            retry_after=float(retry_after),
        )
    if ftype == FRAME_QUERY:
        doc = _json_doc(frame)
        trace = doc.get("trace", False)
        if not isinstance(trace, bool):
            raise PayloadError("query field 'trace' must be bool")
        return Query(trace=trace)
    if ftype == FRAME_REPORT:
        return Report(doc=_json_doc(frame))
    if ftype == FRAME_SITES:
        doc = _json_doc(frame)
        table = _field(frame, doc, "sites", dict)
        sites: Dict[int, str] = {}
        for key, name in table.items():
            try:
                site = int(key)
            except (TypeError, ValueError):
                raise PayloadError(f"sites key {key!r} is not an int") from None
            if not isinstance(name, str):
                raise PayloadError(f"sites name for {key!r} must be str")
            sites[site] = name
        return Sites(sites=sites)
    if ftype == FRAME_SPANS:
        doc = _json_doc(frame)
        events = doc.get("events", [])
        if not isinstance(events, list) or not all(
            isinstance(ev, dict) for ev in events
        ):
            raise PayloadError("spans field 'events' must be a list of objects")
        return Spans(
            pid=_nonneg(frame, doc, "pid"),
            name=_field(frame, doc, "name", str),
            events=tuple(events),
            dropped=_nonneg(frame, doc, "dropped"),
        )
    raise UnknownFrameType(f"unknown frame type {ftype}")


def chunk_events(
    events: Sequence[Event], chunk_size: int, first_seq: int = 1
) -> Iterable[EventsChunk]:
    """Split an event sequence into sequenced EVENTS chunks."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    seq = first_seq
    for start in range(0, len(events), chunk_size):
        yield EventsChunk(seq=seq, events=tuple(events[start : start + chunk_size]))
        seq += 1
