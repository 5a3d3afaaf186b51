"""Telemetry wire protocol: fuzzing and server conformance.

Two layers of guarantees, each pinned property-based where it counts:

* **Codec totality** — for *any* byte stream (bit-flipped frames,
  truncations, oversized length prefixes, raw garbage, garbage spliced
  between valid frames) the decoder either yields well-formed frames or
  raises a *named* :class:`~repro.net.protocol.ProtocolError` subclass
  carrying a stable ``code``.  Never a hang, never ``KeyError`` /
  ``struct.error`` / silence.  Same for ``decode_message`` over
  arbitrary frame payloads, and round-trips are lossless for every
  message type.

* **Server conformance** — a live server maps every client-side
  protocol violation (bad schema, events before hello, duplicate
  session, sequence gap, server-only frames, malformed bytes) to an
  ERROR frame naming the same stable code, and answers the benign
  control frames (heartbeat echo, query, clean close) exactly as
  documented in docs/TELEMETRY.md.
"""

from __future__ import annotations

import json
import socket
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    FRAME_ERROR,
    FRAME_EVENTS,
    FRAME_HEARTBEAT,
    FRAME_HELLO,
    PROTOCOL_SCHEMA,
    Close,
    CloseAck,
    Credit,
    ErrorMessage,
    EventsChunk,
    Frame,
    FrameCorrupt,
    FrameDecoder,
    FrameTooLarge,
    FrameTruncated,
    HandshakeError,
    Heartbeat,
    Hello,
    HelloAck,
    PayloadError,
    ProtocolError,
    Query,
    Report,
    SessionStateError,
    Sites,
    Spans,
    UnknownFrameType,
    chunk_events,
    decode_all,
    decode_message,
    encode_frame,
    encode_message,
    error_for_code,
)
from repro.net.client import ResilientClient
from repro.net.server import ServerConfig, TelemetryServer
from repro.trace.binio import dumps_binary
from repro.trace.events import (
    ACQUIRE,
    FORK,
    JOIN,
    READ,
    RELEASE,
    SBEGIN,
    SEND,
    VOL_READ,
    VOL_WRITE,
    WRITE,
    Event,
)
from repro.util.faults import flip_byte, truncate_bytes

# -- strategies ---------------------------------------------------------------

OPERAND_KINDS = [READ, WRITE, ACQUIRE, RELEASE, FORK, JOIN, VOL_READ, VOL_WRITE]

operand_events = st.builds(
    Event,
    kind=st.sampled_from(OPERAND_KINDS),
    tid=st.integers(min_value=-1, max_value=2**20),
    target=st.integers(min_value=0, max_value=2**48),
    site=st.integers(min_value=0, max_value=2**32),
)
marker_events = st.sampled_from([Event(SBEGIN, -1, 0), Event(SEND, -1, 0)])
event_lists = st.lists(st.one_of(operand_events, marker_events), max_size=40)

session_names = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "N")),
    min_size=1,
    max_size=20,
)

messages = st.one_of(
    st.builds(
        Hello,
        session=session_names,
        detector=st.sampled_from(["fasttrack", "pacer", "eraser"]),
        backend=st.sampled_from([None, "object", "packed"]),
        resume=st.booleans(),
    ),
    st.builds(
        HelloAck,
        session=session_names,
        resume_seq=st.integers(min_value=0, max_value=2**32),
        credits=st.integers(min_value=1, max_value=64),
    ),
    st.builds(
        EventsChunk,
        seq=st.integers(min_value=1, max_value=2**40),
        events=event_lists.map(tuple),
    ),
    st.builds(
        Credit,
        ack=st.integers(min_value=0, max_value=2**40),
        credits=st.integers(min_value=1, max_value=64),
    ),
    st.builds(Heartbeat, nonce=st.integers(min_value=0, max_value=2**31)),
    st.builds(Close, seq=st.integers(min_value=0, max_value=2**40)),
    st.builds(
        CloseAck,
        summary=st.dictionaries(
            st.sampled_from(["events", "races", "chunks"]),
            st.integers(min_value=0, max_value=2**31),
        ),
    ),
    st.builds(
        ErrorMessage,
        error_code=st.sampled_from(
            ["protocol", "frame-corrupt", "handshake", "session-state"]
        ),
        detail=st.text(max_size=60),
    ),
    st.builds(Query),
    st.builds(Report, doc=st.dictionaries(st.text(max_size=8), st.integers())),
    st.builds(
        Sites,
        sites=st.dictionaries(
            st.integers(min_value=0, max_value=2**31),
            st.text(max_size=30),
            max_size=10,
        ),
    ),
    st.builds(
        Spans,
        pid=st.integers(min_value=0, max_value=2**16),
        name=session_names,
        events=st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.text(max_size=12),
                    "ph": st.sampled_from(["X", "i", "M"]),
                    "ts": st.integers(min_value=0, max_value=2**48),
                }
            ),
            max_size=8,
        ).map(tuple),
        dropped=st.integers(min_value=0, max_value=2**20),
    ),
)


def assert_named(exc: ProtocolError) -> None:
    """Every protocol error carries a stable, registered code."""
    assert isinstance(exc, ProtocolError)
    assert isinstance(exc.code, str) and exc.code
    rebuilt = error_for_code(exc.code, str(exc))
    assert isinstance(rebuilt, ProtocolError)


# -- round trips --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(messages)
def test_message_round_trip(msg):
    data = encode_message(msg)
    frames = decode_all(data)
    assert len(frames) == 1
    decoded = decode_message(frames[0])
    assert type(decoded) is type(msg)
    if isinstance(msg, EventsChunk):
        assert decoded.seq == msg.seq
        assert list(decoded.events) == list(msg.events)
    else:
        assert decoded == msg


@settings(max_examples=60, deadline=None)
@given(st.lists(messages, min_size=1, max_size=6), st.integers(1, 7))
def test_stream_reassembly_any_split(msgs, step):
    """Frames survive arbitrary recv boundaries (1..7-byte drip feed)."""
    blob = b"".join(encode_message(m) for m in msgs)
    decoder = FrameDecoder()
    frames = []
    for i in range(0, len(blob), step):
        frames.extend(decoder.feed(blob[i : i + step]))
    decoder.close()  # no partial leftovers
    assert len(frames) == len(msgs)
    for frame, msg in zip(frames, msgs):
        assert type(decode_message(frame)) is type(msg)


@settings(max_examples=60, deadline=None)
@given(event_lists, st.integers(min_value=1, max_value=9))
def test_chunk_events_partition(events, chunk_size):
    chunks = list(chunk_events(events, chunk_size))
    rebuilt = [ev for chunk in chunks for ev in chunk.events]
    assert rebuilt == events
    assert [c.seq for c in chunks] == list(range(1, len(chunks) + 1))
    assert all(len(c.events) <= chunk_size for c in chunks)


# -- malformed input never escapes the named-error taxonomy -------------------


def feed_expecting_named_errors(data: bytes) -> None:
    """Decode arbitrary bytes; anything but frames must be a named error."""
    decoder = FrameDecoder()
    try:
        for frame in decoder.feed(data):
            try:
                decode_message(frame)
            except ProtocolError as exc:
                assert_named(exc)
        decoder.close()
    except ProtocolError as exc:
        assert_named(exc)


@settings(max_examples=120, deadline=None)
@given(messages, st.data())
def test_flip_any_byte_is_named(msg, data):
    blob = encode_message(msg)
    offset = data.draw(st.integers(0, len(blob) - 1))
    mask = data.draw(st.integers(1, 255))
    feed_expecting_named_errors(flip_byte(blob, offset, mask))


@settings(max_examples=120, deadline=None)
@given(messages, st.data())
def test_truncation_is_named_or_incomplete(msg, data):
    blob = encode_message(msg)
    drop = data.draw(st.integers(1, len(blob) - 1))
    truncated = truncate_bytes(blob, drop)
    decoder = FrameDecoder()
    assert decoder.feed(truncated) == []  # never a frame from a partial
    with pytest.raises(FrameTruncated) as exc_info:
        decoder.close()
    assert_named(exc_info.value)


@settings(max_examples=120, deadline=None)
@given(st.binary(min_size=1, max_size=200))
def test_garbage_is_named(data):
    feed_expecting_named_errors(data)


@settings(max_examples=60, deadline=None)
@given(messages, st.binary(min_size=1, max_size=50))
def test_garbage_after_valid_frame_is_named(msg, garbage):
    """A valid frame decodes even when garbage follows it on the wire."""
    blob = encode_message(msg)
    decoder = FrameDecoder()
    try:
        frames = decoder.feed(blob + garbage)
        decoder.close()
    except ProtocolError as exc:
        assert_named(exc)
        return
    assert frames  # at minimum, the valid leading frame came through
    assert type(decode_message(frames[0])) is type(msg)


def test_oversized_length_rejected_before_buffering():
    huge = (50 * 1024 * 1024).to_bytes(4, "little")
    decoder = FrameDecoder()
    with pytest.raises(FrameTooLarge) as exc_info:
        decoder.feed(huge)
    assert exc_info.value.code == "frame-too-large"
    assert decoder.buffer_high < 1024  # the 50 MiB never landed in memory


def test_undersized_length_rejected():
    with pytest.raises(FrameCorrupt):
        decode_all((2).to_bytes(4, "little") + b"xx")


def test_unknown_frame_type_rejected():
    blob = encode_frame(FRAME_HEARTBEAT, b"{}")
    # splice an unregistered type id in, with a recomputed CRC
    import zlib

    payload = b"{}"
    body = bytes([199]) + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    raw = len(body + b"0000").to_bytes(4, "little") + body + crc.to_bytes(4, "little")
    with pytest.raises(UnknownFrameType) as exc_info:
        decode_all(raw)
    assert exc_info.value.code == "unknown-frame-type"
    assert decode_all(blob)  # the well-formed control frame still decodes


def test_corrupt_crc_names_the_frame():
    blob = encode_message(Heartbeat(nonce=7))
    with pytest.raises(FrameCorrupt) as exc_info:
        decode_all(flip_byte(blob, len(blob) - 1))
    assert exc_info.value.code == "frame-corrupt"


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=120))
def test_events_payload_fuzz_is_named(payload):
    frame = Frame(FRAME_EVENTS, payload)
    try:
        msg = decode_message(frame)
    except ProtocolError as exc:
        assert_named(exc)
    else:
        assert isinstance(msg, EventsChunk)


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=120))
def test_hello_payload_fuzz_is_named(payload):
    frame = Frame(FRAME_HELLO, payload)
    try:
        msg = decode_message(frame)
    except ProtocolError as exc:
        assert_named(exc)
    else:
        assert isinstance(msg, Hello)


def broken_events_payload(seq: int = 1) -> bytes:
    """An EVENTS payload whose binio document carries kind id 13.

    Its binio CRC is recomputed, so only decoding the records shows
    the damage.
    """
    doc = b"PACR" + bytes([2, 1, 13, 1, 1, 0])  # v2, 1 event: kind 13
    doc += zlib.crc32(doc).to_bytes(4, "little")
    return bytes([seq, 0]) + doc  # varint seq (< 128), varint sent_ns 0


def test_events_decode_checks_the_envelope_not_the_records():
    chunk = decode_message(Frame(FRAME_EVENTS, broken_events_payload(seq=7)))
    assert isinstance(chunk, EventsChunk)
    assert (chunk.seq, chunk.count, chunk.sent_ns) == (7, 1, 0)
    with pytest.raises(PayloadError) as exc_info:
        chunk.events
    assert "kind id 13" in str(exc_info.value)
    assert_named(exc_info.value)


def test_events_chunk_is_encoded_once():
    events = (Event(WRITE, 0, 7, 1), Event(READ, 1, 7, 2))
    chunk = EventsChunk(seq=3, events=events)
    stamped = chunk.stamped(123456789)
    # a fresh stamp reuses the encoded document: only the prefix moves
    assert stamped.data is chunk.data and stamped.events is chunk.events
    (frame,) = decode_all(encode_message(stamped))
    decoded = decode_message(frame)
    assert (decoded.seq, decoded.sent_ns, decoded.count) == (3, 123456789, 2)
    assert decoded.data == chunk.data
    assert decoded.events == events


def test_hello_rejects_wrong_schema():
    payload = json.dumps(
        {"session": "s", "detector": "fasttrack", "backend": None,
         "resume": False, "schema": "repro/telemetry/v999"}
    ).encode()
    with pytest.raises(HandshakeError):
        decode_message(decode_all(encode_frame(FRAME_HELLO, payload))[0])


def test_error_message_maps_back_to_exception():
    msg = ErrorMessage(error_code="frame-corrupt", detail="boom")
    exc = msg.to_exception()
    assert isinstance(exc, FrameCorrupt)
    assert "boom" in str(exc)
    # unknown codes degrade to the base class, still named
    base = ErrorMessage(error_code="not-a-real-code", detail="x").to_exception()
    assert type(base) is ProtocolError


# -- server conformance -------------------------------------------------------


class RawConn:
    """A hand-driven connection for speaking malformed protocol."""

    def __init__(self, address: str):
        from repro.net.client import parse_address

        kind, target = parse_address(address)
        assert kind == "tcp"
        self.sock = socket.create_connection(target, timeout=10.0)
        self.decoder = FrameDecoder()
        self.frames = []

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send(self, msg) -> None:
        self.sock.sendall(encode_message(msg))

    def recv_msg(self):
        while not self.frames:
            data = self.sock.recv(65536)
            assert data, "server closed without a reply"
            self.frames.extend(self.decoder.feed(data))
        return decode_message(self.frames.pop(0))

    def expect_error(self, code: str) -> ErrorMessage:
        msg = self.recv_msg()
        assert isinstance(msg, ErrorMessage), f"expected ERROR, got {msg}"
        assert msg.error_code == code, f"{msg.error_code}: {msg.detail}"
        return msg

    def close(self) -> None:
        self.sock.close()


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(n_shards=2, shard_mode="inline")
    with TelemetryServer(config) as srv:
        yield srv


def _hello(conn: RawConn, name: str) -> HelloAck:
    conn.send(Hello(session=name))
    ack = conn.recv_msg()
    assert isinstance(ack, HelloAck)
    return ack


def test_server_handshake_and_heartbeat(server):
    conn = RawConn(server.address)
    ack = _hello(conn, "conf-hello")
    assert ack.session == "conf-hello"
    assert ack.resume_seq == 0
    assert ack.credits >= 1
    conn.send(Heartbeat(nonce=1234))
    echo = conn.recv_msg()
    assert isinstance(echo, Heartbeat) and echo.nonce == 1234
    conn.close()


def test_server_rejects_bad_schema(server):
    conn = RawConn(server.address)
    payload = json.dumps(
        {"session": "x", "detector": "fasttrack", "backend": None,
         "resume": False, "schema": "repro/telemetry/v999"}
    ).encode()
    conn.send_raw(encode_frame(FRAME_HELLO, payload))
    conn.expect_error("handshake")
    conn.close()


def test_server_rejects_unknown_detector(server):
    conn = RawConn(server.address)
    conn.send(Hello(session="bad-detector", detector="does-not-exist"))
    err = conn.expect_error("handshake")
    assert "detector" in err.detail
    conn.close()


def test_server_rejects_unknown_backend(server):
    from repro.core.backend import BACKENDS

    # ``packed-np`` is a removed backend: it is refused like any typo
    for bad in ("packed-nope", "packed-np"):
        conn = RawConn(server.address)
        conn.send(Hello(session=f"bad-backend-{bad}", backend=bad))
        err = conn.expect_error("handshake")
        assert "state backend" in err.detail
        assert repr(bad) in err.detail
        # the refusal names every backend this server can actually build
        for backend in BACKENDS:
            assert backend in err.detail
        conn.close()


def test_server_rejects_events_before_hello(server):
    conn = RawConn(server.address)
    conn.send(EventsChunk(seq=1, events=(Event(READ, 0, 1, 0),)))
    conn.expect_error("session-state")
    conn.close()


def test_server_rejects_duplicate_session(server):
    conn1 = RawConn(server.address)
    _hello(conn1, "conf-dup")
    conn2 = RawConn(server.address)
    conn2.send(Hello(session="conf-dup"))
    err = conn2.expect_error("handshake")
    assert "resume" in err.detail
    conn2.close()
    conn1.close()


def test_server_rejects_resume_of_unknown_session(server):
    conn = RawConn(server.address)
    conn.send(Hello(session="conf-never-existed", resume=True))
    conn.expect_error("handshake")
    conn.close()


def test_server_rejects_sequence_gap(server):
    conn = RawConn(server.address)
    _hello(conn, "conf-gap")
    conn.send(EventsChunk(seq=5, events=(Event(READ, 0, 1, 0),)))
    err = conn.expect_error("session-state")
    assert "gap" in err.detail or "expected" in err.detail
    conn.close()


def test_server_rejects_server_only_frames(server):
    for msg in (
        HelloAck(session="x", resume_seq=0, credits=1),
        Credit(ack=1, credits=1),
        CloseAck(summary={}),
        ErrorMessage(error_code="protocol", detail="x"),
    ):
        conn = RawConn(server.address)
        conn.send(msg)
        conn.expect_error("session-state")
        conn.close()


def test_server_rejects_second_hello(server):
    conn = RawConn(server.address)
    _hello(conn, "conf-twice")
    conn.send(Hello(session="conf-twice-b"))
    conn.expect_error("session-state")
    conn.close()


def test_server_names_corrupt_frames(server):
    conn = RawConn(server.address)
    blob = encode_message(Heartbeat(nonce=3))
    conn.send_raw(flip_byte(blob, len(blob) - 2))
    conn.expect_error("frame-corrupt")
    conn.close()


def test_server_names_oversized_frames(server):
    conn = RawConn(server.address)
    conn.send_raw((200 * 1024 * 1024).to_bytes(4, "little"))
    conn.expect_error("frame-too-large")
    conn.close()


def test_server_names_unknown_frame_types(server):
    import zlib

    conn = RawConn(server.address)
    body = bytes([250]) + b"{}"
    crc = zlib.crc32(body) & 0xFFFFFFFF
    conn.send_raw(
        len(body + b"0000").to_bytes(4, "little")
        + body
        + crc.to_bytes(4, "little")
    )
    conn.expect_error("unknown-frame-type")
    conn.close()


def test_server_clean_close_summary(server):
    conn = RawConn(server.address)
    _hello(conn, "conf-close")
    events = (
        Event(WRITE, 0, 7, 1),
        Event(WRITE, 1, 7, 2),
    )
    conn.send(EventsChunk(seq=1, events=events))
    credit = conn.recv_msg()
    assert isinstance(credit, Credit) and credit.ack == 1
    conn.send(Close(seq=1))
    ack = conn.recv_msg()
    assert isinstance(ack, CloseAck)
    assert ack.summary["session"] == "conf-close"
    assert ack.summary["events"] == 2
    assert ack.summary["chunks"] == 1
    conn.close()


def test_server_accepts_v2_chunks(server):
    """Clients write v3 documents; a v2 chunk from an older client is
    checked, applied and acknowledged the same way."""
    conn = RawConn(server.address)
    _hello(conn, "conf-v2")
    events = (Event(WRITE, 0, 7, 1), Event(WRITE, 1, 7, 2))
    assert EventsChunk(seq=1, events=events).data[4] == 3
    for seq, version in ((1, 2), (2, 3)):
        data = dumps_binary(events, version=version)
        conn.send(EventsChunk.from_data(seq, data, len(events)))
        credit = conn.recv_msg()
        assert isinstance(credit, Credit) and credit.ack == seq
    conn.send(Close(seq=2))
    ack = conn.recv_msg()
    assert isinstance(ack, CloseAck)
    assert (ack.summary["events"], ack.summary["chunks"]) == (4, 2)
    conn.close()


def test_server_rejects_close_at_wrong_seq(server):
    conn = RawConn(server.address)
    _hello(conn, "conf-badclose")
    conn.send(Close(seq=99))
    conn.expect_error("session-state")
    conn.close()


def test_server_rejects_events_after_close(server):
    conn = RawConn(server.address)
    _hello(conn, "conf-afterclose")
    conn.send(Close(seq=0))
    ack = conn.recv_msg()
    assert isinstance(ack, CloseAck)
    conn.send(EventsChunk(seq=1, events=(Event(READ, 0, 1, 0),)))
    conn.expect_error("session-state")
    conn.close()


def test_server_query_needs_no_session(server):
    conn = RawConn(server.address)
    conn.send(Query())
    report = conn.recv_msg()
    assert isinstance(report, Report)
    assert report.doc["schema"].startswith("repro/telemetry-status/")
    assert "sessions" in report.doc and "report" in report.doc
    conn.close()


@pytest.mark.parametrize("shard_mode", ["inline", "process"])
def test_server_names_shard_rejected_chunks(shard_mode, tmp_path):
    """A chunk only the shard can see is broken gets ``bad-payload``.

    Nothing of it is applied, spooled or acknowledged, and the shard
    goes on serving other sessions.
    """
    config = ServerConfig(
        n_shards=1, shard_mode=shard_mode, spool_dir=str(tmp_path)
    )
    with TelemetryServer(config) as srv:
        conn = RawConn(srv.address)
        _hello(conn, "conf-broken")
        conn.send_raw(encode_frame(FRAME_EVENTS, broken_events_payload()))
        err = conn.expect_error("bad-payload")  # no CREDIT came first
        assert "kind id 13" in err.detail
        conn.close()
        doc = srv.session_doc("conf-broken")
        assert (doc["events"], doc["chunks"]) == (0, 0)
        assert all(p.stat().st_size == 0 for p in tmp_path.glob("*.spool"))
        assert srv.metrics.counter("net_events_total").value == 0
        assert srv.metrics.counter("net_chunks_total").value == 0
        # the session is resumable at seq 0: nothing was acknowledged
        conn = RawConn(srv.address)
        conn.send(Hello(session="conf-broken", resume=True))
        ack = conn.recv_msg()
        assert isinstance(ack, HelloAck) and ack.resume_seq == 0
        conn.close()
        # the same shard goes on serving other sessions
        events = [Event(WRITE, 0, 7, 1), Event(WRITE, 1, 7, 2)] * 5
        client = ResilientClient(
            srv.address, "conf-after-broken", chunk_size=3, retries=0
        )
        client.connect()
        client.send_events(events)
        summary = client.close()
        assert summary["events"] == len(events)
        assert summary["races"] >= 1


def test_client_names_the_refusal_behind_a_broken_pipe(monkeypatch):
    """A chunk the shard refuses ends the connection while the client
    still has chunks to send: the client raises the server's ERROR, not
    the broken pipe its next send hits."""
    import repro.net.client as client_module

    original = client_module.chunk_events
    doc = broken_events_payload()[2:]  # kind id 13 under a valid CRC

    def refused_first(events, size, first):
        for chunk in original(events, size, first):
            if chunk.seq > 1:
                yield chunk
                continue
            yield EventsChunk.from_data(1, doc, 1)
            # send the rest only once the server has refused and closed
            while srv.metrics.counter("net_disconnects_total").value < 1:
                time.sleep(0.01)
            time.sleep(0.1)

    monkeypatch.setattr(client_module, "chunk_events", refused_first)
    events = [Event(WRITE, 0, 7, 1), Event(WRITE, 1, 7, 2)] * 50
    config = ServerConfig(n_shards=1, shard_mode="inline")
    with TelemetryServer(config) as srv:
        client = ResilientClient(srv.address, "refused", chunk_size=4, retries=0)
        client.connect()
        with pytest.raises(PayloadError) as exc_info:
            client.send_events(events)
        assert "kind id 13" in str(exc_info.value)
        assert isinstance(exc_info.value.__cause__, OSError)
