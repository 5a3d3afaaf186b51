"""Telemetry clients: stream traces or live programs to a server.

Two classes:

* :class:`ResilientClient` — one session's connection, and the only
  client.  Single-threaded and synchronous by design (deterministic,
  lock-free): it sends EVENTS frames while it holds credits, and when
  the window is exhausted it *blocks* reading frames until the server
  returns a CREDIT — that stall is the backpressure mechanism, counted
  in :attr:`~ResilientClient.credit_waits` so the soak suite can prove
  the window actually closed.  Every sent chunk stays in the unacked
  buffer until its CREDIT ``ack`` arrives, which is what makes a resume
  (HELLO with ``resume``) lossless: the server names its last durably
  applied sequence number and the client retransmits everything newer.

  The client heals itself:

  - every transport or protocol failure (``OSError``, a corrupted or
    truncated frame, a superseded connection, a BUSY or eviction
    answer) triggers a reconnect-with-resume and a retry of the
    interrupted operation from exactly where it stopped — chunk-aligned,
    so the server's duplicate suppression makes delivery exactly-once
    even when a frame died on the wire after being applied;
  - reconnects back off exponentially with **seeded** jitter (a
    ``random.Random`` derived from the session name unless given), so
    a thousand clients dropped by one server restart do not stampede
    back in lockstep, and chaos tests replay the identical schedule;
  - a server-advised ``retry_after`` (BUSY handshakes, evictions)
    floors the computed delay;
  - the budget (``retries``) counts only reconnects that make no
    progress, so a server that is truly gone produces the *original*
    named error, not an infinite loop.  With ``retries=0`` the client
    never reconnects on its own; :meth:`~ResilientClient.reconnect`
    resumes by hand;
  - an operation that fails for good leaves the client disconnected,
    with its unacked buffer intact for a later resume;
  - ``close()`` is idempotent, never raises, and completes the close
    handshake under faults: a summary lost to a dying connection is
    re-fetched on a fresh resume.

  Config errors never retry: an unknown detector/backend, a schema
  mismatch, or a session name that is taken is a
  :class:`~repro.net.protocol.HandshakeError` and raises at once.  The
  one exception is a HELLO that was written to a socket but whose
  HELLO_ACK never came back: it may have opened the session, so when
  the retry is refused with "already exists" that session is this
  client's, and the retry resumes it.  A *first* HELLO refused that way
  raises — another client owns the name.

  Every reconnect is recorded as a ``reconnect`` instant on the client's
  span recorder; the server mines those from the shipped SPANS batch
  into its ``net_retries_total`` counter.

* :class:`TelemetryMonitor` — the :class:`~repro.live.RaceMonitor`-backed
  shim.  A real threaded program uses the same ``shared``/``lock``/
  ``volatile``/``thread`` API as local monitoring, but the detector slot
  holds a :class:`ForwardingDetector` that buffers events instead of
  analyzing them, interning the monitor's ``file:line`` site strings to
  integers (the binary wire format carries varint sites); the name table
  ships in SITES frames so server-side race reports still point at real
  source lines.  Analysis happens wherever the server's shard workers
  live — the monitored process pays only for buffering and framing.
"""

from __future__ import annotations

import random
import socket
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from ..obs.tracing import PID_CLIENT_BASE, SpanRecorder, chunk_flow_id
from ..trace.events import ID_TO_KIND, Event
from .protocol import (
    Close,
    CloseAck,
    Credit,
    ErrorMessage,
    EventsChunk,
    FrameDecoder,
    FrameTruncated,
    HandshakeError,
    Hello,
    HelloAck,
    ProtocolError,
    Query,
    Report,
    Sites,
    Spans,
    chunk_events,
    decode_message,
    encode_message,
)
from .transport import dial, parse_address

__all__ = [
    "ForwardingDetector",
    "ResilientClient",
    "TelemetryMonitor",
    "parse_address",
    "query_server",
]

#: events per EVENTS frame: one v3 column block of 2,048 records.  Every
#: chunk costs the same fixed work whatever its size (a frame, a CREDIT,
#: a chunk-send span, a spool record, a shard round trip), which at 512
#: events left the shard idle about a third of the time.  ``close``
#: drains the last window of chunks (up to ``DEFAULT_CREDITS``), so
#: larger chunks make the close longer: at 4,096 events it took half
#: again as long as at 512, at 2,048 no longer (docs/TELEMETRY.md,
#: "Backpressure").
DEFAULT_CHUNK_SIZE = 2048

#: default per-operation reconnect budget
DEFAULT_RETRIES = 8

#: backoff schedule defaults: base * 2^attempt, capped, jittered
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_MAX = 2.0

T = TypeVar("T")


def _is_retryable(exc: Exception) -> bool:
    """Transient failures retry; config errors surface immediately."""
    if isinstance(exc, HandshakeError):
        return False
    return isinstance(exc, (OSError, ProtocolError))


class ResilientClient:
    """One session's self-healing connection to a telemetry server."""

    def __init__(
        self,
        address: str,
        session: str,
        detector: str = "fasttrack",
        backend: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        timeout: float = 30.0,
        trace: bool = True,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
        seed: Optional[int] = None,
    ) -> None:
        self.address = address
        self.session = session
        self.detector = detector
        self.backend = backend
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        if seed is None:
            seed = zlib.crc32(session.encode("utf-8"))
        self._rng = random.Random(seed)
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._inbox: List = []
        self.credits = 0
        #: next EVENTS sequence number to assign
        self.next_seq = 1
        #: chunks sent but not yet CREDIT-acknowledged, oldest first
        self.unacked: List[EventsChunk] = []
        #: times send_events blocked on an exhausted credit window
        self.credit_waits = 0
        self.events_sent = 0
        self.last_summary: Optional[Dict] = None
        #: the transport/protocol error a failed :meth:`close` swallowed
        #: (None after a clean close)
        self.close_error: Optional[Exception] = None
        #: total reconnect attempts performed over this client's life
        self.retry_count = 0
        #: wall-clock seconds spent sleeping in backoff
        self.backoff_seconds = 0.0
        #: True once a HELLO_ACK established the session: reconnects resume
        self._established = False
        #: True while a written HELLO has had no answer: it may have
        #: opened the session without this client hearing so
        self._hello_unanswered = False
        self._closed = False
        #: wire-propagated tracing (connect/handshake/chunk-send/resume
        #: spans plus ``sent_ns`` chunk stamps); spans ship in a SPANS
        #: frame before CLOSE.  Cost is per chunk, never per event.
        self.trace = trace
        self.trace_id = 0
        self.recorder: Optional[SpanRecorder] = None

    # -- connection ----------------------------------------------------------

    def _dial(self) -> None:
        """Open the transport without speaking (used by query-only peers)."""
        self._sock = dial(self.address, self.timeout)
        self._decoder = FrameDecoder()
        self._inbox = []

    def _handshake(self, resume: bool) -> HelloAck:
        """Open the socket and perform the versioned handshake.

        With ``resume=True`` the server replies with its last durably
        applied sequence number; chunks at or below it are dropped from
        the unacked buffer (they survived server-side) and newer ones
        are retransmitted in order.
        """
        connect_start = time.monotonic_ns() // 1000
        self._dial()
        opened_at = time.monotonic_ns() // 1000
        self._send(
            Hello(
                session=self.session,
                detector=self.detector,
                backend=self.backend,
                resume=resume,
            )
        )
        self._hello_unanswered = True
        ack = self._wait_for(HelloAck)
        self._hello_unanswered = False
        self.credits = ack.credits
        if self.trace and ack.trace_id:
            self.trace_id = ack.trace_id
            if self.recorder is None:
                self.recorder = SpanRecorder(pid=PID_CLIENT_BASE + ack.trace_id)
                self.recorder.thread_name(0, self.session)
            self.recorder.span(
                "connect", connect_start, args={"address": self.address}
            )
            self.recorder.span(
                "resume" if resume else "handshake",
                opened_at,
                args={"session": self.session, "resume_seq": ack.resume_seq,
                      "credits": ack.credits},
            )
        if resume:
            self.unacked = [c for c in self.unacked if c.seq > ack.resume_seq]
            retransmit = self.unacked
            self.unacked = []
            idx = 0
            try:
                while idx < len(retransmit):
                    self._send_chunk(retransmit[idx])
                    idx += 1
                    while self.credits <= 0:
                        self.credit_waits += 1
                        self._pump()
            except BaseException:
                # exception-safe retransmit: the unsent tail must stay
                # in the unacked buffer or the next resume would skip
                # it and trip the server's sequence-gap check
                have = {c.seq for c in self.unacked}
                self.unacked.extend(
                    c for c in retransmit[idx:] if c.seq not in have
                )
                self.unacked.sort(key=lambda c: c.seq)
                raise
        return ack

    def _hello(self) -> HelloAck:
        """Say HELLO on a fresh connection: a new session until one was
        established, a resume after that."""
        maybe_ours = self._hello_unanswered
        try:
            ack = self._handshake(resume=self._established)
        except HandshakeError as exc:
            if (
                self._established
                or not maybe_ours
                or "already exists" not in str(exc)
            ):
                raise
            # an earlier HELLO of ours opened the session but its ack
            # died on the wire — that session is ours, resume it
            self._established = True
            self.abort()
            ack = self._handshake(resume=True)
        self._established = True
        return ack

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def abort(self) -> None:
        """Drop the connection without CLOSE (no retries, no healing)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self.credits = 0

    def connect(self, resume: bool = False) -> HelloAck:
        """Open the session (``resume``: an existing one), retrying
        transient failures.  The first attempt connects at once; only
        retries back off."""
        if resume:
            self._established = True
        self.abort()
        return self._retry(self._hello)

    def reconnect(self) -> HelloAck:
        """Resume this session on a fresh connection, by hand.

        This is how a caller of a ``retries=0`` client (a drain/restart
        script, a test) resumes after a drop; with a budget the client
        does the same automatically.
        """
        return self.connect(resume=True)

    # -- the retry engine ----------------------------------------------------

    def _backoff(self, attempt: int, exc: Optional[Exception]) -> None:
        """Sleep the jittered exponential delay (floored by retry_after)."""
        delay = min(self.backoff_max, self.backoff_base * (2 ** attempt))
        delay *= 0.5 + self._rng.random() / 2  # jitter in [0.5, 1.0)
        advised = getattr(exc, "retry_after", 0.0) or 0.0
        if advised > delay:
            delay = advised
        self.backoff_seconds += delay
        time.sleep(delay)

    def _retry(self, op: Callable[[], T]) -> T:
        """The one reconnect-and-retry loop: run ``op`` until it succeeds.

        A retryable failure — of ``op`` or of a reconnect — is healed by
        a backoff and a reconnect with resume, then ``op`` runs again.
        A failure that is not retryable raises at once (config errors
        stay loud).  The budget counts *non-progressing* reconnects: a
        successful reconnect, or a failed one that still shrank the
        unacked buffer (e.g. an evict-per-chunk server acking one
        retransmit per connection), resets it — only a wire that moves
        nothing at all exhausts it, raising the last failure.  A failure
        that escapes leaves the client disconnected.
        """
        attempt = 0
        exc: Optional[Exception] = None
        while True:
            before = len(self.unacked)
            try:
                if exc is not None:
                    self._backoff(attempt, exc)
                    self.retry_count += 1
                    self.abort()
                    self._hello()
                    if self.recorder is not None:
                        self.recorder.instant(
                            "reconnect",
                            args={"attempt": attempt + 1,
                                  "cause": type(exc).__name__},
                        )
                    attempt, exc = 0, None
                return op()
            except Exception as failure:  # noqa: BLE001 - filtered below
                if exc is not None and len(self.unacked) >= before:
                    attempt += 1
                else:
                    attempt = 0
                if not _is_retryable(failure) or attempt >= self.retries:
                    self.abort()
                    raise
                exc = failure

    # -- wire plumbing -------------------------------------------------------

    def _live(self) -> None:
        """A dropped connection is a (retryable) protocol failure."""
        if self._sock is None:
            raise ProtocolError(
                f"client is not connected, {len(self.unacked)} chunk(s) "
                f"unacked (reconnect with resume)"
            )

    def _send(self, msg) -> None:
        self._live()
        try:
            self._sock.sendall(encode_message(msg))
        except OSError as exc:
            # a server that refused a chunk sent its ERROR and closed:
            # that names the failure, the broken pipe does not
            refusal = self._refusal()
            if refusal is None:
                raise
            raise refusal from exc

    def _refusal(self) -> Optional[ProtocolError]:
        """The error an ERROR frame already on the socket names, if any.

        Reads what the server sent before it closed, blocking no longer
        than the socket timeout; CREDITs on the way still count.
        """
        try:
            while True:
                data = self._sock.recv(65536)
                if not data:
                    return None
                for frame in self._decoder.feed(data):
                    refusal = self._absorb(decode_message(frame))
                    if refusal is not None:
                        return refusal
        except (OSError, ProtocolError):
            return None

    def _pump(self) -> None:
        """Block until at least one frame arrives and absorb it.

        Each frame goes through :meth:`_absorb`; an ERROR raises the
        error it names.  Returns after the first recv that completes a
        frame, so credit-only traffic still makes progress visible to
        the caller's loop.
        """
        assert self._sock is not None
        progressed = False
        while not progressed:
            try:
                data = self._sock.recv(65536)
            except socket.timeout:
                raise ProtocolError(
                    f"no frame from {self.address} within {self.timeout}s"
                ) from None
            if not data:
                self._decoder.close()
                raise FrameTruncated(
                    "server closed the connection mid-conversation"
                )
            for frame in self._decoder.feed(data):
                progressed = True
                refusal = self._absorb(decode_message(frame))
                if refusal is not None:
                    raise refusal

    def _absorb(self, msg) -> Optional[ProtocolError]:
        """File one server frame; returns the error an ERROR frame names.

        CREDIT frames update the window and the unacked buffer in place;
        anything else lands in the inbox for :meth:`_wait_for`.
        """
        if isinstance(msg, Credit):
            self.credits += msg.credits
            self.unacked = [c for c in self.unacked if c.seq > msg.ack]
        elif isinstance(msg, ErrorMessage):
            # an answer: a refused HELLO opened no session
            self._hello_unanswered = False
            return msg.to_exception()
        else:
            self._inbox.append(msg)
        return None

    def _wait_for(self, kind):
        while True:
            for i, msg in enumerate(self._inbox):
                if isinstance(msg, kind):
                    return self._inbox.pop(i)
            self._pump()

    def _send_chunk(self, chunk: EventsChunk) -> None:
        """Stamp, trace, send, and track one EVENTS chunk (one credit)."""
        start = self.recorder.begin() if self.recorder is not None else 0
        if self.trace and self.trace_id:
            # fresh stamp per (re)transmit so chunk lag is measured from
            # the send that actually reached the server; the encoded
            # events are reused, only the frame's varint prefix changes
            chunk = chunk.stamped(time.monotonic_ns())
        self._send(chunk)
        if self.recorder is not None:
            self.recorder.span(
                "chunk-send",
                start,
                args={"seq": chunk.seq, "events": chunk.count},
                flow=chunk_flow_id(self.trace_id, chunk.seq),
            )
        self.credits -= 1
        self.unacked.append(chunk)

    def _await_credits(self) -> None:
        """Pump until every sent chunk has been CREDIT-acknowledged.

        Traced as a ``drain`` span with the chunks that were in flight:
        at close this is the wait for the window's last CREDITs.
        """
        self._live()
        start = self.recorder.begin() if self.recorder is not None else 0
        in_flight = len(self.unacked)
        while self.unacked:
            self._pump()
        if self.recorder is not None:
            self.recorder.span("drain", start, args={"chunks": in_flight})

    # -- session operations --------------------------------------------------

    def send_events(self, events: Sequence[Event]) -> None:
        """Stream events as sequenced chunks, honoring the credit window.

        Any wire death resumes from the lost chunk.  Chunk boundaries
        are deterministic (fixed ``chunk_size``) and ``events_sent``
        advances only per fully sent chunk, so slicing the input at
        ``events_sent - base`` restarts exactly at the first chunk the
        server might not have — whose sequence number then dedupes it if
        the server *did* get it.
        """
        events = list(events)
        base = self.events_sent

        def stream() -> None:
            self._live()
            for chunk in chunk_events(
                events[self.events_sent - base:], self.chunk_size, self.next_seq
            ):
                stall_start: Optional[int] = None
                while self.credits <= 0:
                    if stall_start is None and self.recorder is not None:
                        stall_start = self.recorder.begin()
                    self.credit_waits += 1
                    self._pump()
                if stall_start is not None:
                    self.recorder.span(
                        "credit-stall", stall_start,
                        args={"before_seq": chunk.seq},
                    )
                self._send_chunk(chunk)
                self.next_seq = chunk.seq + 1
                self.events_sent += chunk.count

        self._retry(stream)

    def send_sites(self, sites: Dict[int, str]) -> None:
        """Ship (part of) the site-id -> source-location name table;
        retried like events (SITES is idempotent)."""
        if sites:
            self._retry(lambda: self._send(Sites(sites=dict(sites))))

    def drain(self) -> None:
        """Block until every sent chunk has been CREDIT-acknowledged,
        reconnecting as needed; a no-op with nothing pending."""
        if self.unacked:
            self._retry(self._await_credits)

    def query(self, trace: bool = False) -> Dict:
        """The server's live status document (merged report + roster).

        ``trace=True`` asks for the merged service trace too
        (``doc["trace"]``, absent if it outgrew the frame ceiling).
        """

        def ask() -> Dict:
            self._send(Query(trace=trace))
            return self._wait_for(Report).doc

        return self._retry(ask)

    def ship_spans(self) -> int:
        """Send the recorder's spans in a SPANS frame; returns the count.

        Keeps the local buffer (a resume re-ships the grown batch; the
        server keeps only the latest batch per sender).
        """
        if self.recorder is None or not len(self.recorder):
            return 0
        events = self.recorder.snapshot()
        self._send(
            Spans(
                pid=self.recorder.pid,
                name=f"client-{self.session}",
                events=tuple(events),
                dropped=self.recorder.dropped,
            )
        )
        return len(events)

    def _close_once(self) -> None:
        self._await_credits()
        self.ship_spans()
        self._send(Close(seq=self.next_seq - 1))
        self.last_summary = self._wait_for(CloseAck).summary
        self.abort()

    def close(self) -> Dict:
        """Drain, send CLOSE, await the summary, drop the connection.

        Idempotent and exception-safe: the close handshake heals through
        failures like any operation, and once the retry budget is spent
        the best-known summary (possibly ``{}``) is returned rather than
        raised, with the swallowed error kept in :attr:`close_error`.
        Nothing acknowledged is lost either way: the session stays
        resumable server-side.
        """
        if self._closed:
            return self.last_summary or {}
        self.close_error = None
        try:
            self._retry(self._close_once)
        except (OSError, ProtocolError) as exc:
            self.close_error = exc
        self._closed = True
        return self.last_summary or {}

    def __enter__(self) -> "ResilientClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()
        else:
            self.abort()


def query_server(address: str, timeout: float = 10.0, trace: bool = False) -> Dict:
    """One-shot sessionless status query: QUERY in, REPORT doc out.

    The server answers QUERY before any HELLO, so dashboards and
    ``repro report --follow`` can poll without owning a session.
    ``trace=True`` also requests the merged service trace document.
    """
    client = ResilientClient(address, "-query-", timeout=timeout, retries=0)
    client._dial()
    try:
        return client.query(trace=trace)
    finally:
        client.abort()


# -- the RaceMonitor-backed shim ----------------------------------------------


class ForwardingDetector:
    """A detector-shaped event buffer for :class:`TelemetryMonitor`.

    Implements exactly the surface :class:`~repro.live.RaceMonitor`
    touches — the one event entry ``step``, ``races``/
    ``distinct_races`` and ``_events_seen`` — but performs no analysis:
    every event, sampling markers included, is appended as an
    :class:`~repro.trace.events.Event` to a buffer the shim flushes over
    the wire.  The monitor's string sites (``file:line``) are interned
    to dense integers here; :attr:`new_sites` collects not-yet-shipped
    name-table entries.
    """

    name = "forwarding"
    backend_name = "remote"

    def __init__(self, on_chunk: Optional[Callable[[], None]] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.buffer: List[Event] = []
        self.races: List = []
        self.distinct_races: set = set()
        self._events_seen = 0
        self.observer = None
        self._site_ids: Dict[str, int] = {}
        self.new_sites: Dict[int, str] = {}
        self._on_chunk = on_chunk
        self._chunk_size = chunk_size

    def _site_id(self, site) -> int:
        if isinstance(site, int):
            return site
        sid = self._site_ids.get(site)
        if sid is None:
            sid = self._site_ids[site] = len(self._site_ids) + 1
            self.new_sites[sid] = site
        return sid

    def step(self, k: int, tid: int, target: int, site=0) -> None:
        """Buffer one event given as its kind id, like ``Detector.step``."""
        self._events_seen += 1
        self.buffer.append(Event(ID_TO_KIND[k], tid, target, self._site_id(site)))
        if (
            self._on_chunk is not None
            and len(self.buffer) >= self._chunk_size
        ):
            self._on_chunk()

    def take(self) -> List[Event]:
        """Swap out and return the buffered events."""
        out, self.buffer = self.buffer, []
        return out

    def take_sites(self) -> Dict[int, str]:
        out, self.new_sites = self.new_sites, {}
        return out


class TelemetryMonitor:
    """Monitor a real threaded program, analyze it on a remote server.

    Drop-in for the local pattern::

        tm = TelemetryMonitor("tcp://127.0.0.1:7777", session="checkout")
        counter = tm.shared("counter", 0)
        threads = [tm.thread(bump) for _ in range(4)]
        ...
        summary = tm.close()        # {"races": ..., "events": ...}

    ``shared``/``lock``/``volatile``/``thread`` delegate to an inner
    :class:`~repro.live.RaceMonitor` whose detector slot holds a
    :class:`ForwardingDetector`; events auto-flush over the wire every
    ``chunk_size`` events (under the monitor mutex, so ordering matches
    the interleaving the monitor observed) and :meth:`close` flushes the
    tail, closes the session, and returns the server's summary.
    """

    def __init__(
        self,
        address: str,
        session: str,
        detector: str = "fasttrack",
        backend: Optional[str] = None,
        chunk_size: int = 256,
    ) -> None:
        # imported here: repro.live imports are heavier than this module
        from ..live import RaceMonitor

        # monitoring streams through the self-healing client: a dropped
        # connection mid-run resumes instead of raising into the
        # monitored program's threads
        self.client = ResilientClient(
            address, session, detector=detector, backend=backend,
            chunk_size=chunk_size,
        )
        self._fwd = ForwardingDetector(
            on_chunk=self._flush_buffered, chunk_size=chunk_size
        )
        self.monitor = RaceMonitor(detector=self._fwd)
        self._closed = False
        self.client.connect()

    # -- delegated monitoring API -------------------------------------------

    def shared(self, name: str, initial: Any = None):
        return self.monitor.shared(name, initial)

    def lock(self, name: str):
        return self.monitor.lock(name)

    def volatile(self, name: str, initial: Any = None):
        return self.monitor.volatile(name, initial)

    def thread(self, target: Callable[..., Any], *args: Any, **kwargs: Any):
        return self.monitor.thread(target, *args, **kwargs)

    # -- streaming -----------------------------------------------------------

    def _flush_buffered(self) -> None:
        """Ship buffered events (called with the monitor mutex held)."""
        sites = self._fwd.take_sites()
        if sites:
            self.client.send_sites(sites)
        events = self._fwd.take()
        if events:
            self.client.send_events(events)

    def flush(self) -> None:
        """Ship everything buffered so far."""
        with self.monitor._mutex:
            self._flush_buffered()

    def query(self) -> Dict:
        return self.client.query()

    def close(self) -> Dict:
        """Flush the tail, close the session, return the server summary."""
        if self._closed:
            return self.client.last_summary or {}
        self.flush()
        summary = self.client.close()
        self._closed = True
        return summary

    def __enter__(self) -> "TelemetryMonitor":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()
        else:
            self.client.abort()
