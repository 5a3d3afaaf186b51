"""The self-healing telemetry client: reconnect-with-resume as policy.

:class:`~repro.net.client.TelemetryClient` already owns the *mechanism*
for lossless recovery — sequenced chunks, the unacked buffer, HELLO
``resume`` handshakes — but leaves the *policy* to the caller: nothing
reconnects automatically, so a single connection drop mid-stream raises
out of ``send_events``.  :class:`ResilientClient` wraps one client with
that policy:

* every transport or protocol failure (``OSError``, a corrupted or
  truncated frame, a superseded connection, a BUSY or eviction answer)
  triggers an automatic reconnect-with-resume and a retry of the
  interrupted operation from exactly where it stopped — chunk-aligned,
  so the server's duplicate suppression makes delivery exactly-once
  even when a frame died on the wire after being applied;
* reconnects back off exponentially with **seeded** jitter (a
  ``random.Random`` derived from the session name unless given), so a
  thousand clients dropped by one server restart do not stampede back
  in lockstep, and chaos tests replay the identical schedule;
* a server-advised ``retry_after`` (BUSY handshakes, evictions) floors
  the computed delay — overloaded servers get the quiet they asked for;
* one retry loop serves every operation, with a bounded budget
  (``retries`` per operation): a server that is truly gone produces
  the *original* named error, not an infinite loop;
* the pending buffer stays bounded: the credit window caps unacked
  chunks;
* ``close()`` is idempotent and exception-safe, and — unlike the raw
  client's — *completes the close handshake* under faults: a summary
  lost to a dying connection is re-fetched on a fresh resume.

Config errors never retry: an unknown detector/backend, a schema
mismatch, or resuming a session the server has never heard of is a
:class:`~repro.net.protocol.HandshakeError` and raises immediately.
The one exception is the ambiguous first connect — if our HELLO opened
a session but the ack died on the wire, the server answers the retry
with "already exists"; that is *this* client's session, so the retry
switches to ``resume`` instead of failing.

Every reconnect is recorded as a ``reconnect`` instant on the client's
span recorder; the server mines those from the shipped SPANS batch into
its ``net_retries_total`` counter, so operator dashboards see wire
instability without any per-session metric changing (parity holds).
"""

from __future__ import annotations

import random
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from ..trace.events import Event
from .client import DEFAULT_CHUNK_SIZE, TelemetryClient
from .protocol import HandshakeError, HelloAck, ProtocolError

__all__ = ["ResilientClient", "DEFAULT_RETRIES"]

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
    """A :class:`TelemetryClient` that heals itself (see module doc).

    Drop-in for the raw client everywhere the repo uses one —
    ``repro stream``, :class:`~repro.net.client.TelemetryMonitor` — with
    the same operation surface plus the retry knobs.
    """

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
        self.client = TelemetryClient(
            address, session, detector=detector, backend=backend,
            chunk_size=chunk_size, timeout=timeout, trace=trace,
        )
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        if seed is None:
            seed = zlib.crc32(session.encode("utf-8"))
        self._rng = random.Random(seed)
        #: total reconnect attempts performed over this client's life
        self.retry_count = 0
        #: wall-clock seconds spent sleeping in backoff
        self.backoff_seconds = 0.0
        #: True once a HELLO(_ACK) round-trip established the session
        self._established = False
        #: the HELLO_ACK of the current connection
        self._ack: Optional[HelloAck] = None
        self._closed = False

    # -- delegated read surface ----------------------------------------------

    @property
    def address(self) -> str:
        return self.client.address

    @property
    def session(self) -> str:
        return self.client.session

    @property
    def connected(self) -> bool:
        return self.client.connected

    @property
    def last_summary(self) -> Optional[Dict]:
        return self.client.last_summary

    @property
    def events_sent(self) -> int:
        return self.client.events_sent

    @property
    def credit_waits(self) -> int:
        return self.client.credit_waits

    @property
    def unacked(self) -> List:
        return self.client.unacked

    @property
    def recorder(self):
        return self.client.recorder

    @property
    def trace_id(self) -> int:
        return self.client.trace_id

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

    def _open(self) -> HelloAck:
        """Say HELLO unless connected: a new session until one was
        established, a resume after that.  Returns the connection's ack."""
        if self.client.connected:
            return self._ack
        try:
            self._ack = self.client.connect(resume=self._established)
        except HandshakeError as exc:
            if self._established or "already exists" not in str(exc):
                raise
            # our first HELLO opened the session but the ack died on the
            # wire — that half-open session is ours, resume it
            self.client.abort()
            self._established = True
            self._ack = self.client.connect(resume=True)
        self._established = True
        return self._ack

    def _live(self) -> TelemetryClient:
        """The raw client; a dropped connection is a retryable failure."""
        if not self.client.connected:
            raise ProtocolError("client is not connected")
        return self.client

    def _retry(self, op: Callable[[], T]) -> T:
        """The one reconnect-and-retry loop: run ``op`` until it succeeds.

        A retryable failure — of ``op`` or of a reconnect — is healed by
        a backoff and a reconnect with resume, then ``op`` runs again.
        A failure that is not retryable raises at once (config errors
        stay loud).  The budget counts *non-progressing* reconnects: a
        successful reconnect, or a failed one that still shrank the
        unacked buffer (e.g. an evict-per-chunk server acking one
        retransmit per connection), resets it — only a wire that moves
        nothing at all exhausts it, raising the last failure.
        """
        attempt = 0
        exc: Optional[Exception] = None
        while True:
            before = len(self.client.unacked)
            try:
                if exc is not None:
                    self._backoff(attempt, exc)
                    self.retry_count += 1
                    self.client.abort()
                    self._open()
                    if self.client.recorder is not None:
                        self.client.recorder.instant(
                            "reconnect",
                            args={"attempt": attempt + 1,
                                  "cause": type(exc).__name__},
                        )
                    attempt, exc = 0, None
                return op()
            except Exception as failure:  # noqa: BLE001 - filtered below
                if not _is_retryable(failure):
                    raise
                if exc is not None and len(self.client.unacked) >= before:
                    attempt += 1
                else:
                    attempt = 0
                if attempt >= self.retries:
                    raise
                exc = failure

    # -- operations ----------------------------------------------------------

    def connect(self, resume: bool = False) -> HelloAck:
        """Open the session, retrying transient connect failures.

        The first attempt connects at once; only retries back off.
        """
        if resume:
            self._established = True
        self.client.abort()
        return self._retry(self._open)

    def send_events(self, events: Sequence[Event]) -> None:
        """Stream events; any wire death resumes from the lost chunk.

        Chunk boundaries are deterministic (fixed ``chunk_size``), and
        the raw client advances ``events_sent`` only per fully sent
        chunk, so slicing the input at ``events_sent - base`` restarts
        exactly at the first chunk the server might not have — whose
        sequence number then dedupes it if the server *did* get it.
        """
        events = list(events)
        base = self.client.events_sent
        self._retry(lambda: self._live().send_events(
            events[self.client.events_sent - base:]
        ))

    def send_sites(self, sites: Dict[int, str]) -> None:
        """Ship site names; retried like events (SITES is idempotent)."""
        if sites:
            self._retry(lambda: self._live().send_sites(sites))

    def drain(self) -> None:
        """Wait for every chunk's CREDIT, reconnecting as needed."""
        if self.client.unacked:
            self._retry(lambda: self._live().drain())

    def query(self, trace: bool = False) -> Dict:
        return self._retry(lambda: self._live().query(trace=trace))

    def close(self) -> Dict:
        """Complete the close handshake, healing through failures.

        Unlike the raw client's exception-safe close (which gives up
        and returns the best-known summary), this one re-resumes and
        retries until the server's CLOSE_ACK summary actually arrives —
        or the retry budget is spent, in which case the last summary
        (possibly ``{}``) is returned rather than raising: by this
        point every chunk was durably applied or is still spooled
        server-side, so nothing is lost either way.
        """
        if self._closed:
            return self.client.last_summary or {}
        budget = self.retries
        while True:
            if not self.client.connected:
                try:
                    self._retry(self._live)
                except (OSError, ProtocolError):
                    self._closed = True
                    return self.client.last_summary or {}
            before = len(self.client.unacked)
            summary = self.client.close()
            if self.client.close_error is None:
                self._closed = True
                return summary
            exc = self.client.close_error
            if not _is_retryable(exc) or budget <= 0:
                self._closed = True
                return self.client.last_summary or {}
            if len(self.client.unacked) < before:
                budget = self.retries  # the wire moved: progress resets it
            else:
                budget -= 1

    def abort(self) -> None:
        """Drop the connection without CLOSE (no retries, no healing)."""
        self.client.abort()

    def __enter__(self) -> "ResilientClient":
        if not self.connected:
            self.connect()
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()
        else:
            self.abort()
