"""The race-telemetry front tier: sockets, sessions, spools, merging.

One :class:`TelemetryServer` accepts ``repro/telemetry/v1`` connections
on a TCP or Unix socket, one thread per connection.  Each connection
drives a session through its lifecycle:

* **hello/ack** — register (or resume) the session, assign it to a
  shard (:func:`repro.net.shard.shard_of`), grant the initial credit
  window;
* **events** — verify the sequence number, ship the chunk to the
  session's shard worker, append it to the session's disk spool, then
  return the credit.  The order matters: a chunk is acknowledged
  (CREDIT with ``ack=seq``) only once it is both *analyzed* and
  *spooled*, so every acknowledged chunk survives a worker crash and
  every unacknowledged chunk is still owned by the client — exactly-once
  end to end.  The chunk stays the binio bytes the client sent: the
  front tier checks their envelope and forwards them verbatim to the
  shard and the spool, and only the shard decodes events;
* **close / disconnect** — finalize the session on its shard (the
  re-entrant finalize from :mod:`repro.obs.observer`, so a disconnect
  followed by a resume followed by another finalize never
  double-counts) and fold its report into the merge tier.

**Crash recovery.**  A dead shard worker surfaces as
:class:`~repro.net.shard.ShardCrashed`.  Recovery runs under the shard's
pipe lock (no other request can interleave): respawn a clean worker —
any injected crash plan applied to the first process only — re-open
every session owned by that shard, replay their spools, then let the
failed request retry its in-flight chunk.  Detector state is rebuilt
deterministically from the spools, so the post-crash report is
byte-identical to a crash-free run; the soak suite pins this.

**Merge tier.**  :meth:`TelemetryServer.query_doc` re-finalizes every
session (cheap, absolute-valued) and folds the per-session
``repro/race-report/v1`` documents with
:func:`repro.obs.reports.merge_reports` and the metrics snapshots with
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` — the same
deterministic folds the experiment matrix uses.  ``repro report
--follow`` and the QUERY frame serve this document live.

Memory is bounded by construction: frames are size-capped, the
per-connection receive buffer holds at most one partial frame (its
high-water mark is exported as a gauge), chunks go to a worker and a
spool file instead of accumulating, and detector metadata growth is the
same as offline analysis of the same trace.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..analysis.parallel import DETECTOR_FACTORIES
from ..core.backend import BACKENDS
from ..obs.metrics import MetricsRegistry
from ..obs.quality import merge_coverage
from ..obs.reports import merge_reports
from ..obs.tracing import (
    PID_FRONT,
    PID_MERGE,
    SpanRecorder,
    assemble_service_trace,
)
from ..trace.binio import check_binary
# no longer called here; benchmarks/e2e/worker.py wraps this name
from ..trace.binio import dumps_binary  # noqa: F401
from .client import parse_address
from .protocol import (
    DEFAULT_CREDITS,
    Close,
    CloseAck,
    Credit,
    ErrorMessage,
    EventsChunk,
    FrameDecoder,
    FrameTooLarge,
    HandshakeError,
    Heartbeat,
    Hello,
    HelloAck,
    ProtocolError,
    Query,
    Report,
    ServerBusy,
    SessionEvicted,
    SessionStateError,
    Sites,
    Spans,
    decode_message,
    encode_message,
)
from .shard import ShardCrashed, ShardPool

__all__ = [
    "LATENCY_BUCKETS_US",
    "QUARANTINE_RESTARTS",
    "ServerConfig",
    "TelemetryServer",
    "STATUS_SCHEMA",
]

#: schema of the live status document served on QUERY
STATUS_SCHEMA = "repro/telemetry-status/v1"

_RECV_CHUNK = 65536

#: bucket bounds for the wall-clock latency histograms, in microseconds
#: (powers of four: 4 us up to ~67 s, 13 buckets + overflow)
LATENCY_BUCKETS_US = tuple(4 ** i for i in range(1, 14))

#: a shard whose worker restarted more than this many times is flagged
#: quarantined in the health gauges (observability only — recovery
#: itself never gives up on a shard)
QUARANTINE_RESTARTS = 3

#: session manifest a graceful drain writes into the spool directory so
#: a restarted server (same ``--spool-dir``) re-adopts every session
MANIFEST_NAME = "sessions.json"


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for one server; the defaults suit tests and local use."""

    address: str = "tcp://127.0.0.1:0"
    n_shards: int = 2
    #: "process" = real PipeWorker processes; "inline" = in-process shards
    shard_mode: str = "process"
    #: initial credit window granted per session in HELLO_ACK
    credits: int = DEFAULT_CREDITS
    max_sessions: int = 64
    #: chunk spool directory for crash replay (default: a temp dir the
    #: server creates and removes on stop)
    spool_dir: Optional[str] = None
    #: fault injection: shard -> crash before that worker's Nth chunk
    crash_plan: Optional[Dict[int, int]] = None
    #: slow-shard injection: seconds of delay per chunk (backpressure)
    chunk_delay: float = 0.0
    #: append human-readable server events to this file (CI artifacts)
    log_path: Optional[str] = None
    #: ``host:port`` for the HTTP observability endpoint (``/metrics``
    #: Prometheus text, ``/status`` JSON, ``/healthz``); None = off
    http: Optional[str] = None
    #: per-session spool disk quota in bytes (None = unlimited); a
    #: session that outgrows it is *evicted* — its progress stays
    #: durably spooled and resumable, but the connection is told to
    #: go away (ERROR ``evicted`` + ``retry_after``)
    spool_quota_bytes: Optional[int] = None
    #: aggregate spool bytes across all sessions above which the server
    #: defends itself: new sessions get BUSY and credit grants are
    #: throttled by ``throttle_delay`` (None = off)
    memory_watermark_bytes: Optional[int] = None
    #: seconds an *attached* session may go frameless before the
    #: sweeper evicts its connection (None = off); the session itself
    #: stays resumable — only the slow socket is shed
    slow_client_timeout: Optional[float] = None
    #: advisory backoff stamped on BUSY and eviction errors
    busy_retry_after: float = 1.0
    #: sleep inserted before each credit grant above the watermark
    throttle_delay: float = 0.05
    #: max seconds :meth:`TelemetryServer.drain` waits for attached
    #: sessions to finish before evicting the stragglers
    drain_timeout: float = 10.0


class _Session:
    """Registry entry for one telemetry session."""

    __slots__ = (
        "name", "detector", "backend", "shard", "applied_seq",
        "spool_path", "attached", "closed", "site_names", "last_doc",
        "chunks", "owner", "lock", "trace_id", "last_frame_at",
        "spool_bytes",
    )

    def __init__(
        self, name: str, detector: str, backend: Optional[str],
        shard: int, spool_path: Path, trace_id: int = 0,
    ) -> None:
        self.name = name
        self.detector = detector
        self.backend = backend
        self.shard = shard
        self.applied_seq = 0
        self.spool_path = spool_path
        #: server-assigned wire-tracing id (stable across resume)
        self.trace_id = trace_id
        self.attached = False
        self.closed = False
        self.site_names: Dict[int, str] = {}
        self.last_doc: Optional[Dict] = None
        self.chunks = 0
        #: the socket currently attached to this session; a resume takes
        #: over from a half-dead connection, and only the owner detaches
        self.owner: Optional[object] = None
        #: serializes the check-apply-spool-ack sequence so a takeover
        #: can never interleave with the superseded connection's frames
        self.lock = threading.Lock()
        #: monotonic stamp of the last frame on the owning connection
        #: (slow-client sweeper input)
        self.last_frame_at = time.monotonic()
        #: bytes this session has spooled (disk-quota accounting)
        self.spool_bytes = 0


def _read_spool(path: Path) -> List[bytes]:
    """Every spooled chunk of a session, in append order.

    The spool is ``u32 len || binio doc`` per chunk; each document's
    envelope (header, count, CRC) is checked at rest and the bytes are
    returned as they are, for the shard to decode.
    """
    chunks: List[bytes] = []
    if not path.exists():
        return chunks
    data = path.read_bytes()
    pos = 0
    while pos + 4 <= len(data):
        size = int.from_bytes(data[pos : pos + 4], "little")
        pos += 4
        doc = data[pos : pos + size]
        check_binary(doc)
        chunks.append(doc)
        pos += size
    return chunks


def _replay_session(sess: _Session, call) -> int:
    """Rebuild one session on its shard; returns the chunks replayed.

    Opens the session, restores its site table, then re-applies every
    spooled chunk in order, so the detector state is byte-identical to
    the state the chunks built the first time.  ``call`` issues one raw
    shard op message.  Crash recovery and manifest adoption both use it.
    """
    call(("open", sess.name, sess.detector, sess.backend, sess.trace_id))
    if sess.site_names:
        call(("sites", sess.name, dict(sess.site_names)))
    chunks = _read_spool(sess.spool_path)
    for data in chunks:
        call(("events", sess.name, data, {"replay": True}))
    return len(chunks)


class TelemetryServer:
    """A streaming race-detection server (see the module docstring)."""

    def __init__(self, config: ServerConfig = ServerConfig()) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self._pool: Optional[ShardPool] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conn_socks: List[socket.socket] = []
        self._sessions: Dict[str, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._stopping = threading.Event()
        self._spool_dir: Optional[Path] = None
        self._owns_spool = False
        self._unix_path: Optional[str] = None
        self.address = config.address
        #: high-water mark of any connection's receive buffer, in bytes
        self.rx_buffer_high = 0
        #: front-tier and merge-tier span recorders (always on; span
        #: cost is per frame/fold, never per event)
        self.recorder = SpanRecorder(pid=PID_FRONT)
        self.merge_recorder = SpanRecorder(pid=PID_MERGE)
        #: span batches shipped by clients in SPANS frames
        self._client_spans: List[Dict] = []
        self._spans_lock = threading.Lock()
        self._trace_counter = 0
        self._conn_counter = 0
        #: in-flight shard dispatches per shard (queue-depth gauges)
        self._queue_depth: List[int] = [0] * config.n_shards
        self._queue_lock = threading.Lock()
        self._http_server = None
        #: bound address of the HTTP observability endpoint, once started
        self.http_address: Optional[str] = None
        #: drain lifecycle: serving -> draining -> drained -> stopped
        self._lifecycle = "serving"
        self._lifecycle_lock = threading.Lock()
        #: aggregate spooled bytes across sessions (watermark input)
        self._spool_bytes_total = 0
        #: sessions re-adopted from a previous server's manifest
        self.adopted_sessions = 0
        # prime the resilience series so scrapes and status documents
        # carry them from the first sample, not the first incident
        self.metrics.counter("net_shed_sessions")
        self.metrics.counter("net_retries_total")
        self.metrics.counter("net_throttled_credits")
        self.metrics.gauge("net_drain_seconds").set(0)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "TelemetryServer":
        cfg = self.config
        if cfg.spool_dir is not None:
            self._spool_dir = Path(cfg.spool_dir)
            self._spool_dir.mkdir(parents=True, exist_ok=True)
        else:
            self._spool_dir = Path(tempfile.mkdtemp(prefix="repro-telemetry-"))
            self._owns_spool = True
        self._pool = ShardPool(
            n_shards=cfg.n_shards,
            mode=cfg.shard_mode,
            chunk_delay=cfg.chunk_delay,
            crash_plan=cfg.crash_plan,
        )
        # a previous server's graceful drain left a manifest here: adopt
        # every spooled session *before* the listener opens, so resuming
        # clients find their sessions durably re-applied
        self._adopt_manifest()
        kind, target = parse_address(cfg.address)
        if kind == "tcp":
            host, port = target
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            self.address = f"tcp://{host}:{sock.getsockname()[1]}"
        else:
            if os.path.exists(target):
                os.unlink(target)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(target)
            self._unix_path = target
            self.address = f"unix://{target}"
        sock.listen(16)
        sock.settimeout(0.2)
        self._listener = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="telemetry-accept", daemon=True
        )
        self._accept_thread.start()
        if cfg.http:
            from .http import ObservabilityHTTPServer

            self._http_server = ObservabilityHTTPServer(self, cfg.http)
            self.http_address = self._http_server.address
            self._log(f"observability endpoint on http://{self.http_address}")
        self._log(f"serving {self.address} with {cfg.n_shards} "
                  f"{cfg.shard_mode} shard(s)")
        return self

    def stop(self) -> None:
        """Clean shutdown: finalize every session, release everything."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._http_server is not None:
            self._http_server.stop()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for sock in list(self._conn_socks):
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for thread in list(self._conn_threads):
            thread.join(timeout=5.0)
        # final fold so query_doc()/log reflect every session
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for sess in sessions:
            try:
                self._finalize_session(sess)
            except (ShardCrashed, Exception):  # pragma: no cover - defensive
                pass
        if self.config.log_path:
            self._log(
                f"stopped: {len(sessions)} session(s), "
                f"{self.metrics.counter('net_events_total').value} events, "
                f"{self._pool.worker_restarts if self._pool else 0} "
                f"worker restart(s)"
            )
        if self._pool is not None:
            self._pool.stop()
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)
        if self._owns_spool and self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
        self._lifecycle = "stopped"

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- graceful drain / restart --------------------------------------------

    @property
    def lifecycle(self) -> str:
        """``serving`` → ``draining`` → ``drained`` → ``stopped``."""
        return self._lifecycle

    def drain(self, timeout: Optional[float] = None) -> Dict:
        """Graceful-shutdown prologue: stop accepting, finish, flush.

        The sequence load balancers and clients can rely on:

        1. lifecycle flips to ``draining`` — ``/healthz`` starts
           answering 503 and new sessions get BUSY — and the listener
           closes, so nothing new connects;
        2. attached sessions get up to ``timeout`` seconds (default
           ``drain_timeout``) to finish their in-flight chunks; every
           chunk acknowledged during the wait is durably applied and
           spooled as usual;
        3. stragglers are evicted (ERROR ``evicted`` + ``retry_after``)
           — shed, not lost: their spools survive;
        4. every session is finalized and the manifest
           (``sessions.json``) is written into the spool directory, so
           a restarted server on the same ``--spool-dir`` re-adopts
           everything and resuming clients lose nothing.

        Idempotent; returns a small summary dict and records the wall
        clock spent in the ``net_drain_seconds`` gauge.
        """
        with self._lifecycle_lock:
            if self._lifecycle != "serving":
                return {"lifecycle": self._lifecycle, "drained": 0, "evicted": 0}
            self._lifecycle = "draining"
        drain_start = time.monotonic()
        if timeout is None:
            timeout = self.config.drain_timeout
        self._log("draining: listener closing, waiting for attached sessions")
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        deadline = drain_start + timeout
        while time.monotonic() < deadline:
            with self._sessions_lock:
                attached = [s for s in self._sessions.values() if s.attached]
            if not attached:
                break
            time.sleep(0.05)
        evicted = 0
        with self._sessions_lock:
            stragglers = [s for s in self._sessions.values() if s.attached]
        for sess in stragglers:
            self._evict(sess, f"server draining (deadline {timeout:.1f}s)")
            evicted += 1
        for thread in list(self._conn_threads):
            thread.join(timeout=2.0)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for sess in sessions:
            try:
                self._finalize_session(sess)
            except ShardCrashed as exc:  # pragma: no cover - defensive
                self._recover(exc.shard)
        self._write_manifest()
        drain_seconds = time.monotonic() - drain_start
        self.metrics.gauge("net_drain_seconds").set_max(
            round(drain_seconds, 6)
        )
        self.recorder.instant(
            "drain",
            args={"sessions": len(sessions), "evicted": evicted,
                  "seconds": round(drain_seconds, 3)},
        )
        self._lifecycle = "drained"
        self._log(
            f"drained in {drain_seconds:.3f}s: {len(sessions)} session(s) "
            f"flushed, {evicted} straggler(s) evicted"
        )
        return {
            "lifecycle": self._lifecycle,
            "drained": len(sessions),
            "evicted": evicted,
            "seconds": drain_seconds,
        }

    def _write_manifest(self) -> None:
        """Persist the session registry next to the spools."""
        if self._spool_dir is None:
            return
        with self._sessions_lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.name)
            doc = {
                "schema": STATUS_SCHEMA + "+manifest",
                "trace_counter": self._trace_counter,
                "sessions": [
                    {
                        "name": sess.name,
                        "detector": sess.detector,
                        "backend": sess.backend,
                        "spool": sess.spool_path.name,
                        "applied_seq": sess.applied_seq,
                        "chunks": sess.chunks,
                        "trace_id": sess.trace_id,
                        "closed": sess.closed,
                        "site_names": {
                            str(k): v for k, v in sess.site_names.items()
                        },
                    }
                    for sess in sessions
                ],
            }
        path = self._spool_dir / MANIFEST_NAME
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    def _adopt_manifest(self) -> None:
        """Rebuild sessions a drained predecessor left in the spool dir.

        The replay crash recovery uses (:func:`_replay_session`), so
        adopted detector state is byte-identical to the state the old
        server held, and a client resuming here continues exactly where
        its CREDIT stream stopped.
        """
        assert self._pool is not None
        if self._spool_dir is None:
            return
        path = self._spool_dir / MANIFEST_NAME
        if not path.exists():
            return
        doc = json.loads(path.read_text(encoding="utf-8"))
        for entry in doc.get("sessions", []):
            spool = self._spool_dir / entry["spool"]
            sess = _Session(
                entry["name"], entry["detector"], entry.get("backend"),
                shard=self._pool.shard_of(entry["name"]), spool_path=spool,
                trace_id=entry.get("trace_id", 0),
            )
            sess.applied_seq = entry["applied_seq"]
            sess.chunks = entry.get("chunks", 0)
            sess.closed = entry.get("closed", False)
            sess.site_names = {
                int(k): v for k, v in entry.get("site_names", {}).items()
            }
            sess.spool_bytes = spool.stat().st_size if spool.exists() else 0
            _replay_session(
                sess, lambda msg: self._pool.call(sess.shard, msg)
            )
            self._finalize_session(sess)
            with self._sessions_lock:
                self._sessions[sess.name] = sess
                self._spool_bytes_total += sess.spool_bytes
            self.adopted_sessions += 1
            self._log(
                f"adopted session {sess.name} at seq {sess.applied_seq} "
                f"({sess.spool_bytes} spooled byte(s))"
            )
        self._trace_counter = max(
            self._trace_counter, doc.get("trace_counter", 0)
        )
        if self.adopted_sessions:
            self.metrics.counter("net_sessions_adopted").inc(
                self.adopted_sessions
            )
            self._log(
                f"adopted {self.adopted_sessions} session(s) from "
                f"{path.name}"
            )

    def _busy(self, why: str) -> None:
        """Refuse admission with a BUSY error carrying ``retry_after``."""
        self.metrics.counter("net_shed_sessions").inc()
        exc = ServerBusy(f"{why} — retry later")
        exc.retry_after = self.config.busy_retry_after
        raise exc

    def _evict(self, sess: _Session, why: str) -> None:
        """Shed one attached session's connection (session survives)."""
        with sess.lock:
            sock = sess.owner if sess.attached else None
            if sock is None:
                return
            self.metrics.counter("net_shed_sessions").inc()
            self.metrics.counter(
                "net_protocol_errors", code=SessionEvicted.code
            ).inc()
            self._send(
                sock,
                ErrorMessage(
                    error_code=SessionEvicted.code,
                    detail=f"session {sess.name!r} evicted: {why}",
                    retry_after=self.config.busy_retry_after,
                ),
            )
            self.recorder.instant(
                "evict", args={"session": sess.name, "why": why}
            )
            self._log(f"session {sess.name} evicted: {why}")
        # closing outside the lock: the conn thread's recv fails, and its
        # cleanup path (which takes the lock) detaches and finalizes
        try:
            sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    # -- accept / connection loops -------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                self._sweep_slow_clients()
                continue
            except OSError:
                return  # listener closed
            self._conn_socks.append(sock)
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            )
            self._conn_threads.append(thread)
            thread.start()

    def _send(self, sock: socket.socket, msg) -> None:
        try:
            sock.sendall(encode_message(msg))
        except OSError:  # pragma: no cover - peer vanished mid-send
            pass

    def _sweep_slow_clients(self) -> None:
        """Evict attached sessions whose connection went quiet too long.

        Runs on the accept loop's idle tick.  A slow client holds a
        session lock nobody else can take over (a resume would *takeover*
        only after its EOF) and pins spool/credit state; shedding the
        socket — never the session — frees the server while keeping the
        client's progress resumable.
        """
        timeout = self.config.slow_client_timeout
        if timeout is None:
            return
        now = time.monotonic()
        with self._sessions_lock:
            candidates = [
                s for s in self._sessions.values()
                if s.attached and now - s.last_frame_at > timeout
            ]
        for sess in candidates:
            self._evict(
                sess,
                f"no frame in {now - sess.last_frame_at:.1f}s "
                f"(slow-client timeout {timeout:.1f}s)",
            )

    def _serve_connection(self, sock: socket.socket) -> None:
        decoder = FrameDecoder()
        sess: Optional[_Session] = None
        self.metrics.counter("net_connections_total").inc()
        with self._queue_lock:
            self._conn_counter += 1
            conn_tid = self._conn_counter
        self.recorder.thread_name(conn_tid, f"conn{conn_tid}")
        decode_hist = self.metrics.histogram(
            "net_frame_decode_us", buckets=LATENCY_BUCKETS_US
        )
        try:
            sock.settimeout(0.5)
            while not self._stopping.is_set():
                try:
                    data = sock.recv(_RECV_CHUNK)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    decoder.close()  # raises FrameTruncated on a partial frame
                    break
                decode_start = time.monotonic_ns()
                frames = decoder.feed(data)
                for frame in frames:
                    self.metrics.counter("net_frames_total").inc()
                    msg = decode_message(frame)
                    decode_hist.observe(
                        max((time.monotonic_ns() - decode_start) // 1000, 0)
                    )
                    sess = self._handle(sock, sess, msg, conn_tid)
                    if sess is not None:
                        sess.last_frame_at = time.monotonic()
                    decode_start = time.monotonic_ns()
                # true high-watermark: the gauge only ever rises, and the
                # hot path touches it just when a new peak is observed
                if self.metrics.gauge("net_rx_buffer_high").set_max(
                    decoder.buffer_high
                ):
                    self.rx_buffer_high = decoder.buffer_high
        except ProtocolError as exc:
            self.metrics.counter("net_protocol_errors", code=exc.code).inc()
            self._log(
                f"protocol error on {sess.name if sess else '<no session>'}: "
                f"[{exc.code}] {exc}"
            )
            self._send(
                sock,
                ErrorMessage(
                    error_code=exc.code,
                    detail=str(exc),
                    retry_after=getattr(exc, "retry_after", 0.0),
                ),
            )
        finally:
            if sess is not None:
                with sess.lock:
                    detached = sess.attached and sess.owner is sock
                    if detached:
                        # disconnect without CLOSE: the session stays
                        # resumable, but fold its progress so nothing is
                        # lost from the merge (a resume that already took
                        # over owns the session now — leave it alone)
                        sess.attached = False
                        sess.owner = None
                        self.metrics.counter("net_disconnects_total").inc()
                        self._log(
                            f"session {sess.name} disconnected at seq "
                            f"{sess.applied_seq}"
                        )
                        try:
                            self._finalize_session(sess)
                        except ShardCrashed as exc:  # pragma: no cover
                            self._recover(exc.shard)
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    # -- message handling ----------------------------------------------------

    def _handle(
        self, sock, sess: Optional[_Session], msg, conn_tid: int = 0
    ) -> Optional[_Session]:
        if isinstance(msg, Hello):
            return self._handle_hello(sock, sess, msg, conn_tid)
        if isinstance(msg, Heartbeat):
            self._send(sock, Heartbeat(nonce=msg.nonce))
            self.metrics.counter("net_heartbeats_total").inc()
            return sess
        if isinstance(msg, Query):
            doc = self.query_doc()
            if msg.trace:
                doc = dict(doc, trace=self.trace_doc())
            try:
                self._send(sock, Report(doc=doc))
            except FrameTooLarge:
                # a span-heavy trace can outgrow the frame ceiling; the
                # report itself still has to get through
                doc.pop("trace", None)
                doc["trace_truncated"] = True
                self._send(sock, Report(doc=doc))
            return sess
        if isinstance(msg, (HelloAck, Credit, CloseAck, Report, ErrorMessage)):
            raise SessionStateError(
                f"client sent a server-only frame "
                f"({type(msg).__name__.lower()})"
            )
        if sess is None:
            raise SessionStateError(
                f"{type(msg).__name__.lower()} before hello: open a session first"
            )
        if isinstance(msg, EventsChunk):
            self._handle_events(sock, sess, msg, conn_tid)
            return sess
        if isinstance(msg, Sites):
            sess.site_names.update(msg.sites)
            self._shard_call(sess, lambda: self._pool.add_sites(sess.name, msg.sites))
            return sess
        if isinstance(msg, Spans):
            self._handle_spans(sess, msg)
            return sess
        if isinstance(msg, Close):
            self._handle_close(sock, sess, msg)
            return sess
        raise SessionStateError(f"unhandled message {type(msg).__name__}")

    def _handle_spans(self, sess: _Session, spans: Spans) -> None:
        """Store a client's span batch for the merged service trace."""
        group = {
            "pid": spans.pid,
            "name": spans.name,
            "events": list(spans.events),
            "dropped": spans.dropped,
        }
        stall_hist = self.metrics.histogram(
            "net_credit_stall_us", buckets=LATENCY_BUCKETS_US
        )
        retries = 0
        for ev in spans.events:
            # fold client-observed credit stalls into the scrape metrics
            if ev.get("ph") == "X" and ev.get("name") == "credit-stall":
                dur = ev.get("dur")
                if isinstance(dur, (int, float)) and dur >= 0:
                    stall_hist.observe(int(dur))
            # mine client-recorded reconnects: the server-side view of
            # wire instability, without touching per-session metrics
            elif ev.get("ph") == "i" and ev.get("name") == "reconnect":
                retries += 1
        if retries:
            # re-shipped batches replace the previous one (below), so
            # count only the growth since this sender's last batch
            with self._spans_lock:
                prior = next(
                    (
                        sum(
                            1 for pev in g["events"]
                            if pev.get("ph") == "i"
                            and pev.get("name") == "reconnect"
                        )
                        for g in self._client_spans
                        if (g["pid"], g["name"]) == (spans.pid, spans.name)
                    ),
                    0,
                )
            if retries > prior:
                self.metrics.counter("net_retries_total").inc(retries - prior)
        with self._spans_lock:
            # one batch per (pid, name): a resume re-ships the whole
            # buffer, so keep only the latest batch from each sender
            self._client_spans = [
                g for g in self._client_spans
                if (g["pid"], g["name"]) != (group["pid"], group["name"])
            ]
            self._client_spans.append(group)
        self.metrics.counter("net_span_batches_total").inc()

    def _handle_hello(
        self, sock, conn_sess, hello: Hello, conn_tid: int = 0
    ) -> _Session:
        admit_start = self.recorder.begin()
        if conn_sess is not None:
            raise SessionStateError(
                f"second hello on one connection (session "
                f"{conn_sess.name!r} already open)"
            )
        assert self._pool is not None and self._spool_dir is not None
        if hello.detector not in DETECTOR_FACTORIES:
            raise HandshakeError(
                f"unknown detector {hello.detector!r} "
                f"(choices: {', '.join(sorted(DETECTOR_FACTORIES))})"
            )
        if hello.backend is not None and hello.backend not in BACKENDS:
            raise HandshakeError(
                f"unknown state backend {hello.backend!r} "
                f"(choices: {', '.join(BACKENDS)})"
            )
        with self._sessions_lock:
            sess = self._sessions.get(hello.session)
            if hello.resume:
                if sess is None:
                    raise HandshakeError(
                        f"cannot resume unknown session {hello.session!r}"
                    )
                resumed = True
            else:
                if sess is not None:
                    raise HandshakeError(
                        f"session {hello.session!r} already exists "
                        f"(reconnect with resume)"
                    )
                # admission control: a *new* session can be refused with
                # BUSY ("try later"); resumes always pass — they finish
                # work the server already holds state for
                if self._lifecycle != "serving":
                    self._busy(f"server is {self._lifecycle}")
                if len(self._sessions) >= self.config.max_sessions:
                    self._busy(
                        f"session limit reached "
                        f"({self.config.max_sessions} sessions)"
                    )
                watermark = self.config.memory_watermark_bytes
                if (
                    watermark is not None
                    and self._spool_bytes_total >= watermark
                ):
                    self._busy(
                        f"memory watermark exceeded "
                        f"({self._spool_bytes_total} >= {watermark} "
                        f"spooled byte(s))"
                    )
                spool = self._spool_dir / f"{len(self._sessions):04d}.spool"
                self._trace_counter += 1
                sess = _Session(
                    hello.session, hello.detector, hello.backend,
                    shard=self._pool.shard_of(hello.session), spool_path=spool,
                    trace_id=self._trace_counter,
                )
                sess.attached = True
                sess.owner = sock
                self._sessions[hello.session] = sess
                resumed = False
        # shard and session-lock work happens outside the registry lock
        # (lock order is session lock -> shard lock -> registry lock:
        # recovery holds the shard lock while briefly taking the registry)
        if resumed:
            with sess.lock:
                if sess.attached:
                    # the previous connection died without a clean CLOSE
                    # and its EOF hasn't surfaced yet: the resume takes
                    # over (the owner token fences the stale connection,
                    # and holding the session lock means no frame of its
                    # is mid-apply while we flip the owner)
                    self.metrics.counter("net_session_takeovers").inc()
                    self._log(f"session {sess.name} taken over by resume")
                sess.attached = True
                sess.owner = sock
                sess.closed = False
        if not resumed:
            self._shard_call(
                sess,
                lambda: self._pool.open_session(
                    sess.name, sess.detector, sess.backend,
                    trace_id=sess.trace_id,
                ),
            )
            self.metrics.counter("net_sessions_opened").inc()
            self._log(
                f"session {sess.name} opened (detector {sess.detector}, "
                f"shard {sess.shard})"
            )
        else:
            self.metrics.counter("net_sessions_resumed").inc()
            self._log(f"session {sess.name} resumed at seq {sess.applied_seq}")
        self.recorder.span(
            "session-admission",
            admit_start,
            tid=conn_tid,
            args={
                "session": sess.name,
                "resumed": resumed,
                "shard": sess.shard,
                "trace_id": sess.trace_id,
            },
        )
        self._send(
            sock,
            HelloAck(
                session=sess.name,
                resume_seq=sess.applied_seq,
                credits=self.config.credits,
                trace_id=sess.trace_id,
            ),
        )
        return sess

    def _handle_events(
        self, sock, sess: _Session, chunk: EventsChunk, conn_tid: int = 0
    ) -> None:
        with sess.lock:
            if sess.owner is not sock:
                # a resume took this session over while our frame was in
                # flight; the new connection retransmits anything unacked
                raise SessionStateError(
                    f"connection superseded on session {sess.name!r}"
                )
            if sess.closed:
                raise SessionStateError(
                    f"events after close on session {sess.name!r}"
                )
            if chunk.seq <= sess.applied_seq:
                # duplicate retransmit after a resume: already durably
                # applied, so just re-acknowledge
                self.metrics.counter("net_duplicate_chunks").inc()
                self._send(sock, Credit(ack=sess.applied_seq, credits=1))
                return
            if chunk.seq != sess.applied_seq + 1:
                raise SessionStateError(
                    f"sequence gap on session {sess.name!r}: got chunk "
                    f"{chunk.seq}, expected {sess.applied_seq + 1}"
                )
            meta = {"seq": chunk.seq, "sent_ns": chunk.sent_ns, "replay": False}
            dispatch_start = self.recorder.begin()
            # a chunk whose events do not decode raises PayloadError out
            # of the shard before anything is applied, spooled or acked
            _races, lag_us = self._shard_call(
                sess, lambda: self._pool.apply(sess.name, chunk.data, meta)
            )
            # the dispatch span is the front tier's backpressure wait:
            # its width is how long this chunk queued behind its shard
            self.recorder.span(
                "shard-dispatch",
                dispatch_start,
                tid=conn_tid,
                args={"session": sess.name, "seq": chunk.seq,
                      "shard": sess.shard, "events": chunk.count},
            )
            if lag_us >= 0:
                self.metrics.histogram(
                    "net_chunk_lag_us", buckets=LATENCY_BUCKETS_US
                ).observe(lag_us)
            payload = chunk.data
            with open(sess.spool_path, "ab") as fh:
                fh.write(len(payload).to_bytes(4, "little"))
                fh.write(payload)
            sess.applied_seq = chunk.seq
            sess.chunks += 1
            spooled = 4 + len(payload)
            sess.spool_bytes += spooled
            with self._sessions_lock:
                self._spool_bytes_total += spooled
                spool_total = self._spool_bytes_total
            self.metrics.counter("net_chunks_total").inc()
            self.metrics.counter("net_events_total").inc(chunk.count)
            self.metrics.gauge("net_spool_bytes").set_max(spool_total)
            quota = self.config.spool_quota_bytes
            if quota is not None and sess.spool_bytes > quota:
                # the chunk itself is durably applied and spooled — ack
                # it, then shed the connection: the named eviction error
                # (with retry advice) is the last frame this socket sees
                self._send(sock, Credit(ack=chunk.seq, credits=1))
                self.metrics.counter("net_shed_sessions").inc()
                exc = SessionEvicted(
                    f"session {sess.name!r} exceeded its spool quota "
                    f"({sess.spool_bytes} > {quota} byte(s))"
                )
                exc.retry_after = self.config.busy_retry_after
                raise exc
            watermark = self.config.memory_watermark_bytes
            if watermark is not None and spool_total >= watermark:
                # overload defense: grant the credit late, so the whole
                # client fleet's send rate degrades before memory does
                self.metrics.counter("net_throttled_credits").inc()
                time.sleep(self.config.throttle_delay)
            self._send(sock, Credit(ack=chunk.seq, credits=1))

    def _handle_close(self, sock, sess: _Session, close: Close) -> None:
        with sess.lock:
            if sess.owner is not sock:
                raise SessionStateError(
                    f"connection superseded on session {sess.name!r}"
                )
            if close.seq != sess.applied_seq:
                raise SessionStateError(
                    f"close at seq {close.seq} but only {sess.applied_seq} "
                    f"chunk(s) were applied on session {sess.name!r}"
                )
            doc = self._finalize_session(sess)
            sess.closed = True
            sess.attached = False
            sess.owner = None
        self.metrics.counter("net_sessions_closed").inc()
        self._log(
            f"session {sess.name} closed: {doc['events']} events, "
            f"{doc['races']} race report(s), {doc['distinct_races']} distinct"
        )
        self._send(
            sock,
            CloseAck(
                summary={
                    "session": sess.name,
                    "events": doc["events"],
                    "races": doc["races"],
                    "distinct_races": doc["distinct_races"],
                    "chunks": sess.chunks,
                }
            ),
        )

    # -- shard plumbing ------------------------------------------------------

    def _shard_call(self, sess: _Session, call):
        """Run one shard request, recovering (once) from a worker crash.

        Also samples the shard's dispatch queue depth (requests in
        flight or waiting on the shard's pipe lock) into the per-shard
        gauge and the depth histogram — the service-level view of how
        hot each shard runs.
        """
        shard = sess.shard
        with self._queue_lock:
            self._queue_depth[shard] += 1
            depth = self._queue_depth[shard]
            self.metrics.gauge("net_shard_queue_depth", shard=shard).set(depth)
            self.metrics.histogram("net_shard_queue_depth_hist").observe(depth)
        try:
            try:
                return call()
            except ShardCrashed as exc:
                self._recover(exc.shard)
                return call()
        finally:
            with self._queue_lock:
                self._queue_depth[shard] -= 1
                self.metrics.gauge(
                    "net_shard_queue_depth", shard=shard
                ).set(self._queue_depth[shard])

    def _recover(self, shard: int) -> None:
        """Respawn a dead shard worker and replay its sessions' spools."""
        assert self._pool is not None
        recover_start = self.recorder.begin()
        replayed_chunks = [0]

        def replay(call) -> None:
            with self._sessions_lock:
                owned = [
                    s for s in self._sessions.values() if s.shard == shard
                ]
            for sess in sorted(owned, key=lambda s: s.name):
                replayed_chunks[0] += _replay_session(sess, call)
                self._log(
                    f"replayed session {sess.name}: {sess.applied_seq} "
                    f"spooled chunk(s)"
                )

        self.metrics.counter("net_shard_crashes").inc()
        self._log(f"shard {shard} crashed; respawning and replaying spools")
        if self._pool.recover(shard, replay):
            self.metrics.counter("net_worker_restarts").inc()
            self.recorder.span(
                "crash-recovery",
                recover_start,
                tid=0,
                args={"shard": shard, "replayed_chunks": replayed_chunks[0]},
            )

    def _finalize_session(self, sess: _Session) -> Dict:
        doc = self._shard_call(sess, lambda: self._pool.finalize(sess.name))
        sess.last_doc = doc
        return doc

    # -- merge tier ----------------------------------------------------------

    def query_doc(self, refresh: bool = True) -> Dict:
        """The live status document: merged report, roster, metrics.

        ``refresh=True`` re-finalizes every session on its shard first
        (cheap — finalize is absolute-valued and re-entrant), so the
        answer always reflects every durably applied chunk.
        """
        fold_start = self.merge_recorder.begin()
        with self._sessions_lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.name)
        if refresh:
            for sess in sessions:
                try:
                    self._finalize_session(sess)
                except ShardCrashed as exc:
                    self._recover(exc.shard)
                    self._finalize_session(sess)
        docs = [sess.last_doc for sess in sessions if sess.last_doc]
        coverage, merged_metrics = self._fold(docs)
        roster = [
            {
                "session": sess.name,
                "state": (
                    "closed" if sess.closed
                    else "attached" if sess.attached
                    else "detached"
                ),
                "shard": sess.shard,
                "applied_seq": sess.applied_seq,
                "events": (sess.last_doc or {}).get("events", 0),
                "races": (sess.last_doc or {}).get("races", 0),
                "distinct_races": (sess.last_doc or {}).get("distinct_races", 0),
            }
            for sess in sessions
        ]
        doc = {
            "schema": STATUS_SCHEMA,
            "address": self.address,
            "sessions": roster,
            "report": merge_reports(
                [doc["report"] for doc in docs], source="telemetry"
            ),
            "coverage": coverage,
            "metrics": merged_metrics.snapshot(),
            "server": {
                "worker_restarts": self._pool.worker_restarts if self._pool else 0,
                "rx_buffer_high": self.rx_buffer_high,
                "shards": self.config.n_shards,
                "shard_mode": self.config.shard_mode,
                "lifecycle": self._lifecycle,
                "resilience": {
                    "shed_sessions": self.metrics.counter(
                        "net_shed_sessions"
                    ).value,
                    "retries": self.metrics.counter(
                        "net_retries_total"
                    ).value,
                    "throttled_credits": self.metrics.counter(
                        "net_throttled_credits"
                    ).value,
                    "drain_seconds": self.metrics.gauge(
                        "net_drain_seconds"
                    ).value,
                    "adopted_sessions": self.adopted_sessions,
                    "spool_bytes": self._spool_bytes_total,
                },
            },
        }
        self.merge_recorder.span(
            "status-fold",
            fold_start,
            args={"sessions": len(sessions), "refresh": refresh},
        )
        return doc

    def _fold(self, docs: List[Dict]):
        """Fold session docs (in session-name order) into the server view.

        Refreshes the per-shard health and quarantine gauges, merges the
        sessions' coverage into the detection-quality gauges, then
        merges the server registry with every session's metrics.
        Returns ``(merged coverage doc, merged MetricsRegistry)``.  The
        quality gauges live in the *server's* registry only (like the
        ``net_*`` series), so per-session metrics stay byte-identical to
        the same trace analyzed offline.
        """
        pool = self._pool
        if pool is not None:
            for shard in range(pool.n_shards):
                restarts = pool.restarts_by_shard[shard]
                self.metrics.gauge("net_shard_up", shard=shard).set(
                    1 if pool.alive(shard) else 0
                )
                self.metrics.gauge("net_shard_restarts", shard=shard).set(
                    restarts
                )
                self.metrics.gauge("net_shard_quarantined", shard=shard).set(
                    1 if restarts > QUARANTINE_RESTARTS else 0
                )
        coverage = merge_coverage(
            [d["coverage"] for d in docs if d.get("coverage")],
            source="telemetry",
        )
        self.metrics.gauge("pacer_effective_rate").set(
            coverage["sync"]["effective_rate"]
        )
        self.metrics.gauge("pacer_expected_detection").set(
            coverage["estimate"]["expected_detection"]
        )
        self.metrics.gauge("pacer_coverage_deficit").set(
            coverage["estimate"]["coverage_deficit"]
        )
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for doc in docs:
            merged.merge_snapshot(doc["metrics"])
        return coverage, merged

    # -- observability surfaces ----------------------------------------------

    def trace_doc(self) -> Dict:
        """One merged Perfetto document spanning every service process.

        Folds the front tier's and merge tier's recorders, every live
        shard worker's span buffer, and any span batches clients shipped
        in SPANS frames into a single Chrome trace-event JSON object
        with rebased timestamps and validated flow arrows.
        """
        groups: List[Dict] = [
            {
                "pid": PID_FRONT,
                "name": "front",
                "events": self.recorder.snapshot(),
                "dropped": self.recorder.dropped,
            },
            {
                "pid": PID_MERGE,
                "name": "merge",
                "events": self.merge_recorder.snapshot(),
                "dropped": self.merge_recorder.dropped,
            },
        ]
        if self._pool is not None:
            groups.extend(self._pool.trace_groups())
        with self._spans_lock:
            groups.extend(self._client_spans)
        return assemble_service_trace(groups)

    def write_trace(self, path) -> None:
        """Write the merged service trace as JSON (CI artifact helper)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.trace_doc(), fh, sort_keys=True)
            fh.write("\n")

    def metrics_registry(self, refresh: bool = False) -> MetricsRegistry:
        """Server metrics merged with every session's snapshot.

        ``refresh=False`` folds the docs captured at the last finalize —
        cheap enough for a scrape endpoint hit every few seconds.
        """
        if refresh:
            merged = MetricsRegistry()
            merged.merge_snapshot(self.query_doc()["metrics"])
            return merged
        with self._sessions_lock:
            sessions = sorted(self._sessions.values(), key=lambda s: s.name)
        return self._fold([s.last_doc for s in sessions if s.last_doc])[1]

    def prometheus_text(self, refresh: bool = False) -> str:
        """The ``/metrics`` scrape body (Prometheus text format)."""
        from ..obs.prom import render_prometheus

        return render_prometheus(self.metrics_registry(refresh=refresh).snapshot())

    def write_metrics(self, path) -> None:
        """Dump the final mergeable metrics snapshot (``--metrics-out``).

        Safe after :meth:`stop`: shutdown finalizes every session, so
        the fold over captured docs is complete without touching shards.
        """
        self.metrics_registry(refresh=False).write_json(path)

    def session_doc(self, name: str, refresh: bool = True) -> Dict:
        """One session's full result document (report, counters, metrics)."""
        with self._sessions_lock:
            sess = self._sessions[name]
        if refresh or sess.last_doc is None:
            return self._finalize_session(sess)
        return sess.last_doc

    @property
    def session_names(self) -> List[str]:
        with self._sessions_lock:
            return sorted(self._sessions)

    @property
    def worker_restarts(self) -> int:
        return self._pool.worker_restarts if self._pool else 0

    # -- logging -------------------------------------------------------------

    def _log(self, line: str) -> None:
        if not self.config.log_path:
            return
        with self._log_lock:
            with open(self.config.log_path, "a", encoding="utf-8") as fh:
                fh.write(f"[{time.strftime('%H:%M:%S')}] {line}\n")
