"""The detector worker tier: one detector per session, sharded by name.

Sessions are *wholly owned* by one shard — the session name hashes
(CRC32, like :func:`repro.analysis.parallel.task_seed`, because builtin
string hashing is randomized per process) onto a worker, and every chunk
of that session's events is analyzed by that worker's detector.
Happens-before edges never cross session boundaries (each session is its
own monitored program with its own thread/variable/lock namespaces), so
ownership sharding loses nothing: the union of per-shard reports *is*
the answer.

Workers are the supervisor's long-lived pipe-connected processes
(:class:`repro.analysis.supervisor.PipeWorker`) running
:func:`_shard_main`: a request/response loop over ``open`` / ``events``
/ ``sites`` / ``finalize`` / ``trace`` messages (plus ``stop``), each
dispatched by the one op table :class:`_HostTable` that inline mode
calls directly.  An ``events`` message carries the chunk's binio
document (v3, or v2 from an older client) exactly as the client sent
it; the worker is the one place it is decoded, to the columns its
session replays.
Each session inside a worker is a :class:`SessionHost` — a detector with
an attached :class:`~repro.obs.observer.RunObserver`, flight recorder,
and an *exact* incremental
:class:`~repro.obs.provenance.SyncIndexBuilder`, which is what makes a
streamed session's ``repro/race-report/v1`` report byte-identical
(modulo source/session metadata) to offline ``repro analyze`` over the
concatenated trace.

:class:`ShardPool` is the parent-side handle.  It is thread-safe (the
server talks to it from one thread per connection; a per-shard lock
serializes each pipe), runs either in ``process`` mode (real workers)
or ``inline`` mode (same :class:`SessionHost` code in-process — for
protocol tests and single-process serving), and turns a dead worker
into a :class:`ShardCrashed` the server recovers from by respawning and
replaying the session spools.  Fault injection for the chaos suite:
``crash_plan`` makes a given shard's *first* worker process die
(``os._exit``) before applying its Nth chunk — first spawn only, so the
recovery replay cannot crash-loop — and ``chunk_delay`` slows a shard
down to exercise credit-based backpressure end to end.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from multiprocessing import get_context
from typing import Dict, List, Optional

from ..analysis.parallel import DETECTOR_FACTORIES
from ..analysis.supervisor import PipeWorker
from ..obs.observer import RunObserver
from ..obs.provenance import FlightRecorder, SyncIndexBuilder
from ..obs.quality import build_coverage, sync_op_split
from ..obs.reports import build_report
from ..obs.tracing import PID_SHARD_BASE, SpanRecorder, chunk_flow_id
from ..trace.batch import EventBatch
from ..util.faults import CRASH_EXIT_CODE
from .protocol import ProtocolError, decode_columns, error_for_code

__all__ = [
    "SessionHost",
    "ShardCrashed",
    "ShardError",
    "ShardPool",
    "shard_of",
]


def shard_of(session: str, n_shards: int) -> int:
    """Deterministic session -> shard assignment (process-independent)."""
    return zlib.crc32(session.encode("utf-8")) % n_shards


class ShardError(RuntimeError):
    """A worker rejected a request (bad session, detector error, ...)."""


class ShardCrashed(RuntimeError):
    """A worker process died; its sessions need respawn-and-replay."""

    def __init__(self, shard: int, detail: str) -> None:
        self.shard = shard
        super().__init__(f"shard {shard} crashed: {detail}")


# -- worker side ---------------------------------------------------------------


class SessionHost:
    """One streaming session's full detector stack inside a worker.

    Mirrors exactly what ``repro analyze --report-out`` builds for an
    in-memory trace: the same detector factory, an observer with a
    flight recorder (so the recorded replay is taken: the batched
    kernels, then the rings filled from the columns and race contexts
    captured at report time), and an exact sync index — fed each chunk's
    columns with their global event indices before the chunk is
    analyzed.
    """

    def __init__(
        self,
        session: str,
        detector_name: str = "fasttrack",
        backend: Optional[str] = None,
        trace_id: int = 0,
    ) -> None:
        factory = DETECTOR_FACTORIES.get(detector_name)
        if factory is None:
            raise ShardError(
                f"unknown detector {detector_name!r} "
                f"(choices: {', '.join(sorted(DETECTOR_FACTORIES))})"
            )
        self.session = session
        self.detector = factory(backend=backend)
        self.recorder = FlightRecorder()
        self.observer = RunObserver(recorder=self.recorder)
        self.observer.attach(self.detector)
        self.sync_builder = SyncIndexBuilder()
        self.chunks_applied = 0
        self.site_names: Dict[int, str] = {}
        #: wire-propagated trace id (0 = tracing off for this session)
        self.trace_id = trace_id

    def apply(self, data: bytes) -> int:
        """Analyze one chunk; returns the session's total race count.

        ``data`` is the chunk's binio document.  It is decoded to
        columns before any session state changes, so a malformed chunk
        raises :class:`~repro.net.protocol.PayloadError` with nothing
        applied.  The columns are indexed, then replayed through the
        detector's recorded replay; no event objects are decoded.
        """
        kinds, tids, targets, sites = decode_columns(data)
        det = self.detector
        self.sync_builder.add_columns(det._events_seen, kinds, tids, targets)
        det.run_batch(EventBatch.from_columns(kinds, tids, targets, sites))
        self.chunks_applied += 1
        return len(det.races)

    def add_sites(self, sites: Dict[int, str]) -> None:
        self.site_names.update(sites)

    def finalize_doc(self) -> Dict:
        """Finalize (re-entrantly) and snapshot the session's results.

        Safe to call repeatedly — after a disconnect, again after a
        resume brought more events, and on every live query: the
        observer's finalize refreshes absolute totals, and the report is
        rebuilt from scratch each time.
        """
        det = self.detector
        self.observer.finalize(det)
        site_name = None
        if self.site_names:
            names = self.site_names
            site_name = lambda site: names.get(site)  # noqa: E731
        report = build_report(
            det.races,
            source="telemetry",
            detector=det.name,
            backend=det.backend_name,
            rate=None,
            events=det.perf.events,
            contexts=self.observer.race_contexts,
            sync=self.sync_builder.build(),
            site_name=site_name,
        )
        coverage = build_coverage(
            source="telemetry",
            detector=det.name,
            nominal_rate=None,
            counters=det.counters.snapshot(),
            marks=self.observer.sampling_marks,
            races=det.races,
            events=det.perf.events,
        )
        return {
            "session": self.session,
            "report": report,
            "coverage": coverage,
            "events": det.perf.events,
            "races": len(det.races),
            "distinct_races": len(det.distinct_races),
            "counters": det.counters.snapshot(),
            "metrics": self.observer.registry.snapshot(),
            "footprint_words": det.obs_sample().get("footprint_words", 0),
            "chunks": self.chunks_applied,
        }


class _HostTable:
    """The shard op dispatch, shared by worker processes and inline mode.

    :meth:`call` runs one op message — ``("open", session, detector,
    backend, trace_id)``, ``("events", session, data, meta)``,
    ``("sites", session, names)``, ``("finalize", session)`` or
    ``("trace",)`` — and maps failures the same way in both modes: a
    :class:`~repro.net.protocol.ProtocolError` (a chunk the client got
    wrong) propagates so the parent can re-raise it by code, and
    anything else becomes a :class:`ShardError`.

    Holds the worker's :class:`~repro.obs.tracing.SpanRecorder` (one per
    shard process, pid ``PID_SHARD_BASE + shard``): each applied chunk
    becomes a span on the owning session's track, spool replays are
    labeled as such, and the span that applies a traced chunk closes the
    client's ``chunk-sent`` flow arrow.  Span cost is per *chunk*, not
    per event, so the detector hot loops are untouched.
    """

    def __init__(self, shard: int = 0, chunk_delay: float = 0.0) -> None:
        self.shard = shard
        self.chunk_delay = chunk_delay
        self.hosts: Dict[str, SessionHost] = {}
        self.recorder = SpanRecorder(pid=PID_SHARD_BASE + shard)
        self._tids: Dict[str, int] = {}
        self._ops = {
            "open": self.open,
            "events": self.events,
            "sites": self.sites,
            "finalize": self.finalize,
            "trace": self.trace_group,
        }

    def call(self, msg: tuple):
        """Run one op message and return its result."""
        handler = self._ops.get(msg[0])
        if handler is None:
            raise ShardError(f"unknown shard op {msg[0]!r}")
        try:
            return handler(*msg[1:])
        except (ShardError, ProtocolError):
            raise
        except Exception as exc:
            raise ShardError(f"{type(exc).__name__}: {exc}") from exc

    def _tid(self, session: str) -> int:
        tid = self._tids.get(session)
        if tid is None:
            tid = self._tids[session] = len(self._tids) + 1
            self.recorder.thread_name(tid, session)
        return tid

    def _host(self, session: str) -> SessionHost:
        host = self.hosts.get(session)
        if host is None:
            raise ShardError(f"no open session {session!r} on this shard")
        return host

    def open(self, session: str, detector: str, backend: Optional[str],
             trace_id: int) -> None:
        # idempotent: replay after a crash re-opens existing sessions
        if session not in self.hosts:
            self.hosts[session] = SessionHost(
                session, detector, backend=backend, trace_id=trace_id,
            )

    def events(self, session: str, data: bytes, meta: Dict) -> tuple:
        host = self._host(session)
        if self.chunk_delay > 0.0:
            time.sleep(self.chunk_delay)
        start = self.recorder.begin()
        seen = host.detector._events_seen
        races = host.apply(data)
        sent_ns = meta.get("sent_ns", 0)
        lag_us = -1
        if sent_ns:
            lag_us = max((time.monotonic_ns() - sent_ns) // 1000, 0)
        replay = bool(meta.get("replay"))
        seq = meta.get("seq")
        flow_in = None
        if host.trace_id and seq is not None and not replay:
            flow_in = chunk_flow_id(host.trace_id, seq)
        args = {"session": session, "events": host.detector._events_seen - seen}
        if seq is not None:
            args["seq"] = seq
        if lag_us >= 0:
            args["lag_us"] = lag_us
        self.recorder.span(
            "replay-chunk" if replay else "apply-chunk",
            start,
            tid=self._tid(session),
            cat="shard",
            args=args,
            flow_in=flow_in,
        )
        # one counter sample per applied chunk (never per event): the
        # merged service trace grows an "effective_rate" counter track
        # per session, plotting sampling coverage over wall-clock time
        sampled, total = sync_op_split(host.detector.counters.snapshot())
        self.recorder.counter(
            "effective_rate",
            round(sampled / total, 6) if total else 0.0,
            tid=self._tid(session),
        )
        return races, lag_us

    def sites(self, session: str, sites: Dict[int, str]) -> None:
        self._host(session).add_sites(sites)

    def finalize(self, session: str) -> Dict:
        return self._host(session).finalize_doc()

    def trace_group(self) -> Dict:
        """This worker's span batch for the merged service trace."""
        return {
            "pid": self.recorder.pid,
            "name": f"shard{self.shard}",
            "events": self.recorder.snapshot(),
            "dropped": self.recorder.dropped,
        }


def _shard_main(
    conn,
    shard: int = 0,
    crash_after: Optional[int] = None,
    chunk_delay: float = 0.0,
) -> None:
    """Worker loop: serve :class:`_HostTable` ops off the pipe until told
    to stop, wrapping each result or failure as a reply.

    ``crash_after=N`` kills the process (``CRASH_EXIT_CODE``) upon
    receiving its Nth ``events`` message, *before* analyzing the chunk —
    the parent sees EOF mid-request, exactly like a real worker death,
    and the not-yet-applied chunk is the one the server must retry.
    """
    table = _HostTable(shard=shard, chunk_delay=chunk_delay)
    events_messages = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent vanished
            return
        if msg[0] == "stop":
            return
        if msg[0] == "events":
            events_messages += 1
            if crash_after is not None and events_messages >= crash_after:
                os._exit(CRASH_EXIT_CODE)
        try:
            conn.send(("ok", table.call(msg)))
        except ProtocolError as exc:
            # a chunk the client got wrong: the parent re-raises it by code
            conn.send(("error", exc.code, str(exc)))
        except ShardError as exc:
            conn.send(("fail", str(exc)))


# -- parent side ---------------------------------------------------------------


class ShardPool:
    """Parent-side handle on the detector worker tier.

    ``mode="process"`` spawns one :class:`PipeWorker` per shard;
    ``mode="inline"`` calls the identical :class:`_HostTable` in-process
    (no isolation, no crash recovery — but byte-identical analysis,
    which the parity suite exploits to pin both paths).  All public methods
    are thread-safe; a dead worker surfaces as :class:`ShardCrashed`
    and :meth:`recover` brings up a *clean* replacement (any injected
    crash plan applies to a shard's first process only) and replays the
    caller's session state before any other request can interleave.
    """

    def __init__(
        self,
        n_shards: int = 2,
        mode: str = "process",
        chunk_delay: float = 0.0,
        crash_plan: Optional[Dict[int, int]] = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if mode not in ("process", "inline"):
            raise ValueError(f"mode must be 'process' or 'inline', got {mode!r}")
        self.n_shards = n_shards
        self.mode = mode
        self.chunk_delay = chunk_delay
        self.worker_restarts = 0
        #: restarts per shard, for health/quarantine gauges
        self.restarts_by_shard: List[int] = [0] * n_shards
        self._locks = [threading.Lock() for _ in range(n_shards)]
        self._stopped = False
        if mode == "inline":
            self._inline = [
                _HostTable(shard=shard, chunk_delay=chunk_delay)
                for shard in range(n_shards)
            ]
            self._workers: List[Optional[PipeWorker]] = []
        else:
            self._ctx = get_context("spawn" if os.name == "nt" else "fork")
            crash_plan = crash_plan or {}
            self._workers = [
                self._spawn(shard, crash_plan.get(shard))
                for shard in range(n_shards)
            ]

    def _spawn(self, shard: int, crash_after: Optional[int]) -> PipeWorker:
        return PipeWorker(
            self._ctx, _shard_main, (shard, crash_after, self.chunk_delay)
        )

    def shard_of(self, session: str) -> int:
        return shard_of(session, self.n_shards)

    # -- request/response ----------------------------------------------------

    def _roundtrip(self, shard: int, msg):
        """One request/response on the shard pipe (shard lock held)."""
        worker = self._workers[shard]
        try:
            worker.conn.send(msg)
            reply = worker.conn.recv()
        except (BrokenPipeError, EOFError, OSError) as exc:
            exitcode = worker.exitcode()
            raise ShardCrashed(
                shard,
                f"worker exited with code {exitcode} during "
                f"{msg[0]!r} ({type(exc).__name__})",
            ) from None
        if reply[0] == "fail":
            raise ShardError(reply[1])
        if reply[0] == "error":
            raise error_for_code(reply[1], reply[2])
        return reply[1]

    def call(self, shard: int, msg):
        """One raw op message (see :class:`_HostTable`) on ``shard``."""
        with self._locks[shard]:
            if self.mode == "inline":
                return self._inline[shard].call(msg)
            return self._roundtrip(shard, msg)

    def recover(self, shard: int, replay) -> bool:
        """Respawn a dead shard worker and rebuild its state atomically.

        Holds the shard's pipe lock for the whole respawn + replay, so
        no other request can reach the fresh worker before its sessions
        are rebuilt.  ``replay(call)`` receives a function that issues
        raw shard messages on the new worker.  Returns False when the
        worker turned out to be alive — another thread already recovered
        it — in which case the caller just retries its request.  The
        replacement worker never carries an injected crash plan, so a
        replay cannot crash-loop.
        """
        if self.mode == "inline":
            return False
        with self._locks[shard]:
            worker = self._workers[shard]
            if worker.alive():
                return False
            worker.kill()
            self._workers[shard] = self._spawn(shard, None)
            self.worker_restarts += 1
            self.restarts_by_shard[shard] += 1
            replay(lambda msg: self._roundtrip(shard, msg))
            return True

    # -- session ops ---------------------------------------------------------

    def open_session(
        self,
        session: str,
        detector: str = "fasttrack",
        backend: Optional[str] = None,
        trace_id: int = 0,
    ) -> None:
        self.call(
            self.shard_of(session), ("open", session, detector, backend, trace_id)
        )

    def apply(self, session: str, data: bytes, meta: Dict):
        """Analyze one chunk, given as its binio document.

        Returns ``(races, lag_us)``: the session's race count so far and
        the end-to-end chunk lag in microseconds (``-1`` when the chunk
        carried no ``sent_ns`` timestamp).  ``meta`` forwards tracing
        context to the worker: ``{"seq", "sent_ns", "replay"}``.  A
        document whose events do not decode raises
        :class:`~repro.net.protocol.PayloadError`; nothing is applied.
        """
        return self.call(self.shard_of(session), ("events", session, data, meta))

    def add_sites(self, session: str, sites: Dict[int, str]) -> None:
        self.call(self.shard_of(session), ("sites", session, dict(sites)))

    def finalize(self, session: str) -> Dict:
        return self.call(self.shard_of(session), ("finalize", session))

    def alive(self, shard: int) -> bool:
        """Liveness without a pipe round trip (process-table check)."""
        if self.mode == "inline":
            return not self._stopped
        return self._workers[shard].alive()

    def trace(self, shard: int) -> Dict:
        """The shard worker's span batch (pid, name, events, dropped)."""
        return self.call(shard, ("trace",))

    def trace_groups(self) -> List[Dict]:
        """Span batches from every live shard; dead shards are skipped.

        A crashed-and-not-yet-recovered worker holds no spans worth
        waiting for; the caller still gets every healthy shard's view.
        """
        groups: List[Dict] = []
        for shard in range(self.n_shards):
            try:
                groups.append(self.trace(shard))
            except (ShardCrashed, ShardError):  # pragma: no cover - race
                continue
        return groups

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self.mode == "inline":
            for table in self._inline:
                table.hosts.clear()
            return
        for worker in self._workers:
            worker.stop()
