"""Race provenance: flight recorder and happens-before witnesses.

PACER's qualitative claim is that each sampled race arrives with "the
ability to report the racy accesses" — a report a developer can act on,
not just a ``(var, site, site)`` triple.  This module supplies the two
evidence sources behind ``repro.obs.reports``:

* :class:`FlightRecorder` — a bounded per-thread ring buffer of recent
  events (accesses *and* sync operations, with their sites and virtual
  times).  Recording is O(1) per event and entirely absent when no
  recorder is attached: the detectors' hot paths keep their single
  ``observer is None`` branch, and :meth:`Detector.run`/``run_batch``
  only take the recorded replay when ``observer.recorder`` is set.  That
  replay runs each segment of events through the batched kernels first
  and then records the segment from its columns
  (:meth:`FlightRecorder.record_columns`), stopping at each new race's
  position so that :meth:`FlightRecorder.capture` cuts the context
  surrounding both racing accesses out of exactly the rings a per-event
  loop would have held at report time.  The live monitor records one
  event at a time (:meth:`FlightRecorder.record`).

* :class:`SyncIndex` + :func:`extract_witness` — reconstructs the
  vector-clock evidence for a reported race: the release-like operations
  the first thread performed between the two accesses, the acquire-like
  operations the second thread performed, and whether any of them form a
  happens-before edge.  A race report is *believable* when no such edge
  exists (``"no-release"`` or ``"sync-gap"``); an edge found
  (``"ordering-edge"``) flags the report as suspicious — precise
  detectors never produce one.  The witness also attributes the report
  to PACER's sampling square wave: which sampling period contained each
  access, which explains both why a race *was* caught and (via
  ``repro explain``'s discard attribution) why a non-sampled shortest
  race was not.

* :func:`mark_periods` + :func:`period_of` — the one walk from ``(vt,
  entering)`` sampling marks to periods, and the lookup of the period
  holding a trace position.  Witnesses, coverage documents
  (:mod:`repro.obs.quality`), Perfetto spans and ``repro profile`` all
  use it; they differ only in whether an open period ends at the final
  virtual time.

A :class:`SyncIndex` built :meth:`~SyncIndex.from_trace` is exact; one
built :meth:`~SyncIndex.from_recorder` sees only the recorder's bounded
sync window and says so in the witness (``"source": "flight-recorder"``).
Everything here is a deterministic function of the event sequence —
reports built from either state backend and either dispatch mode are
byte-identical, which the determinism tests pin.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..trace.batch import EventBatch
from ..trace.events import (
    ACQUIRE,
    FORK,
    ID_TO_KIND,
    JOIN,
    KIND_TO_ID,
    RELEASE,
    SBEGIN,
    SEND,
    SYNC_KINDS,
    VOL_READ,
    VOL_WRITE,
)

__all__ = [
    "DEFAULT_WINDOW",
    "FlightRecorder",
    "SyncIndex",
    "SyncIndexBuilder",
    "extract_witness",
    "mark_periods",
    "period_of",
]

#: default per-thread ring capacity (events kept around each access)
DEFAULT_WINDOW = 64

#: per-thread sync-operation log capacity, raised to the ring's window
#: when that is larger (sync ops are ~3% of a trace, so this log spans
#: far more virtual time than the event ring)
SYNC_WINDOW = 256

#: events a captured context keeps before and after each racing access
CONTEXT_BEFORE = 8
CONTEXT_AFTER = 4

#: operations that can *send* a happens-before edge (release semantics)
RELEASE_LIKE = frozenset((RELEASE, VOL_WRITE, FORK))

#: operations that can *receive* a happens-before edge (acquire semantics)
ACQUIRE_LIKE = frozenset((ACQUIRE, VOL_READ, JOIN))

#: release kind -> the acquire kind that completes its edge on the same
#: object (fork/join pair on thread ids and are matched separately)
_PAIRED = {RELEASE: ACQUIRE, VOL_WRITE: VOL_READ}

_SBEGIN_ID = KIND_TO_ID[SBEGIN]
_SEND_ID = KIND_TO_ID[SEND]

#: kind ids of the synchronization actions
_SYNC_IDS = frozenset(KIND_TO_ID[kind] for kind in SYNC_KINDS)

#: kind-id byte -> 1 for the events a sync index keeps (synchronization
#: actions and period boundaries), 0 otherwise: the ``bytes.translate``
#: selector that lets :meth:`SyncIndexBuilder.add_columns` skip accesses
_INDEXED_TABLE = bytes(
    1 if b in _SYNC_IDS or b == _SBEGIN_ID or b == _SEND_ID else 0
    for b in range(256)
)


class FlightRecorder:
    """Bounded per-thread ring buffers of recent events.

    ``record`` is the per-event call: one dict lookup plus one deque
    append (deques with ``maxlen`` evict in O(1)); ``record_columns``
    does the same for a range of a column batch.  Sync operations are
    additionally kept in a longer per-thread side log
    (``max(SYNC_WINDOW, window)`` entries) so witnesses can reach back
    further than the access window, and ``sbegin``/``send`` transitions
    land in ``sampling_marks`` for sampling attribution.  ``window`` is
    the one setting (``repro explain --window``); a captured context
    keeps ``CONTEXT_BEFORE`` events before each access and
    ``CONTEXT_AFTER`` after it.
    """

    __slots__ = (
        "window",
        "sync_window",
        "sampling_marks",
        "events_recorded",
        "_rings",
        "_sync",
    )

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.sync_window = max(SYNC_WINDOW, window)
        #: (virtual time, entering) sampling transitions, deduplicated
        self.sampling_marks: List[Tuple[int, bool]] = []
        self.events_recorded = 0
        self._rings: Dict[int, Deque[Tuple[int, str, int, int]]] = {}
        self._sync: Dict[int, Deque[Tuple[int, str, int]]] = {}

    # -- recording (hot path) -----------------------------------------------

    def record(self, index: int, kind: str, tid: int, target, site) -> None:
        """Record one event about to be analyzed at trace position ``index``."""
        if kind == SBEGIN or kind == SEND:
            entering = kind == SBEGIN
            marks = self.sampling_marks
            if not marks or marks[-1][1] != entering:
                marks.append((index, entering))
            return
        ring = self._rings.get(tid)
        if ring is None:
            ring = self._rings[tid] = deque(maxlen=self.window)
        ring.append((index, kind, target, site))
        if kind in SYNC_KINDS:
            log = self._sync.get(tid)
            if log is None:
                log = self._sync[tid] = deque(maxlen=self.sync_window)
            log.append((index, kind, target))
        self.events_recorded += 1

    def record_columns(self, start: int, kinds, tids, targets, sites,
                       lo: int, hi: int) -> None:
        """Record events ``lo`` to ``hi - 1`` of a column batch whose event
        0 sits at trace position ``start`` — the same rings, sync logs and
        sampling marks as :meth:`record` called for each in turn."""
        rings = self._rings
        sync = self._sync
        marks = self.sampling_marks
        id_to_kind = ID_TO_KIND
        sync_ids = _SYNC_IDS
        sbegin_id, send_id = _SBEGIN_ID, _SEND_ID
        window = self.window
        recorded = 0
        for index, k, tid, target, site in zip(
            range(start + lo, start + hi), kinds[lo:hi], tids[lo:hi],
            targets[lo:hi], sites[lo:hi],
        ):
            if k == sbegin_id or k == send_id:
                entering = k == sbegin_id
                if not marks or marks[-1][1] != entering:
                    marks.append((index, entering))
                continue
            ring = rings.get(tid)
            if ring is None:
                ring = rings[tid] = deque(maxlen=window)
            kind = id_to_kind[k]
            ring.append((index, kind, target, site))
            if k in sync_ids:
                log = sync.get(tid)
                if log is None:
                    log = sync[tid] = deque(maxlen=self.sync_window)
                log.append((index, kind, target))
            recorded += 1
        self.events_recorded += recorded

    # -- capture (report time) ----------------------------------------------

    def _context(self, tid: int, pivot: int) -> Dict:
        """Events around trace position ``pivot`` still held in tid's ring."""
        ring = self._rings.get(tid)
        before: List[Dict] = []
        after: List[Dict] = []
        retained = False
        if ring:
            for index, kind, target, site in ring:
                if index <= pivot:
                    if index == pivot:
                        retained = True
                    before.append(
                        {"vt": index, "kind": kind, "target": target, "site": site}
                    )
                elif len(after) < CONTEXT_AFTER:
                    after.append(
                        {"vt": index, "kind": kind, "target": target, "site": site}
                    )
        keep = CONTEXT_BEFORE + 1  # the access itself plus its prefix
        return {
            "tid": tid,
            "events": before[-keep:] + after,
            "complete": retained,
        }

    def capture(self, race) -> Dict:
        """Flight-recorder context for both accesses of a reported race.

        Called from ``RunObserver.on_race`` once the rings hold every
        event up to the racing (second) access and none after it, so the
        second context is always complete; the first access may have
        aged out of its thread's ring, in which case its ``complete``
        flag is False and the nearest surviving events are returned
        instead.
        """
        second = self._context(race.second_tid, race.index)
        first: Optional[Dict] = None
        if race.first_index >= 0:
            first = self._context(race.first_tid, race.first_index)
        return {"first": first, "second": second, "window": self.window}


def mark_periods(
    marks: Sequence[Tuple[int, bool]], final_vt: Optional[int] = None
) -> List[Tuple[int, Optional[int]]]:
    """Sampling periods as (begin vt, end vt) pairs from ``(vt,
    entering)`` marks: the one walk behind witnesses, coverage, Perfetto
    spans and ``repro profile``.

    A repeated mark changes nothing.  A period still open after the last
    mark ends at ``final_vt`` (never before its own begin), or at
    ``None`` when no final vt is given.
    """
    out: List[Tuple[int, Optional[int]]] = []
    open_at: Optional[int] = None
    for vt, entering in marks:
        if entering and open_at is None:
            open_at = vt
        elif not entering and open_at is not None:
            out.append((open_at, vt))
            open_at = None
    if open_at is not None:
        out.append((open_at, None if final_vt is None else max(final_vt, open_at)))
    return out


def period_of(
    periods: Sequence[Tuple[int, Optional[int]]], index: int
) -> Optional[int]:
    """Ordinal (0-based) of the period in ``periods`` (from
    :func:`mark_periods`) containing trace position ``index``."""
    if index < 0:
        return None
    for ordinal, (begin, end) in enumerate(periods):
        if begin <= index and (end is None or index < end):
            return ordinal
    return None


class SyncIndex:
    """Per-thread synchronization operations plus the sampling square wave.

    The witness substrate: built from a full in-memory trace
    (:meth:`from_trace`) or a streamed one (:class:`SyncIndexBuilder`),
    both exact, or from a :class:`FlightRecorder`'s bounded sync logs
    (:meth:`from_recorder`).  Its sampling periods come from
    :func:`mark_periods`, the walk coverage documents use too.
    """

    def __init__(
        self,
        sync_by_tid: Dict[int, List[Tuple[int, str, int]]],
        sampling_marks: List[Tuple[int, bool]],
        source: str,
        complete: bool,
    ) -> None:
        self._sync = sync_by_tid
        self.sampling_marks = list(sampling_marks)
        self.source = source
        self.complete = complete

    @classmethod
    def from_trace(cls, events) -> "SyncIndex":
        """Exact index over a full trace: an event sequence, or the same
        trace as an :class:`~repro.trace.batch.EventBatch`."""
        batch = (events if isinstance(events, EventBatch)
                 else EventBatch.from_events(events))
        kinds, tids, targets, _sites = batch.to_list_columns()
        builder = SyncIndexBuilder()
        builder.add_columns(0, kinds, tids, targets)
        return builder.build()

    @classmethod
    def from_recorder(cls, recorder: FlightRecorder) -> "SyncIndex":
        """Bounded index over a flight recorder's sync logs."""
        sync = {tid: list(log) for tid, log in recorder._sync.items()}
        return cls(
            sync, recorder.sampling_marks, source="flight-recorder", complete=False
        )

    # -- sync queries --------------------------------------------------------

    def releases_between(self, tid: int, lo: int, hi: int) -> List[Tuple[int, str, int]]:
        """Release-like ops by ``tid`` with virtual time in ``(lo, hi)``."""
        return [
            op
            for op in self._sync.get(tid, ())
            if lo < op[0] < hi and op[1] in RELEASE_LIKE
        ]

    def acquires_between(self, tid: int, lo: int, hi: int) -> List[Tuple[int, str, int]]:
        """Acquire-like ops by ``tid`` with virtual time in ``(lo, hi)``."""
        return [
            op
            for op in self._sync.get(tid, ())
            if lo < op[0] < hi and op[1] in ACQUIRE_LIKE
        ]

    # -- sampling attribution ------------------------------------------------

    def periods(self) -> List[Tuple[int, Optional[int]]]:
        """Sampling periods as (begin vt, end vt) pairs; a period still
        open at the end of the trace has end ``None``."""
        return mark_periods(self.sampling_marks)

    def period_of(self, index: int) -> Optional[int]:
        """Ordinal (0-based) of the sampling period containing ``index``."""
        return period_of(self.periods(), index)


class SyncIndexBuilder:
    """Incrementally accumulate an *exact* :class:`SyncIndex`.

    The streaming ingestion path (``repro.net.shard``) sees a session's
    events chunk by chunk and cannot keep the full trace, but it can
    afford this builder: sync operations are a few percent of a trace,
    so holding all of them stays far below holding every access.  Feed
    every chunk's columns with the *global* trace position of its first
    event, then :meth:`build`.  The result is indistinguishable from
    :meth:`SyncIndex.from_trace` over the concatenated trace — which is
    what makes streamed race reports byte-identical to offline ones.
    """

    __slots__ = ("_sync", "_marks", "events_indexed")

    def __init__(self) -> None:
        self._sync: Dict[int, List[Tuple[int, str, int]]] = {}
        self._marks: List[Tuple[int, bool]] = []
        self.events_indexed = 0

    def add_columns(self, start: int, kinds, tids, targets) -> int:
        """Index a column batch whose first event sits at position
        ``start``; returns the position one past its last event.  Only
        synchronization actions and period boundaries cost any work."""
        marks = self._marks
        sync = self._sync
        for i in compress(range(len(kinds)), bytes(kinds).translate(_INDEXED_TABLE)):
            k = kinds[i]
            if k == _SBEGIN_ID or k == _SEND_ID:
                entering = k == _SBEGIN_ID
                if not marks or marks[-1][1] != entering:
                    marks.append((start + i, entering))
            else:
                sync.setdefault(tids[i], []).append(
                    (start + i, ID_TO_KIND[k], targets[i])
                )
        self.events_indexed += len(kinds)
        return start + len(kinds)

    def build(self) -> SyncIndex:
        """Snapshot the accumulated state as an exact index."""
        return SyncIndex(
            {tid: list(ops) for tid, ops in self._sync.items()},
            self._marks,
            source="trace",
            complete=True,
        )


def _op_dicts(ops: List[Tuple[int, str, int]], cap: int = 6) -> List[Dict]:
    return [{"vt": vt, "kind": kind, "target": target} for vt, kind, target in ops[:cap]]


def extract_witness(race, sync: SyncIndex) -> Dict:
    """Happens-before evidence for one reported race.

    Looks for a single release→acquire edge between the two accesses:
    a release-like operation by the first thread after its access,
    matched with an acquire-like operation on the same object by the
    second thread before the report.  Three verdicts:

    * ``"no-release"`` — the first thread performed no release-like
      operation in the window: no happens-before path can exist, the
      strongest possible confirmation.
    * ``"sync-gap"`` — both threads synchronized, but on disjoint
      objects; no single edge connects the accesses.  (A multi-hop path
      through a third thread is not searched; FASTTRACK's vector clocks
      already rule one out for precise detectors.)
    * ``"ordering-edge"`` — a connecting edge *was* found, so the
      accesses are ordered and the report is suspect (imprecise
      detectors, or clocks frozen by PACER's non-sampling rules).
    """
    i, j = race.first_index, race.index
    a, b = race.first_tid, race.second_tid
    lo = i if i >= 0 else -1
    rels = sync.releases_between(a, lo, j)
    acqs = sync.acquires_between(b, lo, j)

    edge: Optional[Dict] = None
    for k, rkind, rtarget in rels:
        if rkind == FORK and rtarget == b:
            # fork(a -> b) after the first access orders it before all of b
            edge = {"kind": "fork", "target": rtarget, "release_vt": k,
                    "acquire_vt": k}
            break
        want = _PAIRED.get(rkind)
        if want is None:
            continue
        for m, akind, atarget in acqs:
            if m > k and akind == want and atarget == rtarget:
                edge = {"kind": f"{rkind}->{akind}", "target": rtarget,
                        "release_vt": k, "acquire_vt": m}
                break
        if edge is not None:
            break
    if edge is None:
        for m, akind, atarget in acqs:
            if akind == JOIN and atarget == a:
                # join(b <- a): everything a did before terminating — the
                # first access included — happens before the report
                edge = {"kind": "join", "target": a, "release_vt": m,
                        "acquire_vt": m}
                break

    if edge is not None:
        verdict = "ordering-edge"
        summary = (
            f"suspicious: {edge['kind']} on {edge['target']} "
            f"(vt {edge['release_vt']}->{edge['acquire_vt']}) orders the "
            f"accesses; a precise detector would not report this pair"
        )
    elif not rels:
        verdict = "no-release"
        summary = (
            f"t{a} performed no release/fork/volatile-write between the racy "
            f"access (vt {i}) and the report (vt {j}): no happens-before "
            f"edge was possible"
        )
    else:
        verdict = "sync-gap"
        rel_objs = sorted({t for _, _, t in rels})
        acq_objs = sorted({t for _, _, t in acqs})
        acq_desc = f"acquired {acq_objs}" if acq_objs else "acquired nothing"
        summary = (
            f"sync gap: t{a} released {rel_objs} but t{b} {acq_desc} "
            f"between vt {i} and vt {j} — no common object connects the "
            f"accesses"
        )

    sampling: Optional[Dict] = None
    if sync.sampling_marks:
        periods = sync.periods()
        sampling = {
            "first_period": period_of(periods, i),
            "second_period": period_of(periods, j),
            "n_periods": len(periods),
        }

    return {
        "verdict": verdict,
        "summary": summary,
        "source": sync.source,
        "complete": sync.complete,
        "releases_after_first": _op_dicts(rels),
        "acquires_before_second": _op_dicts(acqs),
        "edge": edge,
        "sampling": sampling,
    }
