"""Columnar (struct-of-arrays) event batches for the analysis fast path.

The scalar pipeline hands every event to :meth:`Detector.apply` as an
:class:`~repro.trace.events.Event`, paying per event for a kind-id
lookup, a :meth:`Detector.step` call that switches on that id, and
several attribute accesses.  At paper scale (10⁹ events) that per-event
overhead dominates analysis time.

An :class:`EventBatch` stores a run of events as four parallel integer
arrays — kind ids (see :data:`~repro.trace.events.KIND_TO_ID`), thread
ids, targets, and sites — so a detector's batched loop can walk plain
``int`` columns with no per-event object construction and no virtual
dispatch.  :func:`iter_batches` chops any event iterable into batches;
:meth:`Detector.run_batch` drives them.

Batches are an *encoding*, not a semantic change: iterating a batch
yields exactly the :class:`Event` records it was built from, and the
differential test suite (``tests/test_batch_differential.py``) holds the
batched and scalar pipelines to identical race reports, counters, and
metadata footprints.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, List, Sequence

from .events import Event, ID_TO_KIND, KIND_TO_ID

__all__ = [
    "EventBatch",
    "encode_batch",
    "iter_batches",
    "DEFAULT_BATCH_SIZE",
    "RUN_MASK_TABLE",
    "ACCESS01_TABLE",
]

#: Default number of events per batch.  Large enough to amortize the
#: per-batch setup (local rebinding of hot attributes), small enough to
#: keep the working set cache-friendly and progress observable.
DEFAULT_BATCH_SIZE = 4096

#: kind-id byte -> run-mask byte, for ``bytes.translate`` run scans over
#: a batch's kind column.  Reads/writes keep their own ids (0/1) so one
#: translated mask drives both run-splitting and bulk read/write
#: counting (``count(0)``/``count(1)``).  ``m_enter``/``m_exit``/``alloc``
#: (ids 10-12) are analysis no-ops for the run-bulked loops, so they ride
#: along inside runs as byte 3; only synchronization actions and period
#: boundaries (byte 2) break a run (``find(2, i)``).
RUN_MASK_TABLE = bytes(b if b <= 1 else (3 if b >= 10 else 2) for b in range(256))

#: kind-id byte -> 1 for accesses, 0 otherwise; selector for a batch's
#: bulk thread-set update.
ACCESS01_TABLE = bytes(1 if b <= 1 else 0 for b in range(256))


class EventBatch:
    """A fixed run of events in columnar form.

    ``kinds`` holds small integer kind ids; ``tids``, ``targets`` and
    ``sites`` the corresponding operand columns.  All four lists have the
    same length.  The batch iterates as :class:`Event` records, so any
    scalar consumer accepts a batch wherever it accepts events.
    """

    __slots__ = ("kinds", "tids", "targets", "sites", "_npcols")

    def __init__(
        self,
        kinds: Sequence[int],
        tids: Sequence[int],
        targets: Sequence[int],
        sites: Sequence[int],
    ) -> None:
        if not (len(kinds) == len(tids) == len(targets) == len(sites)):
            raise ValueError("batch columns must have equal length")
        self.kinds: List[int] = list(kinds)
        self.tids: List[int] = list(tids)
        self.targets: List[int] = list(targets)
        self.sites: List[int] = list(sites)
        self._npcols = None

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventBatch":
        """Encode events into one batch (raises on unknown kinds).

        Events are tuples, so one ``map(itemgetter(i), rows)`` pass per
        field (several times faster than ``zip(*rows)`` on whole traces)
        and a ``map`` through the kind-id table build the columns at C
        speed, without a per-event Python frame.
        """
        rows = events if isinstance(events, (list, tuple)) else list(events)
        try:
            kinds = list(map(KIND_TO_ID.__getitem__, map(itemgetter(0), rows)))
        except KeyError as exc:
            raise ValueError(f"unknown event kind: {exc.args[0]!r}") from None
        batch = cls.__new__(cls)
        batch.kinds = kinds
        batch.tids = list(map(itemgetter(1), rows))
        batch.targets = list(map(itemgetter(2), rows))
        batch.sites = list(map(itemgetter(3), rows))
        batch._npcols = None
        return batch

    @classmethod
    def from_columns(cls, kinds, tids, targets, sites) -> "EventBatch":
        """Wrap already-columnar lists without copying (``__init__``
        copies), as the binio readers and shard workers decode them."""
        if not (len(kinds) == len(tids) == len(targets) == len(sites)):
            raise ValueError("batch columns must have equal length")
        batch = cls.__new__(cls)
        batch.kinds = kinds
        batch.tids = tids
        batch.targets = targets
        batch.sites = sites
        batch._npcols = None
        return batch

    def to_list_columns(self):
        """``(kinds, tids, targets, sites)``, the plain ``int`` lists the
        object and packed backends replay."""
        return self.kinds, self.tids, self.targets, self.sites

    # nothing in the package calls this; it stays while the benchmark's
    # traced pass wraps the name
    def to_numpy_columns(self):
        """Columns as NumPy arrays, for array-based consumers (cached).

        Returns ``(kinds, tids, targets, sites, site_list)`` where the
        first four are ``uint8``/``int64`` NumPy arrays — except
        ``sites``, which is ``None`` when the site column holds
        non-integer :data:`~repro.detectors.base.SiteId` values (the
        live frontend's ``file:line`` strings); ``site_list`` is the
        original Python sequence in that case (and ``None`` otherwise),
        so consumers always have exactly one site source.
        """
        cols = self._npcols
        if cols is None:
            import numpy as np

            kinds = np.asarray(self.kinds, dtype=np.uint8)
            tids = np.asarray(self.tids, dtype=np.int64)
            targets = np.asarray(self.targets, dtype=np.int64)
            try:
                sites = np.asarray(self.sites, dtype=np.int64)
                site_list = None
            except (TypeError, ValueError, OverflowError):
                sites = None
                site_list = (self.sites if type(self.sites) is list
                             else list(self.sites))
            cols = (kinds, tids, targets, sites, site_list)
            self._npcols = cols
        return cols

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Event]:
        kinds, tids, targets, sites = self.to_list_columns()
        return map(Event, map(ID_TO_KIND.__getitem__, kinds), tids, targets, sites)

    def to_events(self) -> List[Event]:
        """Decode back into a list of :class:`Event` records."""
        return list(self)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"EventBatch({len(self)} events)"


def encode_batch(events: Iterable[Event]) -> EventBatch:
    """Encode an entire event iterable as a single batch."""
    return EventBatch.from_events(events)


def iter_batches(
    events: Iterable[Event], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[EventBatch]:
    """Chop an event iterable into :class:`EventBatch` chunks.

    A pre-encoded :class:`EventBatch` passes through unchanged (one
    batch), so callers can encode once and replay many times.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if isinstance(events, EventBatch):
        yield events
        return
    rows = events if isinstance(events, (list, tuple)) else list(events)
    for start in range(0, len(rows), batch_size):
        yield EventBatch.from_events(rows[start:start + batch_size])
