"""Trace containers and the feasibility rules of Appendix A.

The paper restricts attention to *feasible* traces obeying traditional
synchronization semantics:

* a thread never acquires a lock held (unreleased) by another thread;
* a thread never releases a lock it does not hold (monitors are
  reentrant, as in Java);
* a forked thread performs no actions before its ``fork`` and none after
  being ``join``\\ ed; threads are forked and joined at most once;
* a thread id is at most :data:`~repro.core.clocks.MAX_TID`, the largest
  a packed epoch can carry (a limit of this reproduction, not the paper);
* ``sbegin``/``send`` alternate (no nested sampling periods).

Root threads (those never forked, e.g. the main thread) may act from the
start of the trace.

The rules are written once, over columns, in :class:`FeasibilityChecker`;
:meth:`Trace.validate` and every loader run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NoReturn, Optional, Set

from ..core.clocks import MAX_TID
from .batch import EventBatch
from .events import (
    ACCESS_KINDS,
    ACQUIRE,
    Event,
    FORK,
    ID_TO_KIND,
    JOIN,
    KINDS,
    KIND_TO_ID,
    RELEASE,
    SBEGIN,
    SEND,
    SYNC_KINDS,
    VOL_READ,
    VOL_WRITE,
)

__all__ = ["FeasibilityChecker", "Trace", "TraceError", "TraceFormatError"]


class TraceError(ValueError):
    """A trace violates the feasibility rules of Appendix A."""

    def __init__(self, index: int, event: Optional[Event], message: str) -> None:
        self.index = index
        self.event = event
        super().__init__(f"event {index} ({event}): {message}")


class TraceFormatError(ValueError):
    """A serialized trace is malformed (truncated, corrupt, or not a trace).

    Raised by the text and binary loaders for *format*-level problems, as
    opposed to :class:`TraceError`, which flags a well-formed event
    sequence that is not feasible.  Both subclass :class:`ValueError`, so
    ``except ValueError`` catches any failed load.
    """


_ACQ, _REL, _FORK, _JOIN, _SBEGIN, _SEND = (
    KIND_TO_ID[k] for k in (ACQUIRE, RELEASE, FORK, JOIN, SBEGIN, SEND)
)

#: kind-id byte -> 1 for lock operations, forks, joins and markers, the
#: events :meth:`FeasibilityChecker.check` visits one at a time, else 0
_VISITED_TABLE = bytes(
    1 if b in (_ACQ, _REL, _FORK, _JOIN, _SBEGIN, _SEND) else 0 for b in range(256)
)


class FeasibilityChecker:
    """Appendix A's rules over a trace's columns, one block at a time.

    Feed every block of ``(kinds, tids, targets, sites)`` columns, kinds
    as :data:`~repro.trace.events.KIND_TO_ID` ids, with the position of
    its first event; lock, thread and sampling state carry over.  The
    first infeasible event raises :class:`TraceError` with its index, an
    equal :class:`Event` and the rule it breaks.

    Only lock operations, forks, joins and markers cost per-event work:
    the other events' rules (a valid thread, not yet joined) run as one
    set test per stretch between forks, joins and markers, and a stretch
    is walked event by event only when its set fails.
    """

    __slots__ = ("_holder", "_depth", "_forked", "_joined", "_acted", "_sampling")

    def __init__(self) -> None:
        self._holder: Dict[int, int] = {}
        self._depth: Dict[int, int] = {}
        self._forked: Set[int] = set()
        self._joined: Set[int] = set()
        self._acted: Set[int] = set()
        self._sampling = False

    def check(self, start: int, kinds, tids, targets, sites) -> int:
        """Check the block starting at trace position ``start``; returns its end."""
        holder, depth = self._holder, self._depth
        forked, joined, acted = self._forked, self._joined, self._acted
        cols = (start, kinds, tids, targets, sites)
        a = 0  # the first event of the stretch not yet thread-checked
        find = bytes(kinds).translate(_VISITED_TABLE).find
        i = find(1)
        while i >= 0:
            k, tid, target = kinds[i], tids[i], targets[i]
            if k == _ACQ:
                h = holder.get(target)
                if h is not None and h != tid:
                    self._stretch(cols, a, i + 1)  # an earlier violation wins
                    _fail(cols, i, f"lock {target} already held by thread {h}")
                holder[target] = tid
                depth[target] = depth.get(target, 0) + 1
            elif k == _REL:
                if holder.get(target) != tid:
                    self._stretch(cols, a, i + 1)
                    _fail(cols, i, f"thread {tid} releases lock {target} it does not hold")
                depth[target] -= 1
                if not depth[target]:
                    del holder[target], depth[target]
            elif k == _SBEGIN or k == _SEND:
                self._stretch(cols, a, i)
                a = i + 1
                if (k == _SBEGIN) == self._sampling:
                    _fail(cols, i, "sbegin inside a sampling period" if self._sampling
                          else "send outside a sampling period")
                self._sampling = not self._sampling
            else:  # a fork or join ends its stretch, and acts in it
                self._stretch(cols, a, i + 1)
                a = i + 1
                if target > MAX_TID:
                    _fail(cols, i, f"thread id {target} above {MAX_TID}")
                if k == _FORK:
                    if target == tid:
                        _fail(cols, i, "thread forks itself")
                    if target in forked:
                        _fail(cols, i, f"thread {target} forked twice")
                    if target in acted:
                        _fail(cols, i, f"thread {target} acted before being forked")
                    forked.add(target)
                else:
                    if target == tid:
                        _fail(cols, i, "thread joins itself")
                    if target in joined:
                        _fail(cols, i, f"thread {target} joined twice")
                    joined.add(target)
            i = find(1, i + 1)
        self._stretch(cols, a, len(kinds))
        return start + len(kinds)

    def _stretch(self, cols, a: int, b: int) -> None:
        """Thread rules over events ``a:b``: no marker, a fork or join last only."""
        tids = cols[2]
        seen = set(tids[a:b])
        if (min(seen, default=0) < 0 or max(seen, default=0) > MAX_TID
                or not self._joined.isdisjoint(seen)):
            for i in range(a, b):
                if tids[i] < 0:
                    _fail(cols, i, "thread actions need a valid tid")
                if tids[i] > MAX_TID:
                    _fail(cols, i, f"thread id {tids[i]} above {MAX_TID}")
                if tids[i] in self._joined:
                    _fail(cols, i, f"thread {tids[i]} acts after being joined")
        self._acted |= seen


def _fail(cols, i: int, message: str) -> NoReturn:
    start, kinds, tids, targets, sites = cols
    event = Event(ID_TO_KIND[kinds[i]], tids[i], targets[i], sites[i])
    raise TraceError(start + i, event, message)


@dataclass
class Trace:
    """An immutable-by-convention sequence of events with helpers.

    Construct from any iterable of :class:`Event`; ``validate=True``
    (default) checks feasibility eagerly.
    """

    events: List[Event] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = list(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, idx):
        return self.events[idx]

    # -- summary properties -------------------------------------------------

    @property
    def threads(self) -> Set[int]:
        """All thread ids that act or are forked/joined."""
        tids: Set[int] = set()
        for e in self.events:
            if e.tid >= 0:
                tids.add(e.tid)
            if e.kind in (FORK, JOIN):
                tids.add(e.target)
        return tids

    @property
    def variables(self) -> Set[int]:
        return {e.target for e in self.events if e.kind in ACCESS_KINDS}

    @property
    def locks(self) -> Set[int]:
        return {e.target for e in self.events if e.kind in (ACQUIRE, RELEASE)}

    @property
    def volatiles(self) -> Set[int]:
        return {e.target for e in self.events if e.kind in (VOL_READ, VOL_WRITE)}

    def count(self, kind: str) -> int:
        """Number of events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def n_sync_ops(self) -> int:
        return sum(1 for e in self.events if e.kind in SYNC_KINDS)

    @property
    def n_accesses(self) -> int:
        return sum(1 for e in self.events if e.kind in ACCESS_KINDS)

    # -- validation -----------------------------------------------------------

    def validate(self) -> "Trace":
        """Check Appendix A feasibility; raises :class:`TraceError`.

        Runs :class:`FeasibilityChecker` over the events as columns.
        Returns ``self`` so construction can be chained.
        """
        events = self.events
        try:
            batch = EventBatch.from_events(events)
        except ValueError:  # an unknown kind, after any earlier violation
            bad = next(i for i, e in enumerate(events) if e[0] not in KINDS)
            Trace(events[:bad]).validate()
            raise TraceError(
                bad, events[bad], f"unknown kind {events[bad][0]!r}"
            ) from None
        FeasibilityChecker().check(0, *batch.to_list_columns())
        return self

    # -- convenience constructors ---------------------------------------------

    @classmethod
    def of(cls, *events: Event, validate: bool = True) -> "Trace":
        """Build a trace from event arguments; validates by default."""
        return cls.from_iterable(events, validate)

    @classmethod
    def from_iterable(cls, events: Iterable[Event], validate: bool = True) -> "Trace":
        trace = cls(list(events))
        if validate:
            trace.validate()
        return trace
