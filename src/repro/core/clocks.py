"""Vector clocks, epochs, and read maps.

These are the basic happens-before bookkeeping structures shared by every
detector in this package (GENERIC, Djit+, FASTTRACK, PACER).

Terminology follows the paper:

* A *vector clock* ``C`` maps thread ids to logical clock values; clocks
  are compared pointwise (``C1 <= C2`` iff every component of ``C1`` is
  less than or equal to the corresponding component of ``C2``).
* An *epoch* ``c@t`` records a single clock value ``c`` for a single
  thread ``t``.  Epoch-vs-clock comparison (``c@t "⪯" C`` iff
  ``c <= C[t]``) is constant time, which is FASTTRACK's key optimization.
* A *read map* maps zero or more threads to clock values.  FASTTRACK and
  PACER use an epoch while reads are totally ordered and inflate to a
  full map only for concurrent reads.

Thread ids are small non-negative integers assigned densely; clocks grow
on demand, so creating a clock does not require knowing the final number
of threads.
"""

from __future__ import annotations

from itertools import compress, count
from operator import gt
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = [
    "VectorClock",
    "Epoch",
    "MIN_EPOCH",
    "epoch_leq_vc",
    "ReadMap",
    "TID_BITS",
    "TID_MASK",
    "MAX_TID",
    "PACKED_MIN",
    "pack_epoch",
    "unpack_epoch",
]


class Epoch(NamedTuple):
    """An epoch ``c@t``: clock value ``c`` of thread ``t``.

    ``Epoch(0, t)`` for any ``t`` is a *minimal* epoch, equivalent to the
    paper's ⊥e; it happens before everything.
    """

    clock: int
    tid: int

    def __str__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{self.clock}@{self.tid}"

    @property
    def is_minimal(self) -> bool:
        """True for any epoch of the form ``0@t`` (the paper's ⊥e)."""
        return self.clock == 0


#: The canonical minimal epoch 0@0 (the paper's ⊥e).
MIN_EPOCH = Epoch(0, 0)


# -- packed epochs -----------------------------------------------------------
#
# The packed state backend stores an epoch ``c@t`` as the single integer
# ``(c << TID_BITS) | t`` so the hot-path comparisons of Tables 4-7 become
# plain integer ops with no tuple allocation.  ``0`` is the packed ⊥e:
# every live thread clock is >= 1 from its first event (Equation 7 applies
# ``inc_t`` to the bottom clock before any access), so a real packed epoch
# is always >= ``PACKED_MIN`` and never collides with the sentinel.

#: Bits reserved for the thread id in a packed epoch.  2^20 threads is far
#: beyond any workload here; clocks get the (unbounded) remaining bits.
TID_BITS = 20

#: Mask selecting the tid field of a packed epoch.
TID_MASK = (1 << TID_BITS) - 1

#: Largest thread id a packed epoch can carry.
MAX_TID = TID_MASK

#: Smallest packed value of a real (non-⊥e) epoch: 1 @ tid 0.
PACKED_MIN = 1 << TID_BITS


def pack_epoch(clock: int, tid: int) -> int:
    """Pack ``clock @ tid`` into one int ``(clock << TID_BITS) | tid``.

    ``clock`` must be positive — packed 0 is reserved for ⊥e — and ``tid``
    must fit in :data:`TID_BITS`; anything else raises ``ValueError``.
    """
    if not 0 <= tid <= MAX_TID:
        raise ValueError(f"tid {tid} outside [0, {MAX_TID}]")
    if clock <= 0:
        raise ValueError(f"clock {clock} must be >= 1 (0 is the packed ⊥e)")
    return (clock << TID_BITS) | tid


def unpack_epoch(packed: int) -> Epoch:
    """Inverse of :func:`pack_epoch`; packed 0 unpacks to the ⊥e 0@0."""
    if packed == 0:
        return MIN_EPOCH
    return Epoch(packed >> TID_BITS, packed & TID_MASK)


class VectorClock:
    """A grow-on-demand vector clock.

    Components default to 0, so clocks over different thread universes
    compare correctly.  All mutating operations are in place; use
    :meth:`copy` for a deep copy.
    """

    __slots__ = ("_c",)

    def __init__(self, values: Optional[List[int]] = None) -> None:
        self._c: List[int] = list(values) if values else []

    # -- accessors -----------------------------------------------------

    def get(self, tid: int) -> int:
        """Return the clock component for ``tid`` (0 if never set)."""
        c = self._c
        return c[tid] if tid < len(c) else 0

    __getitem__ = get

    def set(self, tid: int, value: int) -> None:
        """Set the clock component for ``tid``, growing as needed."""
        c = self._c
        if tid >= len(c):
            c.extend([0] * (tid + 1 - len(c)))
        c[tid] = value

    __setitem__ = set

    def increment(self, tid: int) -> None:
        """Advance ``tid``'s component by one (logical time passes)."""
        self.set(tid, self.get(tid) + 1)

    def __len__(self) -> int:
        """Number of stored components (trailing zeros may be absent)."""
        return len(self._c)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(tid, clock)`` pairs for nonzero components."""
        for tid, value in enumerate(self._c):
            if value:
                yield tid, value

    # -- lattice operations ---------------------------------------------

    def copy(self) -> "VectorClock":
        """Return an independent deep copy."""
        return VectorClock(self._c)

    def ahead_of(self, other: "VectorClock") -> List[int]:
        """Indices where ``self`` exceeds ``other``, in increasing order.

        One C-iterated comparison pass over the common prefix plus the
        nonzero entries of ``self`` past ``len(other)``.  The result is
        empty exactly when ``self ⊑ other``, and it lists exactly the
        entries a join ``other <- other ⊔ self`` has to write.
        """
        mine, theirs = self._c, other._c
        ahead = list(compress(count(), map(gt, mine, theirs)))
        lt = len(theirs)
        if len(mine) > lt:
            ahead.extend(compress(count(lt), mine[lt:]))
        return ahead

    def join(self, other: "VectorClock", ahead: Optional[List[int]] = None) -> None:
        """In-place pointwise maximum: ``self <- self ⊔ other``.

        Extends ``self`` to ``other``'s length (even over a zero tail),
        then writes only the entries where ``other`` is ahead.  A caller
        that has already taken ``other.ahead_of(self)`` passes it as
        ``ahead`` so the comparison runs once; otherwise equal clocks
        return at a list ``==``, several times cheaper than the pass.
        """
        mine, theirs = self._c, other._c
        if ahead is None:
            if mine == theirs:
                return
            ahead = other.ahead_of(self)
        lt = len(theirs)
        if lt > len(mine):
            mine.extend([0] * (lt - len(mine)))
        for i in ahead:
            mine[i] = theirs[i]

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise comparison ``self ⊑ other``: :meth:`ahead_of`'s pass,
        stopping at the first entry where ``self`` is ahead."""
        mine, theirs = self._c, other._c
        if any(map(gt, mine, theirs)):
            return False
        lt = len(theirs)
        return len(mine) <= lt or not any(mine[lt:])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.leq(other) and other.leq(self)

    def __hash__(self) -> int:  # pragma: no cover - clocks are mutable
        raise TypeError("VectorClock is mutable and unhashable")

    def epoch_of(self, tid: int) -> Epoch:
        """The current epoch ``C[t]@t`` of thread ``tid``."""
        return Epoch(self.get(tid), tid)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        inner = ", ".join(f"{t}:{c}" for t, c in self.items())
        return f"VC({inner})"


def epoch_leq_vc(e: Optional[Epoch], clock: VectorClock) -> bool:
    """The constant-time relation ``c@t ⪯ C`` (Equation 4).

    ``None`` stands for the minimal epoch ⊥e and satisfies the relation
    vacuously.
    """
    if e is None or e.clock == 0:
        return True
    return e.clock <= clock.get(e.tid)


class ReadMap:
    """The last-reader bookkeeping for one variable (paper §2.2).

    A read map is conceptually a partial map ``t -> c`` with an attached
    access *site* per entry (used for race reports).  It has two
    representations:

    * **epoch**: exactly one entry, stored flat — the common case when
      reads are totally ordered;
    * **shared**: a dict of concurrent readers.

    An *empty* read map is represented by the detector as ``None`` rather
    than an empty ``ReadMap`` (PACER relies on ``null`` metadata for its
    fast paths), so this class always holds at least one entry.
    """

    __slots__ = ("_tid", "_clock", "_site", "_index", "_map")

    def __init__(self, tid: int, clock: int, site: int = 0, index: int = -1) -> None:
        self._tid = tid
        self._clock = clock
        self._site = site
        self._index = index
        self._map: Optional[Dict[int, Tuple[int, int, int]]] = None

    # -- representation queries ------------------------------------------

    @property
    def is_epoch(self) -> bool:
        """True while the map holds a single totally-ordered reader."""
        return self._map is None

    def __len__(self) -> int:
        return 1 if self._map is None else len(self._map)

    @property
    def epoch(self) -> Epoch:
        """The single entry as an epoch; only valid when :attr:`is_epoch`."""
        if self._map is not None:
            raise ValueError("read map is shared; no single epoch")
        return Epoch(self._clock, self._tid)

    @property
    def site(self) -> int:
        """Site of the single entry; only valid when :attr:`is_epoch`."""
        if self._map is not None:
            raise ValueError("read map is shared; use entries()")
        return self._site

    def entries(self) -> Iterator[Tuple[int, int, int, int]]:
        """Iterate ``(tid, clock, site, index)`` for every recorded reader."""
        if self._map is None:
            yield (self._tid, self._clock, self._site, self._index)
        else:
            for tid, (clock, site, index) in self._map.items():
                yield (tid, clock, site, index)

    def get(self, tid: int) -> int:
        """Clock recorded for ``tid`` (0 if absent)."""
        if self._map is None:
            return self._clock if tid == self._tid else 0
        entry = self._map.get(tid)
        return entry[0] if entry else 0

    # -- updates ---------------------------------------------------------

    def set_epoch(self, tid: int, clock: int, site: int = 0, index: int = -1) -> None:
        """Collapse to a single-entry epoch ``clock@tid``."""
        self._tid, self._clock, self._site, self._index = tid, clock, site, index
        self._map = None

    def record(self, tid: int, clock: int, site: int = 0, index: int = -1) -> None:
        """Add/overwrite ``tid``'s entry, inflating to a dict if needed."""
        if self._map is None:
            if tid == self._tid:
                self._clock, self._site, self._index = clock, site, index
                return
            self._map = {self._tid: (self._clock, self._site, self._index)}
        self._map[tid] = (clock, site, index)

    def discard(self, tid: int) -> bool:
        """Remove ``tid``'s entry if present.

        Returns True if the map became empty (the caller should then
        replace it with ``None``).  Used by PACER's non-sampling read rule
        (Table 4, Rules 2–3): a read FASTTRACK would have overwritten is
        discarded instead.

        A shared map is *not* collapsed back to the epoch representation
        when one entry remains: FASTTRACK never deflates a read map, and
        treating a leftover entry as an "exclusive" epoch would let a
        later ordered read discard another thread's sampled read
        (Rule 2), losing a guaranteed report.
        """
        if self._map is None:
            return tid == self._tid
        self._map.pop(tid, None)
        return not self._map

    # -- comparisons -------------------------------------------------------

    def leq_vc(self, clock: VectorClock) -> bool:
        """``R ⊑ C``: every recorded read happens before ``clock``."""
        if self._map is None:
            return self._clock <= clock.get(self._tid)
        return all(c <= clock.get(t) for t, (c, _s, _i) in self._map.items())

    def racing_entries(self, clock: VectorClock) -> List[Tuple[int, int, int, int]]:
        """Entries ``(tid, clock, site, index)`` *not* ordered before ``clock``.

        These are the prior reads that race with a write at ``clock``.
        """
        return [
            (t, c, s, i) for t, c, s, i in self.entries() if c > clock.get(t)
        ]

    def words(self) -> int:
        """Approximate metadata footprint in words (for Figure 10)."""
        if self._map is None:
            return 2  # packed epoch word + site word
        return 2 + 2 * len(self._map)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        inner = ", ".join(f"{t}:{c}" for t, c, _s, _i in self.entries())
        return f"ReadMap({inner})"
