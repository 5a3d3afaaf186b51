"""Pluggable per-variable state backends (the ``StateBackend`` seam).

Two backends hold the detectors' per-variable read/write metadata:

* ``object`` — the reference implementation: a dict of
  :class:`~repro.core.metadata.VarState` objects holding
  :class:`~repro.core.clocks.Epoch` NamedTuples and
  :class:`~repro.core.clocks.ReadMap` instances.  This is the layout the
  paper describes and the code the algorithm map points at.
* ``packed`` — the default: a slab/arena of parallel integer arrays
  indexed by dense slot ids, storing epochs packed per
  :func:`~repro.core.clocks.pack_epoch`.  Inflated concurrent-read maps
  live in a side table keyed by slot; PACER's metadata discard returns
  slots to a free list for reuse.

Both backends are held to identical races, operation counts, and
footprint words by the differential suite
(``tests/test_batch_differential.py``); select one with
``--state-backend`` on the CLI or the ``REPRO_STATE_BACKEND``
environment variable.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .clocks import Epoch, ReadMap, unpack_epoch
from .metadata import VarState

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "READ_SHARED",
    "PackedVarStore",
    "resolve_backend",
]

#: Recognized backend names.
BACKENDS = ("object", "packed")

#: Backend used when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "packed"

#: Sentinel in the packed read-epoch array: the read map is inflated and
#: lives in the :attr:`PackedVarStore.rshared` side table.  Real packed
#: epochs are >= 2^TID_BITS and packed ⊥e is 0, so -1 is unambiguous.
READ_SHARED = -1


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend name: explicit > ``REPRO_STATE_BACKEND`` > default."""
    if name is None:
        name = os.environ.get("REPRO_STATE_BACKEND") or DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown state backend {name!r}; choose from {BACKENDS}")
    return name


class PackedVarStore:
    """Arena of per-variable metadata as parallel integer arrays.

    Each tracked variable owns one *slot*; the slot's fields are:

    * ``wep[slot]``   — packed write epoch (0 = no write recorded),
    * ``wsite[slot]`` / ``windex[slot]`` — write site and event index,
    * ``rep[slot]``   — packed read epoch, 0 = no read recorded,
      :data:`READ_SHARED` = inflated map in :attr:`rshared`,
    * ``rsite[slot]`` / ``rindex[slot]`` — site/index of the epoch read.

    ``rshared[slot]`` maps ``tid -> (clock, site, index)`` for inflated
    concurrent-read maps, mirroring :class:`~repro.core.clocks.ReadMap`'s
    shared representation (including insertion order, which race reports
    depend on).  Slots released by PACER's metadata discard go on a free
    list and are reused by the next allocation.
    """

    __slots__ = (
        "index", "free",
        "wep", "wsite", "windex",
        "rep", "rsite", "rindex",
        "rshared",
    )

    def __init__(self) -> None:
        self.index: Dict[int, int] = {}
        self.free: List[int] = []
        self.wep: List[int] = []
        self.wsite: List[int] = []
        self.windex: List[int] = []
        self.rep: List[int] = []
        self.rsite: List[int] = []
        self.rindex: List[int] = []
        self.rshared: Dict[int, Dict[int, Tuple[int, int, int]]] = {}

    def alloc(self, var: int) -> int:
        """Claim a slot for ``var`` (reusing the free list), return it."""
        free = self.free
        if free:
            slot = free.pop()
            self.wep[slot] = 0
            self.wsite[slot] = 0
            self.windex[slot] = -1
            self.rep[slot] = 0
            self.rsite[slot] = 0
            self.rindex[slot] = -1
        else:
            slot = len(self.wep)
            self.wep.append(0)
            self.wsite.append(0)
            self.windex.append(-1)
            self.rep.append(0)
            self.rsite.append(0)
            self.rindex.append(-1)
        self.index[var] = slot
        return slot

    def release(self, var: int, slot: int) -> None:
        """Return ``var``'s slot to the free list (PACER metadata discard)."""
        del self.index[var]
        self.rshared.pop(slot, None)
        self.free.append(slot)

    def __len__(self) -> int:
        return len(self.index)

    # -- object-backend-compatible views ---------------------------------

    def view(self, var: int) -> Optional[VarState]:
        """Reconstruct ``var``'s state as a :class:`VarState`, or ``None``.

        For introspection and tests only — mutating the returned object
        does not write back to the arena.
        """
        slot = self.index.get(var)
        if slot is None:
            return None
        state = VarState()
        w = self.wep[slot]
        if w:
            state.write = unpack_epoch(w)
            state.write_site = self.wsite[slot]
            state.write_index = self.windex[slot]
        r = self.rep[slot]
        if r == READ_SHARED:
            entries = iter(self.rshared[slot].items())
            tid, (clock, site, idx) = next(entries)
            rm = ReadMap(tid, clock, site, idx)
            for tid, (clock, site, idx) in entries:
                rm.record(tid, clock, site, idx)
            state.read = rm
        elif r:
            e = unpack_epoch(r)
            state.read = ReadMap(e.tid, e.clock, self.rsite[slot], self.rindex[slot])
        return state

    def words(self) -> int:
        """Footprint in words; matches ``VarState.words()`` per variable."""
        total = 0
        rshared = self.rshared
        for slot in self.index.values():
            total += 2  # table entry: key + pointer
            if self.wep[slot]:
                total += 2  # packed epoch + site
            r = self.rep[slot]
            if r == READ_SHARED:
                total += 2 + 2 * len(rshared[slot])
            elif r:
                total += 2
        return total
