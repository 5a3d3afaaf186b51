"""Compact binary trace serialization.

Paper-scale traces run to 10⁹ events; the text format
(:mod:`repro.trace.textio`) is convenient but ~20 bytes/event.  The
binary format stores a trace as blocks of fixed-width columns that the
standard library decodes a column at a time (``array.frombytes``), with
no per-event Python step.  Version 3, what every writer emits::

    magic  b"PACR"    4 bytes
    version           1 byte (3)
    event count       varint
    blocks            of 1..4096 records each:
        n             u16
        widths        u8 each: bytes per tid, target and site (1, 2, 4 or 8)
        kind ids      n x u8
        tids          n signed integers
        targets       n unsigned integers
        sites         n signed integers
    crc32 trailer     4 bytes

Every integer is little-endian.  Each column of a block takes the
narrowest width that holds all its values, so a tid is typically one
byte, and tid -1 and negative ``alloc`` sites are stored as they are.
``sbegin``/``send`` are stored as ``(kind, -1, 0, 0)``.  A writer
rejects, with a :class:`ValueError` naming the field, a tid outside
-1 .. 2^63-1, a target outside 0 .. 2^64-1 or a site outside the signed
64-bit range.

The trailer is CRC32 over every preceding byte, so a flipped bit or a
silently shortened file is caught even when the damage still parses.

Version history (every version stays readable; ``dumps_binary(version=)``
still writes the older ones, for fixtures):

* **v1** — varint records (kind id, tid+1, target, zig-zag site;
  markers as their kind id alone), no trailer.
* **v2** — v1 plus the CRC32 trailer.
* **v3** — the column blocks above, inside v2's envelope (magic,
  version, count, trailer), so envelope checks read every version.

Kind ids are the canonical numbering in
:data:`repro.trace.events.KIND_TO_ID`.  The format round-trips exactly;
truncated or corrupt input raises
:class:`~repro.trace.trace.TraceFormatError` with a message naming the
precise failure (bad magic, unsupported version, a bad or truncated
block, an unknown kind id, a truncated varint at a byte offset, trailing
bytes, or a CRC32 mismatch) rather than yielding garbage events.
``repro verify-trace`` exposes the same checks via :func:`describe_binary`.

One block iterator serves every reader: it yields
``(kinds, tids, targets, sites)`` list columns a block at a time —
v3's own blocks, or runs of 4096 records of a v1/v2 document, which go
through the pure-Python varint decoder — and checks every version in one
order: header, event count, the records, their count, exact fill, then
the trailer.  Shard workers replay the columns directly,
:func:`loads_binary` turns them into :class:`~repro.trace.events.Event`
records, and :func:`loads_binary_columns` into an
:class:`~repro.trace.batch.EventBatch`.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .batch import EventBatch
from .events import Event, ID_TO_KIND, KIND_TO_ID, SBEGIN, SEND
from .trace import FeasibilityChecker, Trace, TraceError, TraceFormatError

__all__ = [
    "dump_trace_binary",
    "load_trace_binary",
    "dumps_binary",
    "loads_binary",
    "check_binary",
    "decode_binary_columns",
    "decode_binary_events",
    "loads_binary_columns",
    "load_trace_columns",
    "describe_binary",
]

MAGIC = b"PACR"
#: newest format version, what ``dumps_binary`` emits by default
VERSION = 3
#: the legacy checksum-free varint format; readable, written only if asked
VERSION_1 = 1
#: the checksummed varint format; readable, written only if asked
VERSION_2 = 2
SUPPORTED_VERSIONS = (VERSION_1, VERSION_2, VERSION)

_CRC_BYTES = 4

#: the longest varint :func:`_read_varint` accepts, in bytes
_MAX_VARINT = 10

#: records per v3 block, at most, and per block a v1/v2 document is
#: decoded in: a whole-file load holds one block's columns at a time,
#: not the whole trace's, next to its events
_EVENT_BLOCK = 4096

_N_KINDS = len(ID_TO_KIND)
_SBEGIN_ID = KIND_TO_ID[SBEGIN]
_SEND_ID = KIND_TO_ID[SEND]

# historical alias from when the numbering lived in this module
_KIND_TO_ID = KIND_TO_ID

#: decoded records as parallel lists: kind ids, tids, targets, sites
Columns = Tuple[List[int], List[int], List[int], List[int]]
#: one block of decoded records: v3's four arrays, or v1/v2's lists
Blocks = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]

#: the operand ranges a document holds
_I64_MIN, _I64_MAX, _U64_MAX = -(1 << 63), (1 << 63) - 1, (1 << 64) - 1

#: column width in bytes -> array typecode, by ``itemsize`` rather than
#: by letter, whose sizes vary between platforms
_SIGNED = {array(code).itemsize: code for code in "qlihb"}
_UNSIGNED = {array(code).itemsize: code for code in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"

#: kind-id byte -> 0 for an event kind, 2 for a marker, 1 for no kind
_KIND_CHECK = bytes(
    2 if b in (_SBEGIN_ID, _SEND_ID) else 0 if b < _N_KINDS else 1
    for b in range(256)
)
#: top byte of a signed column value -> 1 when the value is negative
_NEGATIVE = bytes(b >> 7 for b in range(256))


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int, end: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise TraceFormatError(f"truncated varint at byte {pos}")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise TraceFormatError(f"varint longer than 64 bits at byte {pos}")


def _check_event(kind, tid: int, target: int, site: int) -> int:
    """The kind id of one event whose operands every version can hold."""
    kind_id = KIND_TO_ID.get(kind)
    if kind_id is None:
        raise ValueError(f"unknown event kind {kind!r}")
    if kind_id == _SBEGIN_ID or kind_id == _SEND_ID:
        return kind_id  # a marker's operands are not stored
    if not -1 <= tid <= _I64_MAX:
        raise ValueError(f"cannot encode tid {tid}")
    if target < 0:
        raise ValueError(f"cannot encode negative target {target}")
    if target > _U64_MAX:
        raise ValueError(f"cannot encode target {target} (above 2**64 - 1)")
    if not _I64_MIN <= site <= _I64_MAX:
        raise ValueError(f"cannot encode site {site} (outside signed 64 bits)")
    return kind_id


def _packed(values: List[int], signed: bool) -> array:
    """``values`` as little-endian integers of the narrowest width that
    holds them all (:class:`OverflowError` beyond 8 bytes)."""
    lo, hi = min(values), max(values)
    for width in (1, 2, 4, 8):
        bound = 1 << (8 * width - signed)
        if -bound <= lo and hi < bound or width == 8:
            break
    column = array((_SIGNED if signed else _UNSIGNED)[width], values)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _write_blocks(out: bytearray, rows) -> None:
    """The v3 blocks of ``rows``.  A block is checked by encoding it; if
    that fails, its events are checked one by one, so the first bad one
    names itself exactly as the v1/v2 writer names it."""
    for a in range(0, len(rows), _EVENT_BLOCK):
        block = rows[a:a + _EVENT_BLOCK]
        t, g, s = (list(map(itemgetter(i), block)) for i in (1, 2, 3))
        try:
            # TypeError on an unknown kind, looked up as None
            kind_bytes = bytes(map(KIND_TO_ID.get, map(itemgetter(0), block)))
            marks = kind_bytes.translate(_KIND_CHECK)
            i = marks.find(2)
            while i >= 0:
                t[i], g[i], s[i] = -1, 0, 0
                i = marks.find(2, i + 1)
            if min(t) < -1:
                raise OverflowError
            columns = (_packed(t, True), _packed(g, False), _packed(s, True))
        except (TypeError, OverflowError):
            for row in block:
                _check_event(*row)
            raise
        out += len(t).to_bytes(2, "little")
        out += bytes(column.itemsize for column in columns)
        out += kind_bytes
        for column in columns:
            out += column


def _write_records(out: bytearray, rows) -> None:
    """The v1/v2 varint records of ``rows``."""
    write = _write_varint
    for kind, tid, target, site in rows:
        kind_id = _check_event(kind, tid, target, site)
        out.append(kind_id)  # every kind id is below 0x80
        if kind_id != _SBEGIN_ID and kind_id != _SEND_ID:
            write(out, tid + 1)
            write(out, target)
            write(out, (site << 1) ^ (site >> 63))  # zig-zag


def dumps_binary(events: Iterable[Event], version: int = VERSION) -> bytes:
    """Serialize events to the binary format (version 3 by default).

    ``version=1`` and ``version=2`` write the legacy varint layouts —
    kept for compatibility tests and for fixtures older readers accept.
    """
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"cannot write version {version} (supported: {SUPPORTED_VERSIONS})")
    rows = events if isinstance(events, (list, tuple)) else list(events)
    out = bytearray(MAGIC)
    out.append(version)
    _write_varint(out, len(rows))
    (_write_blocks if version == VERSION else _write_records)(out, rows)
    if version >= 2:
        out += zlib.crc32(out).to_bytes(_CRC_BYTES, "little")
    return bytes(out)


def _parse_header(data: bytes) -> Tuple[int, int, int]:
    """Validate magic/version/trailer bounds; return (version, pos, end).

    ``pos`` is the offset of the event-count varint, ``end`` the offset
    one past the last event byte (the CRC trailer, if any, lies beyond).
    """
    if data[:4] != MAGIC:
        raise TraceFormatError("not a PACR binary trace (bad magic)")
    if len(data) < 5:
        raise TraceFormatError("truncated header")
    version = data[4]
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(f"unsupported version {version}")
    end = len(data)
    # v1 has no trailer, so a v3 document whose version byte lost bit 1
    # would otherwise be read unchecked
    if version == VERSION_1 and end >= 10 and zlib.crc32(
            MAGIC + bytes([VERSION]) + data[5:-4]) == int.from_bytes(data[-4:], "little"):
        raise TraceFormatError("corrupt version byte: a v1 trace with a v3 CRC32 trailer")
    if version >= 2:
        if len(data) < 5 + 1 + _CRC_BYTES:
            raise TraceFormatError(
                f"truncated trailer: v{version} trace needs a {_CRC_BYTES}-byte "
                f"CRC32 after the events, got {len(data)} bytes total"
            )
        end -= _CRC_BYTES
    return version, 5, end


def _check_crc(data: bytes) -> int:
    """Verify a v2+ trailer; return the stored CRC32."""
    stored = int.from_bytes(data[-_CRC_BYTES:], "little")
    computed = zlib.crc32(data[:-_CRC_BYTES])
    if stored != computed:
        raise TraceFormatError(
            f"CRC32 mismatch: stored 0x{stored:08x}, computed 0x{computed:08x} "
            f"(trace is corrupt or truncated)"
        )
    return stored


def _parse_count(data: bytes) -> Tuple[int, int, int, int]:
    """Header plus event count; return (version, count, pos, end).

    ``pos`` is the offset of the first event record.
    """
    version, pos, end = _parse_header(data)
    try:
        count, pos = _read_varint(data, pos, end)
    except TraceFormatError as exc:
        raise TraceFormatError(f"bad event count: {exc}") from None
    if count > end - pos:
        # every event record is at least one byte, so a count beyond the
        # remaining payload is corrupt — reject before looping over it
        raise TraceFormatError(
            f"event count {count} exceeds remaining payload ({end - pos} bytes)"
        )
    return version, count, pos, end


def _decode_columns(
    data: bytes, count: int, pos: int, end: int
) -> Tuple[Columns, int]:
    """The ``count`` v1/v2 records from ``data[pos:end]``, and the offset
    one past the last of them.

    Varints of up to three bytes are read inline.  Longer ones, and every
    field of the records that start in the last ``4 * _MAX_VARINT`` bytes,
    go through :func:`_read_varint`, which owns the truncation and length
    errors — so the checks, their order and their messages are exactly
    those of reading each field with :func:`_read_varint`.
    """
    kinds: List[int] = []
    tids: List[int] = []
    targets: List[int] = []
    sites: List[int] = []
    add_kind, add_tid = kinds.append, tids.append
    add_target, add_site = targets.append, sites.append
    read = _read_varint
    n_kinds, sbegin_id, send_id = _N_KINDS, _SBEGIN_ID, _SEND_ID
    # a record is at most four varints of _MAX_VARINT bytes, so one that
    # starts at or before ``safe`` cannot reach ``end``: the inline reads
    # below need no bounds checks
    safe = end - 4 * _MAX_VARINT
    for _ in range(count):
        if pos > safe:
            break
        k = data[pos]
        if k < 0x80:
            pos += 1
        else:
            k, pos = read(data, pos, end)
        if k >= n_kinds:
            raise TraceFormatError(f"unknown kind id {k} at byte {pos}")
        add_kind(k)
        if k == sbegin_id or k == send_id:
            add_tid(-1)
            add_target(0)
            add_site(0)
            continue
        v = data[pos]
        if v < 0x80:
            pos += 1
        else:
            b = data[pos + 1]
            if b < 0x80:
                v = (v & 0x7F) | (b << 7)
                pos += 2
            else:
                c = data[pos + 2]
                if c < 0x80:
                    v = (v & 0x7F) | ((b & 0x7F) << 7) | (c << 14)
                    pos += 3
                else:
                    v, pos = read(data, pos, end)
        add_tid(v - 1)
        v = data[pos]
        if v < 0x80:
            pos += 1
        else:
            b = data[pos + 1]
            if b < 0x80:
                v = (v & 0x7F) | (b << 7)
                pos += 2
            else:
                c = data[pos + 2]
                if c < 0x80:
                    v = (v & 0x7F) | ((b & 0x7F) << 7) | (c << 14)
                    pos += 3
                else:
                    v, pos = read(data, pos, end)
        add_target(v)
        v = data[pos]
        if v < 0x80:
            pos += 1
        else:
            b = data[pos + 1]
            if b < 0x80:
                v = (v & 0x7F) | (b << 7)
                pos += 2
            else:
                c = data[pos + 2]
                if c < 0x80:
                    v = (v & 0x7F) | ((b & 0x7F) << 7) | (c << 14)
                    pos += 3
                else:
                    v, pos = read(data, pos, end)
        add_site((v >> 1) ^ -(v & 1))  # zig-zag
    for _ in range(count - len(kinds)):  # the records near ``end``
        k, pos = read(data, pos, end)
        if k >= n_kinds:
            raise TraceFormatError(f"unknown kind id {k} at byte {pos}")
        add_kind(k)
        if k == sbegin_id or k == send_id:
            add_tid(-1)
            add_target(0)
            add_site(0)
            continue
        v, pos = read(data, pos, end)
        add_tid(v - 1)
        v, pos = read(data, pos, end)
        add_target(v)
        v, pos = read(data, pos, end)
        add_site((v >> 1) ^ -(v & 1))
    return (kinds, tids, targets, sites), pos


def _column(data: bytes, a: int, b: int, code: str) -> array:
    """The little-endian integers of ``data[a:b]``, in host order."""
    values = array(code, data[a:b])
    if _BIG_ENDIAN:
        values.byteswap()
    return values


def _decode_block(data: bytes, pos: int, end: int) -> Tuple[Blocks, int]:
    """The v3 block at ``data[pos:end]`` as four arrays, and the offset
    one past it.

    Checks its length, widths and bounds, then its values on the raw
    column bytes: every kind id names a kind, no tid is below -1 and
    every marker is ``(-1, 0, 0)``; the earliest bad record names itself.
    """
    if end - pos < 5:
        raise TraceFormatError(f"truncated block header at byte {pos}")
    n = data[pos] | data[pos + 1] << 8
    if not 1 <= n <= _EVENT_BLOCK:
        raise TraceFormatError(f"bad block length {n} at byte {pos}")
    tw, gw, sw = data[pos + 2:pos + 5]
    if tw not in _SIGNED or gw not in _SIGNED or sw not in _SIGNED:
        raise TraceFormatError(f"bad column widths {tw}, {gw}, {sw} at byte {pos + 2}")
    k = pos + 5
    t = k + n
    g = t + n * tw
    s = g + n * gw
    stop = s + n * sw
    if stop > end:
        raise TraceFormatError(f"truncated block at byte {pos}: "
                               f"needs {stop - pos} bytes, {end - pos} left")
    kinds = array("B", data[k:t])
    tids = _column(data, t, g, _SIGNED[tw])
    targets = _column(data, g, s, _UNSIGNED[gw])
    sites = _column(data, s, stop, _SIGNED[sw])
    bad = []
    marks = data[k:t].translate(_KIND_CHECK)
    i = marks.find(1)
    if i >= 0:
        bad.append((i, f"unknown kind id {kinds[i]} at byte {k + i}"))
    negative = data[t + tw - 1:g:tw].translate(_NEGATIVE)
    i = negative.find(1)
    while i >= 0 and tids[i] == -1:
        i = negative.find(1, i + 1)
    if i >= 0:
        bad.append((i, f"tid {tids[i]} below -1 at byte {t + i * tw}"))
    i = marks.find(2)
    while i >= 0 and tids[i] == -1 and not targets[i] and not sites[i]:
        i = marks.find(2, i + 1)
    if i >= 0:
        bad.append((i, f"{ID_TO_KIND[kinds[i]]} with operands "
                       f"({tids[i]}, {targets[i]}, {sites[i]}) at byte {k + i}"))
    if bad:
        raise TraceFormatError(min(bad)[1])
    return (kinds, tids, targets, sites), stop


def _records(data: bytes, crc: bool = True, rows: int = 0) -> Iterator[Blocks]:
    """A document's records, a block of columns at a time: a v3 block's
    four arrays, or the lists of up to ``rows`` (default
    ``_EVENT_BLOCK``) v1/v2 records.

    Checks every version in one order: header, event count, the records
    block by block, that they add up to the count and end exactly where
    the payload does, then (v2+, when ``crc``) the CRC32 trailer — so a
    caller that stops early has seen no trailer check.
    """
    version, count, pos, end = _parse_count(data)
    if version < VERSION:
        rows = rows or _EVENT_BLOCK
        for first in range(0, count, rows):
            columns, pos = _decode_columns(data, min(rows, count - first), pos, end)
            yield columns
    else:
        seen = 0
        while seen < count:
            at = pos
            columns, pos = _decode_block(data, pos, end)
            seen += len(columns[0])
            if seen > count:
                raise TraceFormatError(f"block at byte {at} ends at record "
                                       f"{seen}, past the event count {count}")
            yield columns
    if pos != end:
        raise TraceFormatError(f"{end - pos} trailing bytes after events")
    if crc and version >= 2:
        _check_crc(data)


def _checked_records(data: bytes, validate: bool) -> Iterator[Blocks]:
    """:func:`_records`, each block checked by one
    :class:`FeasibilityChecker` when ``validate`` is set.  A format error
    anywhere in the document outranks an infeasible event."""
    checker, first = FeasibilityChecker() if validate else None, 0
    blocks = _records(data)
    for columns in blocks:
        try:
            first = checker.check(first, *columns) if checker else 0
        except TraceError:
            for _ in blocks:
                pass
            raise
        yield columns


class _Interned(dict):
    """Rows to their one :class:`Event`: equal rows share one object.

    A table lives for one decode call.  Events are immutable, so sharing
    is safe, and building only the distinct ones spares the allocations
    and the cyclic collector's rescans of every event built so far.
    """

    __slots__ = ()

    def __missing__(self, row) -> Event:
        event = tuple.__new__(Event, row)
        self[event] = event  # the event is its own key: the row is dropped
        return event


def _events(kinds, tids, targets, sites, table=None) -> List[Event]:
    """Decoded columns as :class:`Event` records, interned in ``table``
    (a fresh one by default)."""
    table = _Interned() if table is None else table
    rows = zip(map(ID_TO_KIND.__getitem__, kinds), tids, targets, sites)
    return list(map(table.__getitem__, rows))


def _whole(data: bytes, crc: bool = True) -> Columns:
    """A document's records as four lists: a v1/v2 document decoded as
    one block (it holds fewer records than bytes), or one ``tolist`` per
    column of a v3 document, its blocks' arrays joined and narrow ones
    widened."""
    columns = []
    for part in list(zip(*_records(data, crc, rows=len(data)))) or [()] * 4:
        if part and type(part[0]) is list:
            columns.append(part[0])
            continue
        code = max(part, key=lambda c: c.itemsize, default=array("b")).typecode
        joined = b"".join(c if c.typecode == code else array(code, c) for c in part)
        columns.append(array(code, joined).tolist())
    return tuple(columns)


def loads_binary(data: bytes, validate: bool = True) -> Trace:
    """Parse the binary format into a :class:`Trace`.

    Raises :class:`TraceFormatError` on any structural problem and (when
    ``validate`` is on) :class:`~repro.trace.trace.TraceError` if the
    decoded events are not a feasible trace.  Records are decoded and
    checked a block at a time; a format error, in :func:`_records`'
    order, outranks a feasibility error.
    """
    events: List[Event] = []
    table = _Interned()
    for columns in _checked_records(data, validate):
        events += _events(*columns, table=table)
    return Trace(events)


def check_binary(data: bytes) -> int:
    """Check a binary document's envelope without decoding its events.

    Runs the checks that need no per-event work — magic, version, the
    event count against the payload size, and (v2+) the CRC32 trailer —
    and returns the declared event count.  The record structure is left
    to :func:`decode_binary_columns`.  Raises :class:`TraceFormatError`.
    """
    version, count, _pos, _end = _parse_count(data)
    if version >= 2:
        _check_crc(data)
    return count


def decode_binary_columns(data: bytes) -> Columns:
    """Decode the records of a document :func:`check_binary` accepted.

    Returns ``(kinds, tids, targets, sites)`` lists, kinds as their
    :data:`~repro.trace.events.KIND_TO_ID` ids.  Checks the record
    structure (blocks or varints, values, exact fill) but not the CRC32
    trailer, which ``check_binary`` already verified.  Raises
    :class:`TraceFormatError`.
    """
    return _whole(data, crc=False)


def decode_binary_events(data: bytes) -> List[Event]:
    """:func:`decode_binary_columns`, as :class:`Event` records."""
    return _events(*decode_binary_columns(data))


def loads_binary_columns(data: bytes) -> EventBatch:
    """Parse a binary trace into a columnar :class:`EventBatch` of lists.

    Every structural check of :func:`loads_binary` runs, in its order and
    with its messages.  It only decodes: feasibility is checked by
    :class:`~repro.trace.trace.FeasibilityChecker` on the columns.
    """
    return EventBatch.from_columns(*_whole(bytes(data)))


def load_trace_columns(path: Union[str, Path]) -> EventBatch:
    """Read a binary trace file into a columnar :class:`EventBatch`
    (:func:`loads_binary_columns` of the file's bytes)."""
    return loads_binary_columns(Path(path).read_bytes())


def describe_binary(data: bytes, validate: bool = False) -> Dict[str, object]:
    """Fully check a binary trace and report what was found.

    Runs every structural check :func:`loads_binary` runs (plus trace
    feasibility when ``validate`` is set, on the decoded columns) and
    returns a summary dict — the engine behind ``repro verify-trace``.
    Raises :class:`TraceFormatError` on the first integrity problem.
    """
    version, _, _ = _parse_header(data)
    events = sum(len(columns[0]) for columns in _checked_records(data, validate))
    crc: Optional[str] = None
    if version >= 2:
        crc = f"0x{int.from_bytes(data[-_CRC_BYTES:], 'little'):08x}"
    return {
        "format": "binary",
        "version": version,
        "events": events,
        "bytes": len(data),
        "crc32": crc,
        "checksummed": version >= 2,
    }


def dump_trace_binary(
    events: Iterable[Event], path: Union[str, Path], version: int = VERSION
) -> None:
    """Write events to ``path`` in the binary format."""
    Path(path).write_bytes(dumps_binary(events, version=version))


def load_trace_binary(path: Union[str, Path], validate: bool = True) -> Trace:
    """Read a binary trace written by :func:`dump_trace_binary`."""
    return loads_binary(Path(path).read_bytes(), validate=validate)
