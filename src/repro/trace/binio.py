"""Compact binary trace serialization.

Paper-scale traces run to 10⁹ events; the text format
(:mod:`repro.trace.textio`) is convenient but ~20 bytes/event.  This
format packs each event into a varint-coded record (~3-6 bytes typical),
with a small header and — since version 2 — an integrity trailer:

    magic  b"PACR"    4 bytes
    version           1 byte
    event count       varint
    events            kind-id varint, tid+1 varint, target varint, site varint
    crc32 trailer     4 bytes little-endian (version >= 2 only)

The trailer is CRC32 over every preceding byte, so a flipped bit or a
silently shortened file is caught even when the damage still parses as
well-formed varints.  Version 1 files (no trailer) remain readable;
writers emit version 2 by default.

Kind ids are the canonical numbering in
:data:`repro.trace.events.KIND_TO_ID`.  ``sbegin``/``send`` encode only
their kind id.  The format round-trips exactly; truncated or corrupt
input raises :class:`~repro.trace.trace.TraceFormatError` with a message
naming the precise failure (bad magic, unsupported version, truncated
varint at a byte offset, trailing bytes, or a CRC32 mismatch) rather
than yielding garbage events.  ``repro verify-trace`` exposes the same
checks as a CLI command via :func:`describe_binary`.

One record decoder serves every pure-Python reader: it yields
``(kinds, tids, targets, sites)`` columns, which shard workers replay
directly and :func:`loads_binary` turns into
:class:`~repro.trace.events.Event` records.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

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
VERSION = 2
#: the legacy checksum-free format; still readable, never written unless asked
VERSION_1 = 1
SUPPORTED_VERSIONS = (VERSION_1, VERSION)

_CRC_BYTES = 4

#: the longest varint :func:`_read_varint` accepts, in bytes
_MAX_VARINT = 10

#: records per decoded block in :func:`loads_binary`, so a whole-file load
#: holds one block's columns, not the whole trace's, next to its events
_EVENT_BLOCK = 4096

_N_KINDS = len(ID_TO_KIND)
_SBEGIN_ID = KIND_TO_ID[SBEGIN]
_SEND_ID = KIND_TO_ID[SEND]

# historical alias from when the numbering lived in this module
_KIND_TO_ID = KIND_TO_ID

#: decoded records as parallel lists: kind ids, tids, targets, sites
Columns = Tuple[List[int], List[int], List[int], List[int]]


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
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


def dumps_binary(events: Iterable[Event], version: int = VERSION) -> bytes:
    """Serialize events to the binary format (version 2 by default).

    ``version=1`` writes the legacy trailer-free layout — kept for
    compatibility tests and for producing fixtures older readers accept.
    """
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"cannot write version {version} (supported: {SUPPORTED_VERSIONS})")
    rows = events if isinstance(events, (list, tuple)) else list(events)
    out = bytearray()
    out += MAGIC
    out.append(version)
    _write_varint(out, len(rows))
    append = out.append
    write = _write_varint
    kind_ids = KIND_TO_ID.get
    sbegin_id, send_id = _SBEGIN_ID, _SEND_ID
    # most operands fit one varint byte: those are appended inline, and
    # longer (or invalid) values go through _write_varint
    for kind, tid, target, site in rows:
        kind_id = kind_ids(kind)
        if kind_id is None:
            raise ValueError(f"unknown event kind {kind!r}")
        append(kind_id)  # every kind id is below 0x80
        if kind_id == sbegin_id or kind_id == send_id:
            continue
        if tid < -1:
            raise ValueError(f"cannot encode tid {tid}")
        if target < 0:
            raise ValueError(f"cannot encode negative target {target}")
        # tids are >= 0 for thread actions; alloc's site may carry a
        # signed live-delta, zig-zag encode it
        tid += 1
        if tid < 0x80:
            append(tid)
        else:
            write(out, tid)
        if target < 0x80:
            append(target)
        else:
            write(out, target)
        site = (site << 1) ^ (site >> 63)  # zig-zag
        if 0 <= site < 0x80:
            append(site)
        else:
            write(out, site)
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
    """The ``count`` records from ``data[pos:end]``, and the offset one
    past the last of them.

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


def _check_filled(pos: int, end: int) -> None:
    """The records must end exactly where the payload does."""
    if pos != end:
        raise TraceFormatError(f"{end - pos} trailing bytes after events")


def _events(kinds, tids, targets, sites) -> List[Event]:
    """Decoded columns as :class:`Event` records."""
    return list(map(Event, map(ID_TO_KIND.__getitem__, kinds), tids, targets, sites))


def loads_binary(data: bytes, validate: bool = True) -> Trace:
    """Parse the binary format into a :class:`Trace`.

    Raises :class:`TraceFormatError` on any structural problem and (when
    ``validate`` is on) :class:`~repro.trace.trace.TraceError` if the
    decoded events are not a feasible trace.  Records are decoded and
    checked a block at a time; a format error, in
    :func:`_decode_document`'s order, outranks a feasibility error.
    """
    version, count, pos, end = _parse_count(data)
    checker = FeasibilityChecker() if validate else None
    events: List[Event] = []
    for first in range(0, count, _EVENT_BLOCK):
        columns, pos = _decode_columns(
            data, min(_EVENT_BLOCK, count - first), pos, end)
        if checker is not None:
            try:
                checker.check(first, *columns)
            except TraceError:
                _decode_document(data)  # a format error outranks it
                raise
        events += _events(*columns)
    _check_filled(pos, end)
    if version >= 2:
        _check_crc(data)
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
    structure (kind ids, varints, exact fill) but not the CRC32 trailer,
    which ``check_binary`` already verified.  Raises
    :class:`TraceFormatError`.
    """
    _version, count, pos, end = _parse_count(data)
    columns, pos = _decode_columns(data, count, pos, end)
    _check_filled(pos, end)
    return columns


def _decode_document(data: bytes) -> Columns:
    """A whole document's records, checked in the readers' order: header,
    event count, records, exact fill, then (v2+) the CRC32 trailer."""
    columns = decode_binary_columns(data)
    check_binary(data)
    return columns


def decode_binary_events(data: bytes) -> List[Event]:
    """:func:`decode_binary_columns`, as :class:`Event` records."""
    return _events(*decode_binary_columns(data))


# -- columnar (zero-copy) reader ---------------------------------------------
#
# ``loads_binary_columns`` decodes the same wire format straight into an
# :class:`~repro.trace.batch.EventBatch` whose columns are NumPy arrays,
# skipping per-event ``Event`` construction entirely — the feed for
# ``repro analyze --batch``.  It is what the optional ``[np]`` extra is
# for, and it imports NumPy on first call, never at module import.  The
# decode is vectorized (one pass of array ops over the whole payload,
# no per-varint Python), and ``load_trace_columns`` maps the file with
# ``mmap`` so the raw bytes are never copied into the interpreter heap.
#
# Correctness contract: on *any* anomaly — bad magic, truncated varint,
# CRC mismatch, structural disagreement, oversized values — the column
# reader delegates to the scalar record decoder, so corrupt input
# produces byte-identical :class:`TraceFormatError` messages in
# :func:`loads_binary`'s checking order.  The fast path returns only
# when a fully clean vectorized decode agrees with the format's
# sequential grammar.

#: payload bytes the vectorized reader expands at a time.  Its per-byte
#: temporaries (about 60 bytes per payload byte) then stay near 4 MB
#: whatever the trace's length.  Expanding a whole 2.3 MB payload at
#: once peaked about 100 MB higher, and about 20 MB of the freed heap
#: stayed resident under whatever the process did next.
_BLOCK_BYTES = 1 << 16


def _varint_values(b, most: int):
    """Every varint value in payload bytes ``b`` (a NumPy ``uint8`` array
    ending on a varint's last byte), in order, decoded block by block
    into one array of room ``most``.  None when a varint is longer than
    5 bytes (values >= 2^35, or past the 64-bit limit: rare enough that
    the scalar reader both decodes and errors them) or there are more
    than ``most`` varints."""
    import numpy as np

    values = np.empty(most, dtype=np.int64)
    lo, nb, at = 0, len(b), 0
    while lo < nb:
        # end the block on the last byte of the varint its cut falls in
        hi = min(lo + _BLOCK_BYTES, nb)
        last = np.flatnonzero((b[hi - 1:hi + 9] & 0x80) == 0)
        if not len(last):
            return None
        hi += int(last[0])
        block = b[lo:hi]
        term = (block & 0x80) == 0
        starts = np.empty(len(block), dtype=bool)
        starts[0] = True
        starts[1:] = term[:-1]
        spos = np.flatnonzero(starts)
        # k: each byte's position inside its varint
        k = np.arange(len(block), dtype=np.int64) - spos[np.cumsum(starts) - 1]
        if int(k.max()) > 4:
            return None
        vals = (block & 0x7F).astype(np.int64) << (7 * k)
        cs = np.cumsum(vals)
        n = len(spos)
        if at + n > most:
            return None
        values[at:at + n] = cs[np.flatnonzero(term)] - cs[spos] + vals[spos]
        at += n
        lo = hi
    return values[:at]


def _columns_fallback(data):
    """Decode with the scalar record decoder (exact errors) into a batch."""
    return EventBatch.from_columns(*_decode_document(bytes(data)))


def loads_binary_columns(data):
    """Parse a binary trace into a columnar :class:`EventBatch`.

    Accepts any bytes-like object (``bytes``, ``memoryview``, ``mmap``).
    Structural integrity — magic, version, varint well-formedness, event
    count, CRC32 trailer — is always enforced, with the same exceptions
    as :func:`loads_binary`.  It only decodes: feasibility is checked by
    :class:`~repro.trace.trace.FeasibilityChecker` on the list columns.

    Requires numpy for the vectorized path; without it the scalar reader
    is used transparently.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised via gating tests
        return _columns_fallback(data)

    view = memoryview(data)
    try:
        version, pos, end = _parse_header(view)
        count, pos = _read_varint(view, pos, end)
    except TraceFormatError:
        return _columns_fallback(data)
    if version >= 2 and zlib.crc32(view[:-_CRC_BYTES]) != int.from_bytes(
        view[-_CRC_BYTES:], "little"
    ):
        # scalar reader decides whether a structural error outranks the
        # CRC mismatch, keeping the error order identical
        return _columns_fallback(data)
    if count == 0:
        if pos != end:
            return _columns_fallback(data)
        return EventBatch([], [], [], [])
    if pos >= end or count > end - pos:
        return _columns_fallback(data)

    b = np.frombuffer(view, dtype=np.uint8, count=end - pos, offset=pos)
    if b[-1] & 0x80:  # payload ends mid-varint
        return _columns_fallback(data)
    # a record is at most 4 varints, and a varint at least 1 byte
    V = _varint_values(b, min(4 * count, len(b)))
    if V is None:
        return _columns_fallback(data)
    M = len(V)

    # Recover record boundaries.  The grammar is sequential — a record
    # is 1 varint for sbegin/send, 4 otherwise — but only the *values*
    # 8/9 at record starts matter, so walk just the candidate positions:
    # between consecutive one-varint markers every record is 4 long.
    markers: List[int] = []
    cur = 0
    cand = np.flatnonzero((V == _SBEGIN_ID) | (V == _SEND_ID))
    for c in cand.tolist():
        if c >= cur and (c - cur) % 4 == 0:
            markers.append(c)
            cur = c + 1
    if (M - cur) % 4:
        return _columns_fallback(data)
    n_records = len(markers) + (M - len(markers)) // 4
    if n_records != count:
        return _columns_fallback(data)

    # the records between two markers are all four varints long: read
    # each stretch's columns as strided views, into the output columns
    kinds = np.empty(count, dtype=np.uint8)
    tids = np.empty(count, dtype=np.int64)
    targets = np.empty(count, dtype=np.int64)
    sites = np.empty(count, dtype=np.int64)
    r = prev = 0
    for m in markers + [M]:
        records = V[prev:m].reshape(-1, 4)
        n = len(records)
        if n:
            if int(records[:, 0].max()) >= _N_KINDS:
                return _columns_fallback(data)
            kinds[r:r + n] = records[:, 0]
            np.subtract(records[:, 1], 1, out=tids[r:r + n])
            targets[r:r + n] = records[:, 2]
            z = records[:, 3]  # zigzag-coded site
            np.bitwise_xor(z >> 1, -(z & 1), out=sites[r:r + n])
            r += n
        if m < M:  # a marker record is exactly one varint
            kinds[r], tids[r], targets[r], sites[r] = V[m], -1, 0, 0
            r += 1
        prev = m + 1
    return EventBatch.from_columns(kinds, tids, targets, sites)


def load_trace_columns(path: Union[str, Path]):
    """Read a binary trace file into a columnar :class:`EventBatch`.

    The file is ``mmap``-ed read-only and decoded in place — the raw
    bytes are never copied into the Python heap; only the four decoded
    integer columns are materialized.  Error behavior matches
    :func:`loads_binary_columns`.
    """
    import mmap

    with open(Path(path), "rb") as fh:
        size = fh.seek(0, 2)
        if size == 0:
            # mmap rejects empty files; the scalar reader owns the error
            return _columns_fallback(b"")
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            try:
                return loads_binary_columns(mm)
            except TraceFormatError:
                # the traceback pins buffer views into the map; copy out
                # and re-raise from plain bytes so the map can close
                data = bytes(mm)
        finally:
            try:
                mm.close()
            except BufferError:  # pragma: no cover - freed by the GC then
                pass
    return _columns_fallback(data)


def describe_binary(data: bytes, validate: bool = False) -> Dict[str, object]:
    """Fully check a binary trace and report what was found.

    Runs every structural check :func:`loads_binary` runs (plus trace
    feasibility when ``validate`` is set, on the decoded columns) and
    returns a summary dict — the engine behind ``repro verify-trace``.
    Raises :class:`TraceFormatError` on the first integrity problem.
    """
    version, _, _ = _parse_header(data)
    columns = _decode_document(data)
    if validate:
        FeasibilityChecker().check(0, *columns)
    crc: Optional[str] = None
    if version >= 2:
        crc = f"0x{int.from_bytes(data[-_CRC_BYTES:], 'little'):08x}"
    return {
        "format": "binary",
        "version": version,
        "events": len(columns[0]),
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
