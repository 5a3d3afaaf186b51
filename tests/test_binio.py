"""Binary trace format: round trips, compactness, corruption handling."""

import gc
import random
import struct
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import binio
from repro.trace.binio import (
    _check_crc,
    _parse_count,
    check_binary,
    decode_binary_columns,
    decode_binary_events,
    dump_trace_binary,
    dumps_binary,
    load_trace_binary,
    loads_binary,
    loads_binary_columns,
)
from repro.trace.events import ID_TO_KIND, KIND_TO_ID, Event, rd, sbegin, send, wr
from repro.trace.generator import random_trace
from repro.trace.textio import dumps_trace
from repro.trace.trace import TraceFormatError

#: every version the writer can emit, and the readers read
VERSIONS = (1, 2, 3)


class TestRoundTrip:
    def test_simple(self):
        events = [wr(0, 5, 9), sbegin(), rd(1, 5), send()]
        assert loads_binary(dumps_binary(events), validate=False).events == events

    def test_random_traces(self):
        for seed in range(6):
            trace = random_trace(seed=seed, length=300, sampling_period_prob=0.05)
            again = loads_binary(dumps_binary(trace.events))
            assert again.events == trace.events

    def test_negative_site_zigzag(self):
        events = [Event("alloc", 0, 64, -7)]
        assert loads_binary(dumps_binary(events), validate=False).events == events

    def test_large_ids(self):
        events = [wr(12345, 10**9, 2**40)]
        assert loads_binary(dumps_binary(events), validate=False).events == events

    def test_empty_trace(self):
        assert loads_binary(dumps_binary([]), validate=False).events == []

    def test_file_round_trip(self, tmp_path):
        trace = random_trace(seed=2, length=150)
        path = tmp_path / "t.pacr"
        dump_trace_binary(trace, path)
        assert load_trace_binary(path).events == trace.events

    def test_smaller_than_text(self):
        trace = random_trace(seed=4, length=2000)
        assert len(dumps_binary(trace.events)) < 0.6 * len(
            dumps_trace(trace.events).encode()
        )


class TestInterning:
    """The event readers build one :class:`Event` per distinct record."""

    @pytest.mark.parametrize("version", VERSIONS)
    def test_equal_records_are_one_object(self, version):
        trace = random_trace(seed=5, length=3000, sampling_period_prob=0.05)
        data = dumps_binary(trace.events, version)
        for events in (loads_binary(data).events, decode_binary_events(data)):
            assert events == trace.events
            assert {type(e) for e in events} == {Event}
            first = {}
            assert all(first.setdefault(e, e) is e for e in events)
            assert len({id(e) for e in events}) == len(first) < len(events)
        # the table lives for one call: nothing holds it afterwards
        assert not [o for o in gc.get_objects() if isinstance(o, binio._Interned)]

    def test_calls_do_not_share_events(self):
        data = dumps_binary([wr(0, 5, 9), wr(0, 5, 9)])
        one, two = loads_binary(data).events, loads_binary(data).events
        assert one[0] is one[1] and two[0] is two[1]
        assert one[0] is not two[0]


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            loads_binary(b"NOPE" + b"\x01\x00")

    def test_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            loads_binary(b"PACR\x63\x00")

    def test_truncated(self):
        data = dumps_binary([wr(0, 5, 9), rd(1, 5, 3)])
        with pytest.raises(ValueError, match="truncated"):
            loads_binary(data[:-2])

    def test_trailing_garbage(self):
        data = dumps_binary([wr(0, 5, 9)])
        with pytest.raises(ValueError, match="trailing"):
            loads_binary(data + b"\x00\x00")

    def test_unknown_kind_rejected_on_write(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            dumps_binary([Event("zap", 0, 0, 0)])


class TestPropertyRoundTrip:
    def test_arbitrary_events_round_trip(self):
        from hypothesis import given, settings, strategies as st

        from repro.trace.binio import _KIND_TO_ID

        kinds = sorted(set(_KIND_TO_ID) - {"sbegin", "send"})

        @settings(max_examples=150, deadline=None)
        @given(
            st.lists(
                st.one_of(
                    st.builds(
                        Event,
                        st.sampled_from(kinds),
                        st.integers(0, 10_000),
                        st.integers(0, 2**32),
                        st.integers(-(2**20), 2**20),
                    ),
                    st.just(sbegin()),
                    st.just(send()),
                ),
                max_size=40,
            )
        )
        def round_trips(events):
            assert loads_binary(dumps_binary(events), validate=False).events == events

        round_trips()


class TestV2Checksum:
    """The v2 trailer: CRC32 catches silent corruption, and every
    failure mode names itself distinctly."""

    def test_v3_is_the_default_and_carries_a_trailer(self):
        from repro.trace.binio import VERSION

        assert VERSION == 3
        for version in (2, 3):
            data = dumps_binary([wr(0, 5, 9)], version)
            assert data[4] == version
            # the trailer is exactly the CRC32 of everything before it
            stored = int.from_bytes(data[-4:], "little")
            assert stored == zlib.crc32(data[:-4])
        assert dumps_binary([wr(0, 5, 9)]) == dumps_binary([wr(0, 5, 9)], 3)

    def test_zero_event_v2_round_trip(self):
        for version in (2, 3):  # a v3 document without events has no block
            data = dumps_binary([], version=version)
            assert len(data) == 10  # magic + version + count + crc32
            assert loads_binary(data, validate=False).events == []

    def test_v1_files_still_load(self):
        from repro.trace.binio import VERSION_1

        events = [wr(0, 5, 9), sbegin(), rd(1, 5), send()]
        data = dumps_binary(events, version=VERSION_1)
        assert data[4] == VERSION_1
        assert loads_binary(data, validate=False).events == events

    def test_bit_flip_anywhere_in_body_is_caught(self):
        """Any single-bit flip is rejected — either the structural
        parser trips on it, or the CRC32 check does."""
        from repro.trace.trace import TraceFormatError
        from repro.util.faults import flip_byte

        data = dumps_binary(random_trace(seed=9, length=120).events)
        for offset in (5, 7, len(data) // 2, len(data) - 5):
            with pytest.raises(TraceFormatError):
                loads_binary(flip_byte(data, offset, mask=0x01))

    def test_flipped_trailer_is_caught(self):
        from repro.util.faults import flip_byte

        data = dumps_binary([wr(0, 5, 9)])
        with pytest.raises(ValueError, match="CRC32 mismatch"):
            loads_binary(flip_byte(data, -1))

    def test_mid_varint_truncation_names_the_byte(self):
        from repro.util.faults import truncate_bytes

        data = dumps_binary([wr(0, 5, 9), rd(1, 5, 3)], version=1)
        with pytest.raises(ValueError, match="truncated varint at byte"):
            loads_binary(truncate_bytes(data, 1))

    def test_failure_modes_are_distinct(self):
        """Operators must be able to tell *what* broke from the message."""
        data = dumps_binary([wr(0, 5, 9)])
        with pytest.raises(ValueError, match="bad magic"):
            loads_binary(b"XXXX" + data[4:])
        with pytest.raises(ValueError, match="unsupported .*version 99"):
            loads_binary(data[:4] + b"\x63" + data[5:])
        with pytest.raises(ValueError, match="truncated trailer"):
            loads_binary(data[:8])

    def test_crc_error_reports_both_values(self):
        # structurally valid bytes, wrong trailer: only the CRC can object
        good = dumps_binary([wr(0, 5, 9)])
        bad = good[:-4] + bytes(b ^ 0xFF for b in good[-4:])
        with pytest.raises(ValueError, match="stored 0x[0-9a-f]{8}, computed 0x[0-9a-f]{8}"):
            loads_binary(bad)

    def test_describe_binary(self):
        from repro.trace.binio import VERSION, describe_binary

        events = random_trace(seed=3, length=80).events
        data = dumps_binary(events)
        info = describe_binary(data)
        assert info["format"] == "binary"
        assert info["version"] == VERSION
        assert info["events"] == len(events)
        assert info["bytes"] == len(data)
        assert info["checksummed"] is True
        assert isinstance(info["crc32"], str)

    def test_describe_binary_v1_has_no_crc(self):
        from repro.trace.binio import describe_binary

        data = dumps_binary([wr(0, 5, 9)], version=1)
        info = describe_binary(data)
        assert info["checksummed"] is False
        assert info["crc32"] is None


class TestColumnReader:
    """The column reader is observationally identical to the event
    reader: same decoded events on clean input, same
    ``TraceFormatError`` (type *and* message) on corrupt input, for
    every version."""

    def _assert_same_decode(self, data):
        try:
            expected = loads_binary(bytes(data), validate=False).events
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                loads_binary_columns(data)
            assert str(got.value) == str(exc)
            return None
        batch = loads_binary_columns(data)
        assert batch.to_events() == expected
        return batch

    def test_round_trip_simple(self):
        events = [wr(0, 5, 9), sbegin(), rd(1, 5), send(), rd(0, 6, 2)]
        for version in VERSIONS:
            self._assert_same_decode(dumps_binary(events, version))

    def test_round_trip_random_traces(self):
        for seed in range(6):
            trace = random_trace(seed=seed, length=300, sampling_period_prob=0.05)
            for version in VERSIONS:
                self._assert_same_decode(dumps_binary(trace.events, version))

    def test_marker_lookalike_operands(self):
        """Values 8/9 (the sbegin/send kind ids) appearing as tids,
        targets, and sites must not confuse record-boundary recovery."""
        events = [
            wr(8, 9, 8), sbegin(), rd(9, 8, 9), wr(7, 8, 0), send(),
            sbegin(), send(), sbegin(), rd(8, 8, 8), send(),
        ]
        for version in VERSIONS:
            self._assert_same_decode(dumps_binary(events, version))

    def test_large_values_fall_back_to_scalar(self):
        # in v1/v2, varints longer than three bytes fall back to the
        # per-field varint reader; in v3 they take 8-byte columns
        events = [wr(12345, 10**12, 2**40), rd(0, 1, -(2**40)),
                  wr(2**62, 2**64 - 1, -(2**63))]
        for version in VERSIONS:
            assert self._assert_same_decode(
                dumps_binary(events, version)).to_events() == events

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 64])
    def test_any_block_size_decodes_the_same(self, block):
        # v3 blocks of any length, and v1/v2 documents decoded that
        # many records at a time: a block may end at any record, and
        # widths change from block to block
        events = random_trace(seed=block, length=300,
                              sampling_period_prob=0.05).events
        events += [wr(12345, 2**20, -7), rd(8, 9, 2**34)]
        with mock.patch.object(binio, "_EVENT_BLOCK", block):
            for version in VERSIONS:
                batch = self._assert_same_decode(dumps_binary(events, version))
                assert batch.to_events() == events
                self._assert_same_decode(dumps_binary([wr(0, 2**40, 1)], version))

    def test_empty_trace(self):
        for version in VERSIONS:
            assert loads_binary_columns(dumps_binary([], version)).to_events() == []

    def test_v1_files_decode_too(self):
        events = random_trace(seed=7, length=120).events
        self._assert_same_decode(dumps_binary(events, version=1))

    def test_file_round_trip(self, tmp_path):
        from repro.trace.binio import load_trace_columns

        trace = random_trace(seed=11, length=400, sampling_period_prob=0.05)
        path = tmp_path / "t.pacr"
        dump_trace_binary(trace, path)
        batch = load_trace_columns(path)
        assert batch.to_events() == trace.events

    def test_corrupt_file_matches_scalar_error(self, tmp_path):
        from repro.trace.binio import load_trace_columns

        data = dumps_binary(random_trace(seed=1, length=60).events)
        bad = data[:-4] + bytes(b ^ 0xFF for b in data[-4:])
        path = tmp_path / "bad.pacr"
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="CRC32 mismatch"):
            load_trace_columns(path)
        (tmp_path / "empty.pacr").write_bytes(b"")
        with pytest.raises(ValueError, match="bad magic"):
            load_trace_columns(tmp_path / "empty.pacr")

    def test_columns_feed_the_kernels(self):
        """End to end: decoded columns drive a detector identically to
        scalar events (the path ``repro analyze`` takes)."""
        from repro.core.backend import BACKENDS
        from repro.detectors import FastTrackDetector

        trace = random_trace(seed=5, length=500)
        data = dumps_binary(trace.events)
        ref = FastTrackDetector()
        ref.run(list(trace.events))
        for backend in BACKENDS:
            det = FastTrackDetector(backend=backend)
            det.run_batch(loads_binary_columns(data))
            assert [r.distinct_key for r in det.races] == [
                r.distinct_key for r in ref.races
            ], backend
            assert det.counters.snapshot() == ref.counters.snapshot(), backend

    def test_property_columns_equal_scalar(self):
        """Hypothesis: for arbitrary traces the column reader round-trips
        byte-identically with the object reader — including traces whose
        bytes are then corrupted (CRC failures) or torn mid-record."""
        from hypothesis import given, settings, strategies as st

        from repro.trace.events import KIND_TO_ID

        kinds = [k for k in KIND_TO_ID if k not in ("sbegin", "send")]
        events_st = st.lists(
            st.one_of(
                st.builds(
                    Event,
                    st.sampled_from(kinds),
                    st.integers(0, 10_000),
                    st.integers(0, 2**36),
                    st.integers(-(2**35), 2**35),
                ),
                st.just(sbegin()),
                st.just(send()),
            ),
            max_size=60,
        )

        @settings(max_examples=150, deadline=None)
        @given(
            events_st,
            st.sampled_from(VERSIONS),
            st.sampled_from(["clean", "flip", "tear"]),
            st.data(),
        )
        def check(events, version, damage, data_st):
            data = dumps_binary(events, version)
            if damage == "flip" and len(data) > 0:
                i = data_st.draw(st.integers(0, len(data) - 1))
                bit = data_st.draw(st.integers(0, 7))
                data = data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]
            elif damage == "tear":
                keep = data_st.draw(st.integers(0, len(data)))
                data = data[:keep]
            self._assert_same_decode(data)

        check()


# -- the per-field codec, kept as the reference ------------------------------
#
# One _read_varint/_write_varint call per field: the codec before varints
# were read and written inline.  The production codec must match it byte
# for byte, value for value, and error message for error message.


def ref_write_varint(out, value):
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


def ref_read_varint(data, pos, end):
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


def ref_dumps_binary(events, version=2, checked=True):
    """The v1/v2 writer, field by field.  ``checked=False`` skips the
    upper bounds every writer now enforces, as older writers did."""
    events = list(events)
    out = bytearray(b"PACR")
    out.append(version)
    ref_write_varint(out, len(events))
    for e in events:
        kind_id = KIND_TO_ID.get(e.kind)
        if kind_id is None:
            raise ValueError(f"unknown event kind {e.kind!r}")
        ref_write_varint(out, kind_id)
        if e.kind in ("sbegin", "send"):
            continue
        if e.tid < -1:
            raise ValueError(f"cannot encode tid {e.tid}")
        if e.target < 0:
            raise ValueError(f"cannot encode negative target {e.target}")
        if checked:
            ref_check_bounds(e)
        ref_write_varint(out, e.tid + 1)
        ref_write_varint(out, e.target)
        ref_write_varint(out, (e.site << 1) ^ (e.site >> 63))
    if version >= 2:
        out += zlib.crc32(bytes(out)).to_bytes(4, "little")
    return bytes(out)


def ref_check_bounds(e):
    """The upper bounds of what v3 holds, after the v1/v2 checks."""
    if e.tid > 2**63 - 1:
        raise ValueError(f"cannot encode tid {e.tid}")
    if e.target > 2**64 - 1:
        raise ValueError(f"cannot encode target {e.target} (above 2**64 - 1)")
    if not -(2**63) <= e.site <= 2**63 - 1:
        raise ValueError(f"cannot encode site {e.site} (outside signed 64 bits)")


def ref_decode_events(data):
    """``decode_binary_events``, field by field (records, no CRC)."""
    _version, count, pos, end = _parse_count(data)
    events = []
    for _ in range(count):
        kind_id, pos = ref_read_varint(data, pos, end)
        if kind_id >= len(ID_TO_KIND):
            raise TraceFormatError(f"unknown kind id {kind_id} at byte {pos}")
        kind = ID_TO_KIND[kind_id]
        if kind in ("sbegin", "send"):
            events.append(Event(kind, -1, 0, 0))
            continue
        tid_plus, pos = ref_read_varint(data, pos, end)
        target, pos = ref_read_varint(data, pos, end)
        zigzag, pos = ref_read_varint(data, pos, end)
        site = (zigzag >> 1) ^ -(zigzag & 1)
        events.append(Event(kind, tid_plus - 1, target, site))
    if pos != end:
        raise TraceFormatError(f"{end - pos} trailing bytes after events")
    return events


def ref_loads_events(data):
    """``loads_binary(data, validate=False).events``, field by field."""
    events = ref_decode_events(data)
    if data[4] >= 2:
        _check_crc(data)
    return events


def outcome(decode, data):
    try:
        return decode(data)
    except TraceFormatError as exc:
        return ("TraceFormatError", str(exc))


def columns_of(events):
    return (
        [KIND_TO_ID[e.kind] for e in events],
        [e.tid for e in events],
        [e.target for e in events],
        [e.site for e in events],
    )


def assert_decodes_like_reference(data):
    expected = outcome(ref_decode_events, data)
    assert outcome(decode_binary_events, data) == expected
    columns = outcome(decode_binary_columns, data)
    if isinstance(expected, list):
        assert columns == columns_of(expected)
    else:
        assert columns == expected
    expected = outcome(ref_loads_events, data)
    # loads_binary decodes in blocks: small ones put block ends (and any
    # error) at every record position
    for block in (binio._EVENT_BLOCK, 1, 3):
        with mock.patch.object(binio, "_EVENT_BLOCK", block):
            got = outcome(lambda d: loads_binary(d, validate=False).events, data)
        assert got == expected, block


ACTION_KINDS = sorted(set(KIND_TO_ID) - {"sbegin", "send"})


def event_lists(tids, targets, sites, max_size=40):
    return st.lists(
        st.one_of(
            st.builds(Event, st.sampled_from(ACTION_KINDS), tids, targets, sites),
            st.just(sbegin()),
            st.just(send()),
        ),
        max_size=max_size,
    )


#: multi-byte tids, targets whose varints run to 4+ bytes (>= 2**21),
#: and negative and very large sites (zig-zag past 64 bits included):
#: what the v1/v2 writers wrote before they checked upper bounds
wide_events = event_lists(
    st.one_of(st.integers(-1, 200), st.integers(0, 2**40)),
    st.one_of(st.integers(0, 200), st.integers(2**21, 2**64)),
    st.one_of(st.integers(-300, 300), st.integers(-(2**70), 2**70)),
)

#: the same, within what every writer accepts: tids up to 2**63 - 1,
#: targets up to 2**64 - 1 and sites within signed 64 bits
encodable_events = event_lists(
    st.one_of(st.integers(-1, 200), st.integers(0, 2**63 - 1)),
    st.one_of(st.integers(0, 200), st.integers(2**21, 2**64 - 1)),
    st.one_of(st.integers(-300, 300), st.integers(-(2**63), 2**63 - 1)),
)


class TestReferenceCodec:
    @settings(max_examples=200, deadline=None)
    @given(encodable_events, st.sampled_from([1, 2]))
    def test_encoder_matches_reference(self, events, version):
        expected = ref_dumps_binary(events, version)
        assert dumps_binary(events, version) == expected
        assert dumps_binary(tuple(events), version) == expected
        assert dumps_binary(iter(events), version) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        encodable_events,
        st.sampled_from([
            Event("zap", 0, 0, 0),
            Event("rd", -2, 0, 0),
            Event("wr", 0, -1, 0),
            Event("alloc", -5, -5, 0),
            Event("rd", 2**63, 0, 0),
            Event("wr", 0, 2**64, 0),
            Event("wr", 0, 1, 2**63),
            Event("alloc", 0, 64, -(2**63) - 1),
        ]),
        st.sampled_from([1, 2, 3]),
        st.data(),
    )
    def test_encoder_rejects_like_reference(self, events, bad, version, data):
        at = data.draw(st.integers(0, len(events)))
        events = events[:at] + [bad] + events[at:]
        with pytest.raises(ValueError) as expected:
            ref_dumps_binary(events)
        with pytest.raises(ValueError) as got:
            dumps_binary(events, version)
        assert str(got.value) == str(expected.value)

    @settings(max_examples=300, deadline=None)
    @given(
        wide_events,
        st.sampled_from([1, 2]),
        st.sampled_from(["clean", "flip", "tear", "flip+crc"]),
        st.data(),
    )
    def test_decoders_match_reference(self, events, version, damage, data):
        doc = ref_dumps_binary(events, version, checked=False)
        if damage in ("flip", "flip+crc"):
            i = data.draw(st.integers(5, len(doc) - 1))
            doc = doc[:i] + bytes([doc[i] ^ data.draw(st.integers(1, 255))]) + doc[i + 1:]
            if damage == "flip+crc" and version == 2:
                # a valid trailer, so only the records can object
                doc = doc[:-4] + zlib.crc32(doc[:-4]).to_bytes(4, "little")
        elif damage == "tear":
            doc = doc[:data.draw(st.integers(0, len(doc)))]
        assert_decodes_like_reference(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=400), st.sampled_from([1, 2]), st.data())
    def test_decoders_match_reference_on_arbitrary_records(self, body, version, data):
        count = data.draw(st.integers(0, len(body)))
        head = bytearray(b"PACR")
        head.append(version)
        ref_write_varint(head, count)
        doc = bytes(head) + body
        if version == 2:
            doc += zlib.crc32(doc).to_bytes(4, "little")
        assert_decodes_like_reference(doc)


# -- v3: column blocks, against a per-field struct reference ------------------
#
# One struct.pack per field, and a block's column width found by packing:
# the first of 1, 2, 4 and 8 bytes whose format holds every value.

SIGNED_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}
UNSIGNED_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def ref_width(values, formats):
    for width, fmt in formats.items():
        try:
            for value in values:
                struct.pack("<" + fmt, value)
        except struct.error:
            continue
        return width
    raise ValueError(f"no column width holds {values}")


def ref_dumps_v3(events, block=4096):
    out = bytearray(b"PACR\x03")
    ref_write_varint(out, len(events))
    for a in range(0, len(events), block):
        rows = [
            (KIND_TO_ID[e.kind], -1, 0, 0) if e.kind in ("sbegin", "send")
            else (KIND_TO_ID[e.kind], e.tid, e.target, e.site)
            for e in events[a:a + block]
        ]
        _kinds, *columns = zip(*rows)
        formats = (SIGNED_FORMATS, UNSIGNED_FORMATS, SIGNED_FORMATS)
        widths = [ref_width(c, f) for c, f in zip(columns, formats)]
        out += struct.pack("<HBBB", len(rows), *widths)
        for row in rows:
            out += struct.pack("<B", row[0])
        for column, fmts, width in zip(columns, formats, widths):
            for value in column:
                out += struct.pack("<" + fmts[width], value)
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out)


def shard_read(data):
    """What the server and a shard do with an EVENTS document: check its
    envelope, then decode its records."""
    check_binary(data)
    return decode_binary_columns(data)


def readers_outcomes(data):
    """Every whole-document reader's columns or error message, in the
    order the readers check: records first, then the trailer."""
    return [
        outcome(lambda d: columns_of(loads_binary(d, validate=False).events), data),
        outcome(lambda d: loads_binary_columns(d).to_list_columns(), data),
        outcome(lambda d: (decode_binary_columns(d), check_binary(d))[0], data),
    ]


@st.composite
def width_events(draw, max_size=40):
    """Events whose tid, target and site columns each hold values of a
    drawn width: 1, 2, 4 or 8 bytes."""
    tw, gw, sw = (draw(st.sampled_from([1, 2, 4, 8])) for _ in range(3))
    return draw(event_lists(
        st.integers(-1, 2 ** (8 * tw - 1) - 1),
        st.integers(0, 2 ** (8 * gw) - 1),
        st.integers(-(2 ** (8 * sw - 1)), 2 ** (8 * sw - 1) - 1),
        max_size=max_size,
    ))


def mixed_events(count, seed):
    """``count`` events whose widths change from block to block, with
    markers, tid -1 and negative sites."""
    rng = random.Random(seed)
    events = []
    for i in range(count):
        if rng.random() < 0.02:
            events.append(sbegin() if rng.random() < 0.5 else send())
            continue
        width = [1, 2, 4, 8][(i // 4096 + rng.randrange(2)) % 4]
        top = 2 ** (8 * width - 1) - 1
        events.append(Event(
            rng.choice(ACTION_KINDS), rng.choice([-1, rng.randint(0, top)]),
            rng.randint(0, 2 * top + 1), rng.randint(-top - 1, top),
        ))
    return events


class TestV3:
    @settings(max_examples=200, deadline=None)
    @given(width_events())
    def test_round_trip_at_every_width(self, events):
        data = dumps_binary(events)
        assert data == ref_dumps_v3(events)
        assert readers_outcomes(data) == [columns_of(events)] * 3
        assert dumps_binary(loads_binary(data, validate=False).events) == data

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_each_column_takes_the_narrowest_width(self, width):
        top = 2 ** (8 * width - 1) - 1
        events = [wr(top, 2 * top + 1, -top - 1), wr(0, 0, 0)]
        data = dumps_binary(events)
        assert data == ref_dumps_v3(events)
        # after magic, version, a one-byte count and the block's length
        assert data[8:11] == bytes([width] * 3)
        assert loads_binary(data, validate=False).events == events

    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 8193])
    def test_block_boundaries(self, count):
        events = mixed_events(count, seed=count)
        data = dumps_binary(events)
        assert data == ref_dumps_v3(events)
        assert readers_outcomes(data) == [columns_of(events)] * 3
        info = binio.describe_binary(data)
        assert (info["version"], info["events"]) == (3, count)

    def test_markers_are_stored_canonical(self):
        events = [Event("sbegin", 7, 8, 9), wr(0, 1, 2), Event("send", 3, 0, -1)]
        data = dumps_binary(events)
        canonical = [sbegin(), wr(0, 1, 2), send()]
        assert data == dumps_binary(canonical) == ref_dumps_v3(canonical)
        assert loads_binary(data, validate=False).events == canonical

    @settings(max_examples=25, deadline=None)
    @given(width_events(max_size=12))
    def test_every_truncation_and_bit_flip_is_rejected(self, events):
        data = dumps_binary(events)
        damaged = [data[:cut] for cut in range(len(data))]
        damaged += [
            data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]
            for i in range(len(data)) for bit in range(8)
        ]
        for doc in damaged:
            for read in (lambda d: loads_binary(d, validate=False),
                         loads_binary_columns, shard_read):
                with pytest.raises(TraceFormatError):
                    read(doc)

    def test_version_byte_flipped_to_v1_is_caught(self):
        # read with version byte 1, these bytes are a well-formed v1
        # trace (which has no trailer): only their v3 CRC32 shows it
        events = [rd(51, 3, -1), wr(-1, 4, -24), Event("acq", -1, 78, -25),
                  Event("m_enter", 0, 1, -28)]
        data = bytearray(dumps_binary(events))
        data[4] = 1
        for read in (lambda d: loads_binary(d, validate=False),
                     loads_binary_columns, shard_read):
            with pytest.raises(TraceFormatError, match="corrupt version byte"):
                read(bytes(data))

    @settings(max_examples=300, deadline=None)
    @given(
        encodable_events,
        st.sampled_from(VERSIONS),
        st.sampled_from(["clean", "flip", "tear", "flip+crc", "body"]),
        st.data(),
    )
    def test_readers_agree(self, events, version, damage, data):
        doc = dumps_binary(events, version)
        if damage in ("flip", "flip+crc"):
            i = data.draw(st.integers(5, len(doc) - 1))
            doc = doc[:i] + bytes([doc[i] ^ data.draw(st.integers(1, 255))]) + doc[i + 1:]
            if damage == "flip+crc" and version >= 2:
                # a valid trailer, so only the records can object
                doc = doc[:-4] + zlib.crc32(doc[:-4]).to_bytes(4, "little")
        elif damage == "tear":
            doc = doc[:data.draw(st.integers(0, len(doc)))]
        elif damage == "body":
            # arbitrary bytes after a valid header and count
            head = bytearray(doc[:5])
            ref_write_varint(head, data.draw(st.integers(0, 64)))
            doc = bytes(head) + data.draw(st.binary(max_size=200))
            if version >= 2:
                doc += zlib.crc32(doc).to_bytes(4, "little")
        first, *others = readers_outcomes(doc)
        assert others == [first, first]

    def test_block_errors_name_themselves(self):
        head = b"PACR\x03\x02"  # version 3, two events

        def doc(*body):
            data = head + bytes(body)
            return data + zlib.crc32(data).to_bytes(4, "little")

        block = (2, 0, 1, 1, 1)  # two records, every column one byte wide
        cases = {
            doc(0, 0, 1, 1, 1): "bad block length 0 at byte 6",
            doc(2, 0, 3, 1, 1): "bad column widths 3, 1, 1",
            doc(*block, 1, 1, 0): "truncated block at byte 6",
            doc(*block, 13, 1, 0, 1, 3, 2, 4, 5): "unknown kind id 13 at byte 11",
            doc(*block, 1, 1, 0xFE, 1, 3, 2, 4, 5): "tid -2 below -1 at byte 13",
            doc(*block, 8, 1, 5, 1, 0, 2, 0, 5): r"sbegin with operands \(5, 0, 0\)",
            doc(3, 0, 1, 1, 1, *[1] * 12): "ends at record 3, past the event count 2",
            doc(*block, 1, 1, 0, 1, 3, 2, 4, 5, 0): "1 trailing bytes after events",
        }
        for data, message in cases.items():
            for read in (lambda d: loads_binary(d, validate=False),
                         loads_binary_columns, shard_read):
                with pytest.raises(TraceFormatError, match=message):
                    read(data)
        assert loads_binary(doc(*block, 1, 1, 0, 1, 3, 2, 4, 5)).events == [
            wr(0, 3, 4), wr(1, 2, 5)]


class TestWriterBounds:
    """Every writer refuses an operand its readers could not return."""

    @pytest.mark.parametrize("version", VERSIONS)
    def test_reported_cases(self, version):
        # a site of 2**63 once read back as -(2**63) - 1, and a target
        # of 2**70 made a document its own reader rejected
        with pytest.raises(ValueError, match="cannot encode site 9223372036854775808"):
            dumps_binary([wr(0, 1, 2**63)], version)
        with pytest.raises(ValueError, match=f"cannot encode target {2**70} "):
            dumps_binary([wr(0, 2**70, 0)], version)

    @pytest.mark.parametrize("version", VERSIONS)
    def test_every_bound(self, version):
        for event in (wr(2**63 - 1, 2**64 - 1, 2**63 - 1), wr(-1, 0, -(2**63))):
            data = dumps_binary([event], version)
            assert loads_binary(data, validate=False).events == [event]
        for event, field in ((rd(2**63, 0), "tid"), (rd(-2, 0), "tid"),
                             (wr(0, 2**64), "target"), (wr(0, -1), "target"),
                             (wr(0, 0, -(2**63) - 1), "site")):
            with pytest.raises(ValueError, match=f"cannot encode (negative )?{field}"):
                dumps_binary([wr(0, 1), event], version)

    def test_old_writers_documents_are_still_rejected(self):
        # what the unchecked v2 writer made of the target 2**70
        data = ref_dumps_binary([wr(0, 2**70, 0)], 2, checked=False)
        with pytest.raises(TraceFormatError, match="varint longer than 64 bits"):
            loads_binary(data)
