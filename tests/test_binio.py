"""Binary trace format: round trips, compactness, corruption handling."""

import zlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import binio
from repro.trace.binio import (
    _check_crc,
    _parse_count,
    decode_binary_columns,
    decode_binary_events,
    dump_trace_binary,
    dumps_binary,
    load_trace_binary,
    loads_binary,
)
from repro.trace.events import ID_TO_KIND, KIND_TO_ID, Event, rd, sbegin, send, wr
from repro.trace.generator import random_trace
from repro.trace.textio import dumps_trace
from repro.trace.trace import TraceFormatError


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

    def test_v2_is_the_default_and_carries_a_trailer(self):
        from repro.trace.binio import VERSION

        data = dumps_binary([wr(0, 5, 9)])
        assert data[4] == VERSION
        # the trailer is exactly the CRC32 of everything before it
        import zlib

        stored = int.from_bytes(data[-4:], "little")
        assert stored == zlib.crc32(data[:-4])

    def test_zero_event_v2_round_trip(self):
        data = dumps_binary([])
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
    """The vectorized/mmap column reader is observationally identical to
    the scalar reader: same decoded events on clean input, same
    ``TraceFormatError`` (type *and* message) on corrupt input."""

    def _assert_same_decode(self, data):
        from repro.trace.binio import loads_binary_columns

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
        self._assert_same_decode(dumps_binary(events))

    def test_round_trip_random_traces(self):
        for seed in range(6):
            trace = random_trace(seed=seed, length=300, sampling_period_prob=0.05)
            self._assert_same_decode(dumps_binary(trace.events))

    def test_marker_lookalike_operands(self):
        """Values 8/9 (the sbegin/send kind ids) appearing as tids,
        targets, and sites must not confuse record-boundary recovery."""
        events = [
            wr(8, 9, 8), sbegin(), rd(9, 8, 9), wr(7, 8, 0), send(),
            sbegin(), send(), sbegin(), rd(8, 8, 8), send(),
        ]
        self._assert_same_decode(dumps_binary(events))

    def test_large_values_fall_back_to_scalar(self):
        # >= 2^35 operands take the scalar path; the decode still agrees
        events = [wr(12345, 10**12, 2**40), rd(0, 1, -(2**40))]
        self._assert_same_decode(dumps_binary(events))

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 64])
    def test_any_block_size_decodes_the_same(self, block):
        # the vectorized reader expands its payload block by block; a
        # cut may fall inside any varint, marker or record
        events = random_trace(seed=block, length=300,
                              sampling_period_prob=0.05).events
        events += [wr(12345, 2**20, -7), rd(8, 9, 2**34)]
        with mock.patch.object(binio, "_BLOCK_BYTES", block):
            self._assert_same_decode(dumps_binary(events))
            self._assert_same_decode(dumps_binary([wr(0, 2**40, 1)]))

    def test_empty_trace(self):
        from repro.trace.binio import loads_binary_columns

        assert loads_binary_columns(dumps_binary([])).to_events() == []

    def test_v1_files_decode_too(self):
        events = random_trace(seed=7, length=120).events
        self._assert_same_decode(dumps_binary(events, version=1))

    def test_mmap_file_round_trip(self, tmp_path):
        from repro.trace.binio import load_trace_columns

        trace = random_trace(seed=11, length=400, sampling_period_prob=0.05)
        path = tmp_path / "t.pacr"
        dump_trace_binary(trace, path)
        batch = load_trace_columns(path)
        assert batch.to_events() == trace.events

    def test_mmap_corrupt_file_matches_scalar_error(self, tmp_path):
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
        scalar events (the zero-copy path ``repro analyze`` takes)."""
        from repro.core.backend import BACKENDS
        from repro.detectors import FastTrackDetector
        from repro.trace.binio import loads_binary_columns

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
            st.sampled_from(["clean", "flip", "tear"]),
            st.data(),
        )
        def check(events, damage, data_st):
            data = dumps_binary(events)
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


def ref_dumps_binary(events, version=2):
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
        ref_write_varint(out, e.tid + 1)
        ref_write_varint(out, e.target)
        ref_write_varint(out, (e.site << 1) ^ (e.site >> 63))
    if version >= 2:
        out += zlib.crc32(bytes(out)).to_bytes(4, "little")
    return bytes(out)


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

#: multi-byte tids, targets whose varints run to 4+ bytes (>= 2**21),
#: and negative and very large sites (zig-zag past 64 bits included)
wide_events = st.lists(
    st.one_of(
        st.builds(
            Event,
            st.sampled_from(ACTION_KINDS),
            st.one_of(st.integers(-1, 200), st.integers(0, 2**40)),
            st.one_of(st.integers(0, 200), st.integers(2**21, 2**64)),
            st.one_of(st.integers(-300, 300), st.integers(-(2**70), 2**70)),
        ),
        st.just(sbegin()),
        st.just(send()),
    ),
    max_size=40,
)


class TestReferenceCodec:
    @settings(max_examples=200, deadline=None)
    @given(wide_events, st.sampled_from([1, 2]))
    def test_encoder_matches_reference(self, events, version):
        expected = ref_dumps_binary(events, version)
        assert dumps_binary(events, version) == expected
        assert dumps_binary(tuple(events), version) == expected
        assert dumps_binary(iter(events), version) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        wide_events,
        st.sampled_from([
            Event("zap", 0, 0, 0),
            Event("rd", -2, 0, 0),
            Event("wr", 0, -1, 0),
            Event("alloc", -5, -5, 0),
        ]),
        st.data(),
    )
    def test_encoder_rejects_like_reference(self, events, bad, data):
        at = data.draw(st.integers(0, len(events)))
        events = events[:at] + [bad] + events[at:]
        with pytest.raises(ValueError) as expected:
            ref_dumps_binary(events)
        with pytest.raises(ValueError) as got:
            dumps_binary(events)
        assert str(got.value) == str(expected.value)

    @settings(max_examples=300, deadline=None)
    @given(
        wide_events,
        st.sampled_from([1, 2]),
        st.sampled_from(["clean", "flip", "tear", "flip+crc"]),
        st.data(),
    )
    def test_decoders_match_reference(self, events, version, damage, data):
        doc = ref_dumps_binary(events, version)
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
