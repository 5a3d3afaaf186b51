"""Binary trace format: round trips, compactness, corruption handling."""

import pytest

from repro.trace.binio import (
    dump_trace_binary,
    dumps_binary,
    load_trace_binary,
    loads_binary,
)
from repro.trace.events import Event, rd, sbegin, send, wr
from repro.trace.generator import random_trace
from repro.trace.textio import dumps_trace


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
