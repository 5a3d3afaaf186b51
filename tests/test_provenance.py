"""Race provenance: flight recorder, sync index, and HB witnesses."""

import pytest

from repro.detectors.base import Race, distinct_races
from repro.detectors.fasttrack import FastTrackDetector
from repro.obs.provenance import (
    DEFAULT_WINDOW,
    FlightRecorder,
    SyncIndex,
    extract_witness,
)
from repro.trace.events import (
    acq,
    fork,
    join,
    rd,
    rel,
    sbegin,
    send,
    vol_rd,
    vol_wr,
    wr,
)


def make_race(**kw):
    defaults = dict(
        var=7,
        kind="ww",
        first_tid=0,
        first_clock=1,
        first_site=11,
        second_tid=1,
        second_site=22,
        index=-1,
        first_index=-1,
    )
    defaults.update(kw)
    return Race(**defaults)


class TestFlightRecorder:
    def test_ring_keeps_only_last_window_events(self):
        recorder = FlightRecorder(window=4)
        for i in range(10):
            recorder.record(i, "wr", tid=0, target=1, site=i)
        ctx = recorder._context(0, pivot=9)
        held = [ev["vt"] for ev in ctx["events"]]
        assert held == [6, 7, 8, 9]
        assert recorder.events_recorded == 10

    def test_sync_side_log_outlives_access_ring(self):
        recorder = FlightRecorder(window=2)
        recorder.record(0, "acq", tid=0, target=100, site=0)
        for i in range(1, 8):
            recorder.record(i, "wr", tid=0, target=1, site=0)
        # the acquire has aged out of the 2-slot ring but not the sync log
        sync = SyncIndex.from_recorder(recorder)
        assert sync.acquires_between(0, -1, 99) == [(0, "acq", 100)]

    def test_sampling_marks_deduplicated(self):
        recorder = FlightRecorder()
        for index, event in enumerate(
            [sbegin(), sbegin(), send(), send(), sbegin()]
        ):
            recorder.record(index, event.kind, event.tid, event.target, event.site)
        assert recorder.sampling_marks == [(0, True), (2, False), (4, True)]

    def test_capture_marks_aged_out_first_access(self):
        recorder = FlightRecorder(window=3)
        for i in range(10):
            recorder.record(i, "wr", tid=0, target=1, site=0)
        recorder.record(10, "wr", tid=1, target=1, site=1)
        race = make_race(index=10, first_index=0)
        captured = recorder.capture(race)
        assert captured["second"]["complete"] is True
        assert captured["first"]["complete"] is False
        assert captured["window"] == 3

    def test_capture_without_first_index(self):
        recorder = FlightRecorder()
        recorder.record(0, "wr", tid=1, target=1, site=1)
        captured = recorder.capture(make_race(index=0, first_index=-1))
        assert captured["first"] is None
        assert [ev["vt"] for ev in captured["second"]["events"]] == [0]

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            FlightRecorder(window=0)

    def test_default_window(self):
        assert FlightRecorder().window == DEFAULT_WINDOW


class TestSyncIndex:
    def test_from_trace_is_exact_and_complete(self):
        trace = [fork(0, 1), wr(0, 5, 1), rel(0, 100), acq(1, 100), wr(1, 5, 2)]
        sync = SyncIndex.from_trace(trace)
        assert sync.source == "trace"
        assert sync.complete is True
        assert sync.releases_between(0, 1, 4) == [(2, "rel", 100)]
        assert sync.acquires_between(1, 1, 4) == [(3, "acq", 100)]

    def test_between_bounds_are_exclusive(self):
        trace = [rel(0, 100), rel(0, 101), rel(0, 102)]
        sync = SyncIndex.from_trace(trace)
        assert sync.releases_between(0, 0, 2) == [(1, "rel", 101)]

    def test_periods_and_period_of(self):
        trace = [sbegin(), wr(0, 1, 1), send(), wr(0, 1, 1), sbegin(), wr(1, 1, 2)]
        sync = SyncIndex.from_trace(trace)
        assert sync.periods() == [(0, 2), (4, None)]
        assert sync.period_of(1) == 0
        assert sync.period_of(3) is None
        assert sync.period_of(5) == 1
        assert sync.period_of(-1) is None

    def test_from_recorder_flagged_incomplete(self):
        recorder = FlightRecorder()
        recorder.record(0, "rel", tid=0, target=100, site=0)
        sync = SyncIndex.from_recorder(recorder)
        assert sync.source == "flight-recorder"
        assert sync.complete is False
        assert sync.releases_between(0, -1, 9) == [(0, "rel", 100)]


class TestExtractWitness:
    def run_fasttrack(self, trace):
        detector = FastTrackDetector()
        detector.run(trace)
        assert detector.races, "test trace must race"
        return detector.races[0], SyncIndex.from_trace(trace)

    def test_no_release_verdict(self):
        trace = [fork(0, 1), wr(0, 5, 1), wr(1, 5, 2)]
        race, sync = self.run_fasttrack(trace)
        witness = extract_witness(race, sync)
        assert witness["verdict"] == "no-release"
        assert "no happens-before edge was possible" in witness["summary"]
        assert witness["edge"] is None
        assert witness["releases_after_first"] == []

    def test_sync_gap_verdict(self):
        trace = [
            fork(0, 1),
            wr(0, 5, 1),
            acq(0, 100),
            rel(0, 100),
            acq(1, 200),
            rel(1, 200),
            wr(1, 5, 2),
        ]
        race, sync = self.run_fasttrack(trace)
        witness = extract_witness(race, sync)
        assert witness["verdict"] == "sync-gap"
        assert "no common object connects" in witness["summary"]
        assert witness["releases_after_first"] == [
            {"vt": 3, "kind": "rel", "target": 100}
        ]
        assert witness["acquires_before_second"] == [
            {"vt": 4, "kind": "acq", "target": 200}
        ]

    def test_ordering_edge_release_acquire(self):
        # synthetic suspicious report: the accesses ARE ordered by the lock
        trace = [fork(0, 1), wr(0, 5, 1), acq(0, 9), rel(0, 9), acq(1, 9), wr(1, 5, 2)]
        sync = SyncIndex.from_trace(trace)
        race = make_race(var=5, first_site=1, second_site=2, index=5, first_index=1)
        witness = extract_witness(race, sync)
        assert witness["verdict"] == "ordering-edge"
        assert witness["edge"] == {
            "kind": "rel->acq",
            "target": 9,
            "release_vt": 3,
            "acquire_vt": 4,
        }
        assert "suspicious" in witness["summary"]

    def test_ordering_edge_volatile(self):
        trace = [fork(0, 1), wr(0, 5, 1), vol_wr(0, 200), vol_rd(1, 200), wr(1, 5, 2)]
        sync = SyncIndex.from_trace(trace)
        race = make_race(var=5, index=4, first_index=1)
        witness = extract_witness(race, sync)
        assert witness["verdict"] == "ordering-edge"
        assert witness["edge"]["kind"] == "vol_wr->vol_rd"

    def test_ordering_edge_fork(self):
        trace = [wr(0, 5, 1), fork(0, 1), wr(1, 5, 2)]
        sync = SyncIndex.from_trace(trace)
        race = make_race(var=5, index=2, first_index=0)
        witness = extract_witness(race, sync)
        assert witness["verdict"] == "ordering-edge"
        assert witness["edge"]["kind"] == "fork"

    def test_ordering_edge_join(self):
        trace = [fork(0, 1), wr(1, 5, 1), join(0, 1), wr(0, 5, 2)]
        sync = SyncIndex.from_trace(trace)
        race = make_race(var=5, first_tid=1, second_tid=0, index=3, first_index=1)
        witness = extract_witness(race, sync)
        assert witness["verdict"] == "ordering-edge"
        assert witness["edge"]["kind"] == "join"

    def test_sampling_attribution(self):
        trace = [sbegin(), fork(0, 1), wr(0, 5, 1), send(), sbegin(), wr(1, 5, 2)]
        race, sync = self.run_fasttrack(trace)
        witness = extract_witness(race, sync)
        assert witness["sampling"] == {
            "first_period": 0,
            "second_period": 1,
            "n_periods": 2,
        }

    def test_no_sampling_marks_means_no_attribution(self):
        trace = [fork(0, 1), wr(0, 5, 1), wr(1, 5, 2)]
        race, sync = self.run_fasttrack(trace)
        assert extract_witness(race, sync)["sampling"] is None


class TestStringSites:
    """Regression pin: sites may be ``file:line`` strings (live frontend)."""

    @pytest.mark.parametrize("backend", ["object", "packed"])
    def test_detectors_carry_string_sites(self, backend):
        detector = FastTrackDetector(backend=backend)
        trace = [fork(0, 1), wr(0, 5, "a.py:10"), wr(1, 5, "b.py:20")]
        races = detector.run(trace)
        assert len(races) == 1
        assert races[0].first_site == "a.py:10"
        assert races[0].second_site == "b.py:20"
        assert races[0].distinct_key == ("a.py:10", "b.py:20")
        assert detector.distinct_races == {("a.py:10", "b.py:20")}

    def test_distinct_races_mixes_int_and_string_sites(self):
        races = [
            make_race(first_site="a.py:1", second_site=3),
            make_race(first_site="a.py:1", second_site=3),
            make_race(first_site=1, second_site=2),
        ]
        assert distinct_races(races) == {("a.py:1", 3), (1, 2)}
