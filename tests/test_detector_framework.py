"""The shared detector framework: dispatch, reports, event helpers."""

import pytest

from repro.core.backend import BACKENDS
from repro.core.pacer import PacerDetector
from repro.detectors import FastTrackDetector, NullDetector
from repro.detectors.base import Race, distinct_races
from repro.trace import events as ev
from repro.trace.events import Event, access_events


class TestEventModule:
    def test_constructors_set_fields(self):
        e = ev.wr(3, 7, 9)
        assert (e.kind, e.tid, e.target, e.site) == ("wr", 3, 7, 9)
        assert ev.acq(1, 2).kind == "acq"
        assert ev.fork(0, 1).target == 1
        assert ev.vol_wr(2, 5).kind == "vol_wr"

    def test_global_markers_have_no_thread(self):
        assert ev.sbegin().tid == -1
        assert ev.send().tid == -1

    def test_kind_sets_consistent(self):
        assert ev.SYNC_KINDS <= ev.KINDS
        assert ev.ACCESS_KINDS <= ev.KINDS
        assert not (ev.SYNC_KINDS & ev.ACCESS_KINDS)

    def test_access_events_filter(self):
        trace = [ev.fork(0, 1), ev.wr(0, 1), ev.acq(0, 2), ev.rd(1, 1)]
        assert [e.kind for e in access_events(trace)] == ["wr", "rd"]

    def test_str_forms(self):
        assert str(ev.sbegin()) == "sbegin"
        assert "t0" in str(ev.wr(0, 1, 2))


class TestRaceRecord:
    def test_distinct_key(self):
        r = Race(1, "ww", 0, 1, 10, 1, 20)
        assert r.distinct_key == (10, 20)

    def test_distinct_races_helper(self):
        races = [
            Race(1, "ww", 0, 1, 10, 1, 20),
            Race(1, "ww", 0, 2, 10, 1, 20),  # same sites, later instance
            Race(2, "wr", 0, 1, 11, 1, 21),
        ]
        assert distinct_races(races) == {(10, 20), (11, 21)}

    def test_str(self):
        text = str(Race(1, "rw", 0, 1, 10, 1, 20))
        assert "rw" in text and "site10" in text


class TestDispatch:
    def test_run_returns_race_list(self):
        d = FastTrackDetector()
        result = d.run([ev.fork(0, 1), ev.wr(0, 1, 1), ev.wr(1, 1, 2)])
        assert result is d.races
        assert len(result) == 1

    def test_now_tracks_event_index(self):
        d = FastTrackDetector()
        d.run([ev.fork(0, 1), ev.wr(0, 1), ev.wr(1, 1)])
        assert d.races[0].index == 2
        assert d.races[0].first_index == 1

    def test_method_events_ignored_by_default(self):
        d = FastTrackDetector()
        d.run(
            [
                Event("m_enter", 0, 5, 0),
                ev.wr(0, 1),
                Event("m_exit", 0, 5, 0),
                Event("alloc", 0, 64, 1),
            ]
        )
        assert d.counters.writes == 1

    def test_n_threads_counts_forked(self):
        d = NullDetector()
        d.run([ev.fork(0, 1), ev.fork(1, 2)])
        assert d.n_threads == 3

    def test_n_threads_minimum_one(self):
        assert NullDetector().n_threads == 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            NullDetector().apply(Event("??", 0, 0, 0))

    def test_abstract_detector_rejects_accesses(self):
        from repro.detectors.base import Detector

        with pytest.raises(NotImplementedError):
            Detector().read(0, 1)


#: four accesses among nine events, two of them sampled by PACER
HOOKED_TRACE = [
    ev.fork(0, 1), ev.sbegin(), ev.wr(0, 1), ev.send(), ev.acq(1, 9),
    ev.rd(1, 1), ev.rel(1, 9), ev.wr(1, 2), ev.rd(0, 2),
]


@pytest.mark.parametrize("mode", ["run", "run_batch"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("base", [FastTrackDetector, PacerDetector])
def test_subclass_access_hooks_see_every_access(base, backend, mode):
    """A subclass that overrides ``read``/``write`` sees every access in
    every dispatch mode: the packed batch kernels step aside for it."""

    class Counting(base):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.hooked = 0

        def read(self, tid, var, site=0):
            self.hooked += 1
            super().read(tid, var, site)

        def write(self, tid, var, site=0):
            self.hooked += 1
            super().write(tid, var, site)

    det = Counting(backend=backend)
    getattr(det, mode)(list(HOOKED_TRACE))
    assert det.hooked == 4
    plain = base(backend=backend)
    getattr(plain, mode)(list(HOOKED_TRACE))
    assert det.counters.snapshot() == plain.counters.snapshot()
    assert [r.sig for r in det.races] == [r.sig for r in plain.races]
