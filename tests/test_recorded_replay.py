"""The flight-recorded replay against its per-event reference.

``Detector._run_recorded`` runs each segment of its input through
``apply_batch`` (the packed kernels on the packed backend) and only then
fills the flight recorder from the segment's columns — up to each new
race's index before capturing that race.  The reference below is the
per-event loop it replaced: record an event, analyze it, capture the
races it raised.  It is changed in one respect only: it probes at global
multiples of ``sample_every`` rather than per call, which is the fix
that makes a session fed chunk by chunk probe where one offline call
does.

For every detector on both state backends, with the input split into
calls of drawn sizes that take ``run`` or ``run_batch``, both must leave
the same races, race contexts, recorder rings and sync logs, sampling
marks, recorded-event count, observer timeline and registry snapshot.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from test_properties import feasible_traces

from repro.cli import DETECTORS
from repro.core.backend import BACKENDS
from repro.detectors.base import Race
from repro.detectors.fasttrack import FastTrackDetector
from repro.obs import RunObserver
from repro.obs.provenance import FlightRecorder
from repro.trace.events import fork, wr


def reference_run(det, events):
    """Record each event, analyze it, then capture the races it raised."""
    obs = det.observer
    rec = obs.recorder
    start = time.perf_counter_ns()
    count = 0
    cadence = obs.sample_every
    races = det.races
    known = len(races)
    for event in events:
        rec.record(det._events_seen, event.kind, event.tid, event.target,
                   event.site)
        det.apply(event)
        count += 1
        if len(races) > known:
            for race in races[known:]:
                obs.on_race(det, race)
            known = len(races)
        if det._events_seen % cadence == 0:
            obs.on_events(det, det._events_seen)
    det.perf.elapsed_ns += time.perf_counter_ns() - start
    det.perf.events += count


def replay(name, backend, events, calls, sample_every, window, reference):
    """Feed ``events`` to a recorded detector in ``calls``; its end state."""
    det = DETECTORS[name](backend=backend)
    obs = RunObserver(sample_every=sample_every,
                      recorder=FlightRecorder(window=window))
    obs.attach(det)
    start = 0
    for size, batched, batch_size in calls + [(len(events), False, 1)]:
        piece = events[start:start + size]
        start += len(piece)
        if reference:
            reference_run(det, piece)
        elif batched:
            det.run_batch(piece, batch_size=batch_size)
        else:
            det.run(piece)
    obs.finalize(det)
    rec = obs.recorder
    return {
        "races": list(det.races),
        "contexts": obs.race_contexts,
        "rings": {tid: list(ring) for tid, ring in rec._rings.items()},
        "sync": {tid: list(log) for tid, log in rec._sync.items()},
        "recorder_marks": rec.sampling_marks,
        "events_recorded": rec.events_recorded,
        "observer_marks": obs.sampling_marks,
        "timeline": obs.timeline,
        "metrics": obs.registry.snapshot(),
    }


@settings(max_examples=60, deadline=None)
@given(
    feasible_traces(with_sampling=True, with_joins_and_noops=True),
    st.integers(1, 64),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(1, 24), st.booleans(), st.integers(1, 16)),
             max_size=6),
)
def test_recorded_replay_matches_per_event_reference(
    trace, sample_every, window, calls
):
    events = list(trace.events)
    for name in DETECTORS:
        for backend in BACKENDS:
            expected = replay(name, backend, events, calls, sample_every,
                              window, reference=True)
            got = replay(name, backend, events, calls, sample_every,
                         window, reference=False)
            assert got == expected, (name, backend)


def test_probes_fall_on_the_global_grid():
    """Chunked calls probe exactly where one call over the trace does."""
    events = [fork(0, 1)] + [wr(i % 2, i % 5, i) for i in range(99)]

    def timeline(sizes):
        det = FastTrackDetector()
        obs = RunObserver(sample_every=16, recorder=FlightRecorder())
        obs.attach(det)
        start = 0
        for size in sizes:
            det.run_batch(events[start:start + size])
            start += size
        obs.finalize(det)
        return [record["vt"] for record in obs.timeline]

    assert timeline([100]) == [16, 32, 48, 64, 80, 96, 100]
    assert timeline([7, 30, 1, 62]) == timeline([100])


def test_race_outside_its_segment_is_an_error():
    class Misreporting(FastTrackDetector):
        """Appends a race that claims a trace position it does not have."""

        def write(self, tid, var, site=0):
            super().write(tid, var, site)
            self.races.append(Race(var, "ww", tid, 0, site, tid, site, index=-1))

    det = Misreporting()
    RunObserver(recorder=FlightRecorder()).attach(det)
    with pytest.raises(RuntimeError, match="race index -1 outside"):
        det.run([fork(0, 1), wr(1, 5, 1)])
