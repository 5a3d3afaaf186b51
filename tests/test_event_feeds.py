"""Every feed reaches a detector through ``Detector.step``.

The live monitor, its sampling driver and the telemetry shim's
``ForwardingDetector`` feed events one at a time; offline analysis feeds
a recorded trace through ``run``.  Both go through ``Detector.step``, so
a live session and an offline replay of the events it analyzed must
agree on everything the run exposes: races down to their indices, the
Table 3 counters, thread bookkeeping, the observer's and the flight
recorder's sampling marks, race contexts and the metrics registry.

The session below is scripted and deterministic: child threads run one
at a time while the main thread waits for them, and the sampling driver
is toggled by hand with a scripted coin, redundant toggles included.
"""

import random
import threading

import pytest

from repro.core.backend import BACKENDS
from repro.core.pacer import PacerDetector
from repro.detectors.fasttrack import FastTrackDetector
from repro.live import RaceMonitor, SamplingDriver
from repro.net.client import ForwardingDetector
from repro.obs import RunObserver
from repro.obs.provenance import FlightRecorder
from repro.trace.events import ID_TO_KIND, Event
from repro.trace.trace import Trace

DETECTOR_CLASSES = {"fasttrack": FastTrackDetector, "pacer": PacerDetector}


class ScriptedCoin:
    """An ``rng`` for :class:`SamplingDriver` whose draws follow a script:
    ``True`` draws a sampled period, ``False`` an unsampled one."""

    def __init__(self):
        self.next = True

    def random(self):
        return 0.0 if self.next else 0.99


def logging_detector(cls):
    """``cls`` with a ``step`` that logs every event it is fed."""

    class Logged(cls):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.log = []

        def step(self, k, tid, target, site=0):
            self.log.append(Event(ID_TO_KIND[k], tid, target, site))
            super().step(k, tid, target, site)

    return Logged


def scripted_session(monitor):
    """Shared variables, a lock, a volatile, fork/join and sampling
    toggles, some redundant; no two tracked threads run at once."""
    coin = ScriptedCoin()
    driver = SamplingDriver(monitor, rate=0.5, rng=coin)
    x = monitor.shared("x", 0)
    y = monitor.shared("y", 0)
    lock = monitor.lock("L")
    flag = monitor.volatile("flag", False)

    def toggle(sample):
        coin.next = sample
        driver._toggle_once()

    toggle(True)
    x.set(1)
    toggle(True)  # redundant: already sampling
    with lock:
        y.set(1)
    flag.set(True)

    first_done = threading.Event()
    second_done = threading.Event()

    def first():
        toggle(False)
        flag.get()
        x.set(2)
        with lock:
            y.get()
        toggle(False)  # redundant: already off
        toggle(True)
        x.get()
        first_done.set()

    def second():
        x.set(3)  # unordered with the first child: races while sampling
        y.set(2)
        toggle(False)
        x.get()
        second_done.set()

    t1 = monitor.thread(first)
    t1.start()
    assert first_done.wait(10)
    t2 = monitor.thread(second)  # forked before t1 is joined
    t2.start()
    assert second_done.wait(10)
    toggle(True)
    t1.join(10)
    t2.join(10)
    t1.join(10)  # a second join reads t1's exit volatile instead
    assert not (t1.is_alive() or t2.is_alive())
    x.get()
    driver.stop()
    monitor.finalize()
    return driver


def offline_replay(cls, backend, events):
    det = cls(backend=backend)
    obs = RunObserver(recorder=FlightRecorder())
    obs.attach(det)
    det.run(events)
    obs.finalize(det)
    return det, obs


def observed(det, obs):
    return {
        "races": list(det.races),
        "counters": det.counters.snapshot(),
        "threads": sorted(det._threads),
        "events_seen": det._events_seen,
        "observer_marks": list(obs.sampling_marks),
        "recorder_marks": list(obs.recorder.sampling_marks),
        "contexts": obs.race_contexts,
        "timeline": obs.timeline_jsonl(),
        "registry": obs.registry.snapshot(),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(DETECTOR_CLASSES))
def test_live_session_equals_offline_replay(name, backend):
    cls = DETECTOR_CLASSES[name]
    live = logging_detector(cls)(backend=backend)
    monitor = RaceMonitor(
        detector=live, observer=RunObserver(recorder=FlightRecorder())
    )
    driver = scripted_session(monitor)
    assert driver.periods == 7 and driver.sampled_periods == 4

    Trace(live.log).validate()  # markers only at real transitions
    markers = [e.kind for e in live.log if e.kind in ("sbegin", "send")]
    assert markers == ["sbegin", "send", "sbegin", "send", "sbegin", "send"]
    assert sum(e.kind == "join" for e in live.log) == 2

    det, obs = offline_replay(cls, backend, live.log)
    got = observed(live, monitor.observer)
    assert got == observed(det, obs)
    # every thread that acted is counted, in the detector and in the
    # threads gauge, whatever the detector and backend
    assert got["threads"] == [0, 1, 2]
    assert got["registry"]["gauges"]["threads"]["value"] == 3
    assert got["races"], "the unordered children race on x"


def test_forwarded_stream_equals_the_analyzed_one():
    """``ForwardingDetector.step`` buffers exactly what ``Detector.step``
    is fed, so the stream a telemetry session ships is the one a local
    monitor would have analyzed."""
    local = logging_detector(FastTrackDetector)()
    scripted_session(RaceMonitor(detector=local))
    fwd = ForwardingDetector()
    scripted_session(RaceMonitor(detector=fwd))
    names = fwd.take_sites()
    shipped = [e._replace(site=names.get(e.site, e.site)) for e in fwd.buffer]
    assert shipped == local.log
    assert fwd._events_seen == len(local.log)


def test_forwarded_driver_stream_is_feasible():
    """A driver toggling on every 50th write of a forwarded session
    sends ``send`` only after an ``sbegin``: the stream passes
    Appendix A's rules."""
    fwd = ForwardingDetector()
    monitor = RaceMonitor(detector=fwd)
    driver = SamplingDriver(monitor, rate=0.5, rng=random.Random(3))
    x = monitor.shared("x", 0)
    for i in range(300):
        if i % 50 == 0:
            driver._toggle_once()
        x.set(i)
    driver.stop()
    Trace(fwd.buffer).validate()
    entering = [e.kind == "sbegin" for e in fwd.buffer
                if e.kind in ("sbegin", "send")]
    assert entering == [i % 2 == 0 for i in range(len(entering))]
    assert fwd._events_seen == len(fwd.buffer) == 300 + len(entering)
