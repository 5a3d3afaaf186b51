"""LiteRace's native *offline* mode (paper §2.3).

LiteRace logs synchronization plus the sampled subset of accesses and
checks for races offline "if desired, e.g., if an execution fails".
:func:`record_sampled_log` performs the logging pass (full
synchronization, bursty-sampled accesses) and returns the reduced log;
any precise detector can then analyze it offline.  The paper's
criticisms are directly observable on the result: the log still needs
O(n) synchronization analysis, and its size tracks the data touched, not
the sampling rate.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..detectors.fasttrack import FastTrackDetector
from ..detectors.literace import LiteRaceDetector
from ..trace.events import ACCESS_KINDS, Event
from ..trace.trace import Trace

__all__ = ["record_sampled_log", "analyze_offline"]


class _Recorder(LiteRaceDetector):
    """Reuses LiteRace's sampling decisions, but records instead of
    analyzing: sampled accesses are appended to the log, skipped ones are
    dropped, everything else passes through."""

    def __init__(self, burst_length: int, min_rate: float, seed: Optional[int]):
        super().__init__(burst_length=burst_length, min_rate=min_rate, seed=seed)
        self.log = []

    def read(self, tid: int, var: int, site: int = 0) -> None:
        if self._instrumenting(tid):
            self.sampled_accesses += 1
            self.log.append(Event("rd", tid, var, site))
        else:
            self.skipped_accesses += 1

    def write(self, tid: int, var: int, site: int = 0) -> None:
        if self._instrumenting(tid):
            self.sampled_accesses += 1
            self.log.append(Event("wr", tid, var, site))
        else:
            self.skipped_accesses += 1


def record_sampled_log(
    events: Iterable[Event],
    burst_length: int = 1000,
    min_rate: float = 0.001,
    seed: Optional[int] = None,
) -> Tuple[Trace, float]:
    """Run LiteRace's logging pass over a trace.

    Returns ``(log, effective_rate)``: the reduced log contains *all*
    synchronization and method events (so no happens-before edge is
    lost) plus the sampled accesses.
    """
    recorder = _Recorder(burst_length, min_rate, seed)
    for event in events:
        recorder.apply(event)
        if event.kind not in ACCESS_KINDS:
            recorder.log.append(event)
    return Trace(recorder.log), recorder.effective_rate


def analyze_offline(log: Trace, detector=None):
    """Analyze a recorded log offline (FASTTRACK by default)."""
    detector = detector if detector is not None else FastTrackDetector()
    detector.run(log)
    return detector
