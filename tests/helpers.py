"""Shared test utilities."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.detectors.base import Race
from repro.trace.events import SBEGIN, SEND
from repro.trace.trace import Trace

__all__ = [
    "race_sig",
    "race_sigs",
    "sampling_windows",
    "window_of",
    "in_sampling_window",
]


def race_sig(race: Race) -> Tuple:
    """A full dynamic signature of a race report (for exact comparisons)."""
    return race.sig


def race_sigs(races: Iterable[Race]) -> List[Tuple]:
    return [race_sig(r) for r in races]


def sampling_windows(trace: Trace) -> List[Tuple[int, int]]:
    """(start, end) event-index ranges of the trace's sampling periods."""
    windows: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for i, event in enumerate(trace):
        if event.kind == SBEGIN:
            start = i
        elif event.kind == SEND:
            assert start is not None
            windows.append((start, i))
            start = None
    if start is not None:
        windows.append((start, len(trace.events)))
    return windows


def window_of(index: int, windows: List[Tuple[int, int]]) -> Optional[int]:
    for k, (start, end) in enumerate(windows):
        if start <= index <= end:
            return k
    return None


def in_sampling_window(index: int, windows: List[Tuple[int, int]]) -> bool:
    return window_of(index, windows) is not None
