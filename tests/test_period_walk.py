"""The one sampling-period walk against the walks it replaced.

``repro.obs.provenance.mark_periods`` and ``period_of`` turn ``(vt,
entering)`` marks into sampling periods for witnesses, coverage
documents, Perfetto spans and ``repro profile``.  Four places used to
walk the marks themselves; their code is kept below verbatim (the
quality helpers reach the walk through a reference index, as they once
reached it through a throwaway ``SyncIndex``) and every drawn mark list
must give the same periods, ordinals, counts and attribution.
"""

from types import SimpleNamespace
from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.obs import RunObserver, SyncIndex
from repro.obs.provenance import mark_periods, period_of
from repro.obs.quality import build_coverage


class _RefSyncIndex:
    """``SyncIndex.periods``/``period_of`` as they were."""

    def __init__(self, sync_by_tid, sampling_marks, source, complete) -> None:
        self.sampling_marks = list(sampling_marks)

    def periods(self) -> List[Tuple[int, Optional[int]]]:
        """Sampling periods as (begin vt, end vt) pairs; a period still
        open at the end of the trace has end ``None``."""
        out: List[Tuple[int, Optional[int]]] = []
        open_at: Optional[int] = None
        for vt, entering in self.sampling_marks:
            if entering and open_at is None:
                open_at = vt
            elif not entering and open_at is not None:
                out.append((open_at, vt))
                open_at = None
        if open_at is not None:
            out.append((open_at, None))
        return out

    def period_of(self, index: int) -> Optional[int]:
        """Ordinal (0-based) of the sampling period containing ``index``."""
        if index < 0:
            return None
        for ordinal, (begin, end) in enumerate(self.periods()):
            if begin <= index and (end is None or index < end):
                return ordinal
        return None


def _ref_sampling_periods(self) -> List[Tuple[int, int]]:
    """``RunObserver.sampling_periods`` as it was."""
    periods: List[Tuple[int, int]] = []
    open_at: Optional[int] = None
    for vt, entering in self.sampling_marks:
        if entering and open_at is None:
            open_at = vt
        elif not entering and open_at is not None:
            periods.append((open_at, vt))
            open_at = None
    if open_at is not None:
        periods.append((open_at, max(self._final_vt, open_at)))
    return periods


def _ref_period_stats(marks):
    """``quality._period_stats`` as it was."""
    index = _RefSyncIndex({}, list(marks), source="quality", complete=True)
    periods = index.periods()
    open_periods = sum(1 for _, end in periods if end is None)
    return {
        "count": len(periods),
        "closed": len(periods) - open_periods,
        "open": open_periods,
    }


def _ref_attribute_races(races, marks):
    """``quality._attribute_races`` as it was."""
    if not marks:
        return None, None
    index = _RefSyncIndex({}, list(marks), source="quality", complete=True)
    inside = 0
    for race in races:
        if index.period_of(race.first_index) is not None:
            inside += 1
    return inside, len(races) - inside


@st.composite
def _marks(draw):
    """Strictly increasing vts with arbitrary flags: a leading ``False``,
    repeated flags and an open last period all occur."""
    flags = draw(st.lists(st.booleans(), max_size=12))
    gaps = draw(st.lists(st.integers(1, 6), min_size=len(flags),
                         max_size=len(flags)))
    vt = draw(st.integers(0, 3)) - 1
    marks = []
    for flag, gap in zip(flags, gaps):
        vt += gap
        marks.append((vt, flag))
    return marks


def _last_vt(marks) -> int:
    return marks[-1][0] if marks else 0


@settings(max_examples=300, deadline=None)
@given(marks=_marks(), data=st.data())
def test_period_walk_matches_the_walks_it_replaced(marks, data):
    ref = _RefSyncIndex({}, marks, source="t", complete=True)
    index = SyncIndex({}, marks, source="t", complete=True)
    assert mark_periods(marks) == ref.periods()
    assert index.periods() == ref.periods()
    for i in range(-2, _last_vt(marks) + 4):
        assert period_of(mark_periods(marks), i) == ref.period_of(i)
        assert index.period_of(i) == ref.period_of(i)

    # the observer closes an open period at its final vt, which may lie
    # below that period's start
    obs = RunObserver()
    obs.sampling_marks = list(marks)
    obs._final_vt = data.draw(st.integers(-2, _last_vt(marks) + 4))
    assert obs.sampling_periods() == _ref_sampling_periods(obs)

    firsts = data.draw(st.lists(st.integers(-2, _last_vt(marks) + 4),
                                max_size=8))
    races = [SimpleNamespace(first_index=i) for i in firsts]
    doc = build_coverage(source="t", marks=marks, races=races)
    assert doc["periods"] == _ref_period_stats(marks)
    inside, outside = _ref_attribute_races(races, marks)
    assert doc["races"]["first_in_period"] == inside
    assert doc["races"]["unattributed"] == outside
