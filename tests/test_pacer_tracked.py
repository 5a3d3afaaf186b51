"""PACER's non-sampling loop over tracked accesses, case by case.

On the packed backend every non-sampling access to a tracked variable
runs :func:`repro.core.engine.pacer_tracked`: once per access from the
scalar handlers, and once per access run from
:func:`repro.core.engine.pacer_kernel`, which hands it a C-level filter
of the run's tracked targets and retires the rest of the run in bulk.
The random programs of the differential suite reach the filter's corner
cases only by chance, so each case here is a hand-built trace checked
against the object backend's scalar run (the pseudocode reference):
races in order, Table 3 counters, footprint and thread bookkeeping,
under packed scalar dispatch and packed batched dispatch at every batch
size, so every run is also split at every position.

The access-path counts in :class:`repro.core.stats.PerfCounters` are
pinned at the end, on the inputs of ``tests/test_table3_golden.py``.
"""

import pytest

from helpers import race_sigs
from repro import PacerDetector
from repro.bench import marked_trace
from repro.trace.batch import encode_batch
from repro.trace.events import (
    ALLOC,
    METHOD_ENTER,
    METHOD_EXIT,
    Event,
    acq,
    fork,
    rd,
    rel,
    sbegin,
    send,
    wr,
)

X, Y, Z = 1, 2, 3
L = 100


def _state(det):
    return {
        "races": race_sigs(det.races),
        "race_details": [
            (r.first_clock, r.first_site, r.second_site) for r in det.races
        ],
        "counters": det.counters.snapshot(),
        "footprint": det.footprint_words(),
        "events_seen": det._events_seen,
        "threads": sorted(det._threads),
    }


def _check(events, **options):
    """Replay ``events`` every way; return the packed batched detector
    that saw the trace as one batch."""
    ref = PacerDetector(backend="object", **options)
    ref.run(list(events))
    expected = _state(ref)
    scalar = PacerDetector(backend="packed", **options)
    scalar.run(list(events))
    assert _state(scalar) == expected, "packed scalar"
    for size in range(1, len(events) + 1):
        batched = PacerDetector(backend="packed", **options)
        batched.run_batch(list(events), batch_size=size)
        assert _state(batched) == expected, f"packed batch_size={size}"
        assert (batched.perf.tracked_accesses, batched.perf.tracked_changes) \
            == (scalar.perf.tracked_accesses, scalar.perf.tracked_changes)
    return batched


def test_variable_released_mid_run_then_read_in_the_same_run():
    # Thread 1's write races with the sampled write and discards X's
    # metadata; both later reads of X in the same run take the fast path.
    events = [
        fork(0, 1), sbegin(), wr(0, X, site=1), send(),
        rd(1, Y), wr(1, X, site=2), rd(0, X, site=3), rd(1, X, site=4),
        rd(0, Z),
    ]
    det = _check(events)
    assert [(r.kind, r.first_site, r.second_site) for r in det.races] == [
        ("ww", 1, 2)
    ]
    assert det.tracked_variables == 0
    assert det.counters.writes_slow_nonsampling == 1
    assert det.counters.reads_slow_nonsampling == 0
    assert det.counters.reads_fast_nonsampling == 4
    perf = det.perf
    assert (perf.bulk_runs, perf.live_runs) == (0, 1)
    assert (perf.tracked_accesses, perf.tracked_changes) == (1, 1)


@pytest.mark.parametrize("kind", [METHOD_ENTER, ALLOC])
def test_noop_event_on_a_tracked_id_changes_nothing(kind):
    # The run's only event naming X is not an access: the filter hands
    # it over and the loop skips it by its kind.
    events = [
        sbegin(), wr(0, X, site=1), send(),
        rd(0, Y), Event(kind, 0, X), wr(0, Z), Event(METHOD_EXIT, 0, X),
        rd(0, Y),
    ]
    det = _check(events)
    assert det.tracked_variables == 1
    assert det.counters.reads_slow_nonsampling == 0
    assert det.counters.writes_slow_nonsampling == 0
    assert det.counters.reads_fast_nonsampling == 2
    assert det.counters.writes_fast_nonsampling == 1
    perf = det.perf
    assert (perf.bulk_runs, perf.live_runs) == (0, 1)
    assert (perf.tracked_accesses, perf.tracked_changes) == (0, 0)


def test_same_epoch_write_still_checks_concurrent_sampled_read():
    # Thread 0 holds X's write epoch; thread 1's sampled read is
    # concurrent with it.  Thread 0 writing X again outside sampling is a
    # same-epoch write: it keeps the metadata but must report the
    # read-write race (Algorithm 13).
    events = [
        fork(0, 1), sbegin(), wr(0, X, site=1), rd(1, X, site=2), send(),
        rd(0, Y), wr(0, X, site=3), rd(0, X, site=4),
    ]
    det = _check(events)
    assert [(r.kind, r.first_site, r.second_site) for r in det.races] == [
        ("wr", 1, 2), ("rw", 2, 3),
    ]
    assert det.tracked_variables == 1
    assert det.var_view(X).write is not None
    assert det.perf.tracked_accesses == 2
    assert det.perf.tracked_changes == 0


def test_same_epoch_read_still_checks_the_write():
    # Thread 1's sampled read races with thread 0's write.  Reading X
    # again outside sampling is a same-epoch read: Rule 1 keeps it, but
    # Algorithm 12's write check runs first and reports the race again.
    events = [
        fork(0, 1), sbegin(), wr(0, X, site=1), rd(1, X, site=2), send(),
        rd(1, Y), rd(1, X, site=3), rd(0, X, site=4),
    ]
    det = _check(events)
    assert [(r.kind, r.first_site, r.second_site) for r in det.races] == [
        ("wr", 1, 2), ("wr", 1, 3),
    ]
    assert det.var_view(X).read is not None
    assert (det.perf.tracked_accesses, det.perf.tracked_changes) == (2, 0)


def test_shared_read_map_drops_one_entry_per_reader():
    # Two concurrent sampled reads inflate X's read map.  Outside
    # sampling a reader drops only its own entry (Table 4 Rule 3), a
    # thread without an entry changes nothing, and the last drop
    # releases the slot; thread 1's next read is then a fast one.
    events = [
        fork(0, 1), fork(0, 2), sbegin(), rd(1, X, site=1),
        rd(2, X, site=2), send(),
        rd(0, X, site=3), rd(1, X, site=4), rd(1, Y), rd(2, X, site=5),
        rd(1, X, site=6),
    ]
    det = _check(events)
    assert det.races == []
    assert det.tracked_variables == 0
    assert det.counters.reads_fast_nonsampling == 2
    assert (det.perf.tracked_accesses, det.perf.tracked_changes) == (3, 2)


def test_live_run_split_by_batch_boundaries():
    # One long non-sampling run with tracked accesses by two threads on
    # both sides of every split _check tries: kept concurrent (Rule 4)
    # and same-epoch metadata, discards with releases, races, and
    # accesses to variables released earlier in the run.
    events = [
        fork(0, 1), sbegin(), wr(0, X, site=1), rd(0, Y, site=2),
        wr(1, Z, site=3), send(),
        rd(0, X, site=4), rd(1, Y, site=5), wr(1, X, site=6), rd(0, Z),
        rd(1, X, site=7), wr(0, Y, site=8), rd(1, Z, site=9), wr(0, X),
        acq(0, L), rel(0, L), rd(1, Z, site=10),
    ]
    det = _check(events)
    assert [(r.kind, r.first_site, r.second_site) for r in det.races] == [
        ("ww", 1, 6), ("wr", 3, 0),
    ]
    assert det.tracked_variables == 1  # only Z, under t1's write epoch
    assert det.counters.reads_fast_nonsampling == 1
    assert det.counters.writes_fast_nonsampling == 1
    perf = det.perf
    assert (perf.live_runs, perf.tracked_accesses, perf.tracked_changes) \
        == (2, 7, 2)


def test_nodiscard_ablation_keeps_null_metadata_tracked():
    # Without discards a write that nulls X's metadata leaves X tracked;
    # later accesses reach the rules and find nothing to check or drop.
    events = [
        fork(0, 1), sbegin(), wr(0, X, site=1), rd(0, Y, site=2), send(),
        wr(1, X, site=3), rd(0, X, site=4), wr(0, X, site=5),
        rd(1, Y, site=6), rd(0, Y, site=7),
        sbegin(), rd(1, X, site=8), send(), wr(0, X, site=9),
    ]
    det = _check(events, discard_metadata=False)
    assert [(r.kind, r.first_site, r.second_site) for r in det.races] == [
        ("ww", 1, 3), ("rw", 8, 9),
    ]
    assert det.tracked_variables == 2
    assert det.var_view(X).is_null
    assert det.counters.reads_fast_nonsampling == 0
    assert det.counters.writes_fast_nonsampling == 0
    # only the two writes that met metadata changed it: the one that
    # nulls X and the last one, which drops thread 1's sampled read
    assert (det.perf.tracked_accesses, det.perf.tracked_changes) == (6, 2)


#: marked_trace(name, 0.03, trial_seed=0, size=0.1) replayed as one
#: EventBatch on the packed backend -> (bulk runs, live runs, tracked
#: accesses, of those the ones that changed metadata)
ACCESS_PATHS = {
    "eclipse": (192, 80, 749, 245),
    "hsqldb": (5684, 904, 2049, 753),
    "pseudojbb": (509, 146, 1705, 373),
    "xalan": (51, 93, 1140, 209),
}


@pytest.mark.parametrize("name", sorted(ACCESS_PATHS))
def test_access_path_counts_golden(name):
    events = marked_trace(name, 0.03, trial_seed=0, size=0.1)
    det = PacerDetector(backend="packed")
    det.run_batch(encode_batch(events))
    perf = det.perf
    assert (perf.bulk_runs, perf.live_runs, perf.tracked_accesses,
            perf.tracked_changes) == ACCESS_PATHS[name]
    counters = det.counters
    assert perf.tracked_accesses == (
        counters.reads_slow_nonsampling + counters.writes_slow_nonsampling
    )
    # scalar dispatch has no runs but hands the loop the same accesses
    scalar = PacerDetector(backend="packed")
    scalar.run(events)
    assert (scalar.perf.bulk_runs, scalar.perf.live_runs) == (0, 0)
    assert (scalar.perf.tracked_accesses, scalar.perf.tracked_changes) == (
        perf.tracked_accesses, perf.tracked_changes)
