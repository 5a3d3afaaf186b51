"""Property-based tests (hypothesis) for the core invariants.

Strategies build *feasible* traces directly (locks held per thread,
fork/join discipline, sampling-period alternation maintained by
construction), then check the paper's central claims:

* precision — no detector reports a non-race (vs the exact HB oracle);
* completeness — race-free traces produce no reports;
* PACER at r=100% is exactly FASTTRACK;
* the proportionality guarantee — FASTTRACK races with a sampled first
  access and no intervening conflicting access are always reported;
* metadata economy — PACER tracks nothing it does not need;
* the packed engine kernels equal the object reference handlers at any
  batch boundary;
* vector-clock lattice laws.
"""

from hypothesis import given, settings, strategies as st

from helpers import in_sampling_window, race_sigs, sampling_windows

from repro import FastTrackDetector, GenericDetector, PacerDetector
from repro.core.clocks import VectorClock
from repro.trace.events import (
    ALLOC,
    METHOD_ENTER,
    METHOD_EXIT,
    Event,
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
from repro.trace.oracle import HBOracle
from repro.trace.trace import Trace


# -- trace strategy -----------------------------------------------------------


#: analysis no-ops (method events, allocation) that ride inside access runs
NOOP_KINDS = (METHOD_ENTER, METHOD_EXIT, ALLOC)


@st.composite
def feasible_traces(draw, max_threads=4, max_vars=5, max_locks=3, max_len=60,
                    with_sampling=False, with_joins_and_noops=False):
    """Generate a feasible trace by simulating simple thread states.

    ``with_joins_and_noops`` adds two event shapes: joins of forked
    threads that hold no lock (the joined thread never acts again), and
    method/allocation events, which the packed kernels carry inside
    access runs rather than letting them break a run.
    """
    n_threads = draw(st.integers(2, max_threads))
    length = draw(st.integers(5, max_len))
    events = [fork(0, tid) for tid in range(1, n_threads)]
    held = {tid: [] for tid in range(n_threads)}
    lock_holder = {}
    alive = list(range(n_threads))
    sampling = False
    for _ in range(length):
        if with_sampling and draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
            events.append(send() if sampling else sbegin())
            sampling = not sampling
        tid = alive[draw(st.integers(0, len(alive) - 1))]
        choice = draw(st.integers(0, 12 if with_joins_and_noops else 9))
        if choice >= 10:
            joinable = [t for t in alive if t not in (0, tid) and not held[t]]
            if choice == 10 and joinable:
                child = joinable[draw(st.integers(0, len(joinable) - 1))]
                events.append(join(tid, child))
                alive.remove(child)
            else:
                kind = NOOP_KINDS[draw(st.integers(0, len(NOOP_KINDS) - 1))]
                events.append(Event(kind, tid, draw(st.integers(0, 3)), 0))
        elif choice <= 4:  # data access
            var = draw(st.integers(0, max_vars - 1))
            site = draw(st.integers(1, 12))
            if draw(st.booleans()):
                events.append(wr(tid, var, site))
            else:
                events.append(rd(tid, var, site))
        elif choice <= 6:  # lock acquire (if free) or release (if held)
            if held[tid] and draw(st.booleans()):
                lock = held[tid].pop()
                events.append(rel(tid, lock))
                del lock_holder[lock]
            else:
                lock = 100 + draw(st.integers(0, max_locks - 1))
                if lock_holder.get(lock, tid) == tid:
                    if lock not in held[tid]:  # avoid reentrant noise
                        events.append(acq(tid, lock))
                        held[tid].append(lock)
                        lock_holder[lock] = tid
        elif choice == 7:
            events.append(vol_wr(tid, 200 + draw(st.integers(0, 1))))
        else:
            events.append(vol_rd(tid, 200 + draw(st.integers(0, 1))))
    # release everything still held; close the sampling period
    for tid, locks in held.items():
        for lock in reversed(locks):
            events.append(rel(tid, lock))
    if sampling:
        events.append(send())
    return Trace(events).validate()


# -- vector clock laws ---------------------------------------------------------

clock_lists = st.lists(st.integers(0, 6), min_size=0, max_size=5)


@given(clock_lists, clock_lists)
def test_join_is_least_upper_bound(a_vals, b_vals):
    a, b = VectorClock(a_vals), VectorClock(b_vals)
    j = a.copy()
    j.join(b)
    assert a.leq(j) and b.leq(j)
    # minimality: j is pointwise max, so any upper bound dominates it
    for i in range(max(len(a_vals), len(b_vals))):
        assert j.get(i) == max(a.get(i), b.get(i))


@given(clock_lists, clock_lists)
def test_join_commutative(a_vals, b_vals):
    ab = VectorClock(a_vals)
    ab.join(VectorClock(b_vals))
    ba = VectorClock(b_vals)
    ba.join(VectorClock(a_vals))
    assert ab == ba


@given(clock_lists, clock_lists, clock_lists)
def test_join_associative(a_vals, b_vals, c_vals):
    left = VectorClock(a_vals)
    left.join(VectorClock(b_vals))
    left.join(VectorClock(c_vals))
    bc = VectorClock(b_vals)
    bc.join(VectorClock(c_vals))
    right = VectorClock(a_vals)
    right.join(bc)
    assert left == right


@given(clock_lists)
def test_join_idempotent(a_vals):
    a = VectorClock(a_vals)
    j = a.copy()
    j.join(a)
    assert j == a


@given(clock_lists, clock_lists, clock_lists)
def test_leq_transitive(a_vals, b_vals, c_vals):
    a, b, c = VectorClock(a_vals), VectorClock(b_vals), VectorClock(c_vals)
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


# -- detector properties ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(feasible_traces())
def test_pacer_full_sampling_is_fasttrack(trace):
    ft = FastTrackDetector()
    ft.run(trace)
    p = PacerDetector(sampling=True)
    p.run(trace)
    assert race_sigs(ft.races) == race_sigs(p.races)


@settings(max_examples=60, deadline=None)
@given(feasible_traces(with_sampling=True))
def test_pacer_precision_under_any_schedule(trace):
    oracle = HBOracle(trace)
    truth = set()
    for accesses in oracle._by_var.values():
        for j, b in enumerate(accesses):
            for a in accesses[:j]:
                if a.conflicts_with(b) and not a.happens_before(b):
                    truth.add((a.index, b.index))
    p = PacerDetector()
    p.run(trace)
    for race in p.races:
        assert (race.first_index, race.index) in truth


@settings(max_examples=60, deadline=None)
@given(feasible_traces(with_sampling=True))
def test_detectors_precise(trace):
    oracle = HBOracle(trace)
    racy_vars = oracle.racy_variables()
    for det in (GenericDetector(), FastTrackDetector()):
        det.run(trace)
        assert {r.var for r in det.races} <= racy_vars


@settings(max_examples=60, deadline=None)
@given(feasible_traces(with_sampling=True))
def test_generic_complete_for_racy_variables(trace):
    oracle = HBOracle(trace)
    g = GenericDetector()
    g.run(trace)
    assert {r.var for r in g.races} == oracle.racy_variables()


@settings(max_examples=40, deadline=None)
@given(feasible_traces(with_sampling=True))
def test_pacer_guarantee(trace):
    """Sampled FASTTRACK shortest races are always flagged by PACER.

    Identity is (variable, first thread): the exact cited access/site may
    legitimately differ between the two detectors when a thread re-reads
    a variable within one epoch (read-map representation differs once
    sampling has discarded older reads), but the sampled race itself must
    be reported.
    """
    windows = sampling_windows(trace)
    ft = FastTrackDetector()
    ft.run(trace)
    p = PacerDetector()
    p.run(trace)
    flagged = {
        (r.var, r.first_tid)
        for r in p.races
        if in_sampling_window(r.first_index, windows)
    }
    accesses = {}
    for i, e in enumerate(trace):
        if e.kind in ("rd", "wr"):
            accesses.setdefault(e.target, []).append((i, e.kind))
    for r in ft.races:
        if not in_sampling_window(r.first_index, windows):
            continue
        intervening = any(
            r.first_index < i < r.index
            for i, _k in accesses.get(r.var, [])
        )
        if intervening:
            continue  # not necessarily a shortest race
        assert (r.var, r.first_tid) in flagged


@settings(max_examples=40, deadline=None)
@given(feasible_traces(with_sampling=True))
def test_pacer_no_metadata_without_sampling(trace):
    stripped = [e for e in trace if e.kind not in ("sbegin", "send")]
    p = PacerDetector(sampling=False)
    p.run(stripped)
    assert p.tracked_variables == 0
    assert p.races == []


@settings(max_examples=40, deadline=None)
@given(feasible_traces(with_sampling=True))
def test_pacer_ablation_flags_do_not_change_reports(trace):
    baseline = PacerDetector()
    baseline.run(trace)
    expected = race_sigs(baseline.races)
    for kwargs in (
        {"use_versions": False},
        {"use_sharing": False},
        {"use_versions": False, "use_sharing": False},
    ):
        variant = PacerDetector(**kwargs)
        variant.run(trace)
        assert race_sigs(variant.races) == expected


@settings(max_examples=30, deadline=None)
@given(feasible_traces(with_sampling=True))
def test_pacer_lemma7_invariant(trace):
    """Ver(o) ⪯ C_t.ver implies S_o.vc ⊑ C_t.vc (Lemma 7)."""
    from repro.core.versioning import VE_BOTTOM, VE_TOP, vepoch_tid, vepoch_version

    d = PacerDetector()
    for event in trace:
        d.apply(event)
    for tid, tmeta in d._thread.items():
        for sync in list(d._lock.values()) + list(d._vol.values()):
            ve = sync.vepoch
            if ve in (VE_BOTTOM, VE_TOP):
                continue
            if tmeta.ver.get(vepoch_tid(ve)) >= vepoch_version(ve):
                assert sync.clock.leq(tmeta.clock)


# -- packed kernels vs the object reference -------------------------------------

#: detectors whose batched packed path runs an engine kernel
#: (:func:`~repro.core.engine.fasttrack_kernel` /
#: :func:`~repro.core.engine.pacer_kernel`)
KERNEL_DETECTORS = (
    ("fasttrack", FastTrackDetector),
    ("pacer", PacerDetector),
    ("pacer-nodiscard",
     lambda backend: PacerDetector(discard_metadata=False, backend=backend)),
)


def _observable(det):
    return {
        "races": list(det.races),
        "counters": det.counters.snapshot(),
        "footprint": det.footprint_words(),
        "threads": sorted(det._threads),
    }


@settings(max_examples=150, deadline=None)
@given(
    feasible_traces(with_sampling=True, with_joins_and_noops=True),
    st.integers(1, 16),
)
def test_packed_kernels_match_object_reference(trace, batch_size):
    """Packed scalar and packed batched dispatch equal object scalar.

    A small drawn ``batch_size`` puts batch boundaries anywhere: inside
    an access run, between a fork or join and the accesses it orders,
    on a sampling marker, or around a riding no-op event.  The bulk
    retirement of non-sampling runs in ``pacer_kernel`` and the
    per-run clock cache in ``fasttrack_kernel`` must be invisible at
    every one of them.
    """
    events = list(trace)
    for label, make in KERNEL_DETECTORS:
        ref = make(backend="object")
        ref.run(events)
        expected = _observable(ref)
        scalar = make(backend="packed")
        scalar.run(events)
        assert _observable(scalar) == expected, f"{label} packed scalar"
        batched = make(backend="packed")
        batched.run_batch(events, batch_size=batch_size)
        assert _observable(batched) == expected, (
            f"{label} packed batched, batch_size={batch_size}"
        )


# -- packed-state representation ----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2**40),
    st.integers(0, 2**20 - 1),
)
def test_packed_epoch_round_trip(clock, tid):
    """pack_epoch/unpack_epoch is the identity on the valid domain."""
    from repro.core.clocks import Epoch, pack_epoch, unpack_epoch

    packed = pack_epoch(clock, tid)
    assert unpack_epoch(packed) == Epoch(clock, tid)
    assert packed > 0  # never collides with the packed bottom epoch


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2**40), st.integers(0, 2**20 - 1),
    st.integers(1, 2**40), st.integers(0, 2**20 - 1),
)
def test_packed_epoch_preserves_clock_order(c1, t1, c2, t2):
    """Integer comparison of packed epochs agrees with clock comparison
    for same-thread epochs, and clock dominance wins across threads."""
    from repro.core.clocks import pack_epoch

    p1, p2 = pack_epoch(c1, t1), pack_epoch(c2, t2)
    if t1 == t2:
        assert (p1 < p2) == (c1 < c2)
    if c1 < c2:
        assert p1 < p2


@settings(max_examples=100, deadline=None)
@given(st.integers())
def test_packed_epoch_rejects_out_of_range(value):
    """tids outside TID_BITS and non-positive clocks never pack."""
    import pytest

    from repro.core.clocks import MAX_TID, pack_epoch
    from repro.core.versioning import pack_vepoch

    if not 0 <= value <= MAX_TID:
        with pytest.raises(ValueError):
            pack_epoch(1, value)
        with pytest.raises(ValueError):
            pack_vepoch(1, value)
    if value <= 0:
        with pytest.raises(ValueError):
            pack_epoch(value, 0)
        with pytest.raises(ValueError):
            pack_vepoch(value, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**40), st.integers(0, 2**20 - 1))
def test_packed_vepoch_round_trip(version, tid):
    from repro.core.versioning import (
        VE_BOTTOM,
        VE_TOP,
        VersionEpoch,
        pack_vepoch,
        unpack_vepoch,
        vepoch_tid,
        vepoch_version,
    )

    packed = pack_vepoch(version, tid)
    assert unpack_vepoch(packed) == VersionEpoch(version, tid)
    assert vepoch_version(packed) == version
    assert vepoch_tid(packed) == tid
    assert packed not in (VE_BOTTOM, VE_TOP)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 30), st.integers(0, 9)),
        min_size=1,
        max_size=12,
    )
)
def test_readmap_inflate_transitions(records):
    """ReadMap state machine: epoch until a second thread records, then a
    shared map that exactly mirrors a reference dict; words() tracks the
    representation (2 for an epoch, 2 + 2*len for a map)."""
    from repro.core.clocks import ReadMap

    first_tid, first_clock, first_site = records[0]
    rm = ReadMap(first_tid, first_clock, first_site)
    reference = {first_tid: (first_clock, first_site, -1)}
    inflated = False
    for tid, clock, site in records[1:]:
        rm.record(tid, clock, site)
        reference[tid] = (clock, site, -1)
        if tid != first_tid:
            inflated = True
        if not inflated:
            # same-thread records overwrite the epoch in place
            reference = {tid: (clock, site, -1)}
    assert rm.is_epoch == (not inflated)
    assert {t: (c, s, i) for t, c, s, i in rm.entries()} == reference
    if inflated:
        assert rm.words() == 2 + 2 * len(reference)
        # discard removes single entries but never deflates back
        victim = next(iter(reference))
        rm.discard(victim)
        reference.pop(victim)
        assert not rm.is_epoch
        assert rm.words() == 2 + 2 * len(reference)
    else:
        assert rm.words() == 2
