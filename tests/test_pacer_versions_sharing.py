"""PACER's version epochs and clock sharing (paper §3.2, Table 7).

Covers the O(n)-avoidance machinery: version fast paths at joins,
shallow copies at releases, copy-on-write cloning, and the Lemma 7
invariant (a known version implies clock ordering).
"""

from repro import PacerDetector
from repro.core.versioning import VE_BOTTOM, VE_TOP, vepoch_tid, vepoch_version
from repro.trace.events import acq, fork, join, rd, rel, sbegin, send, vol_rd, vol_wr, wr
from repro.trace.generator import random_trace

X = 1
L, L2 = 100, 101
V = 200


class TestSharing:
    def test_release_shares_clock_when_not_sampling(self):
        d = PacerDetector(sampling=False)
        d.run([acq(0, L), rel(0, L)])
        assert d._lock[L].clock is d._thread[0].clock
        assert d._thread[0].clock.shared
        assert d.counters.copies_shallow_nonsampling == 1
        assert d.counters.copies_deep_nonsampling == 0

    def test_release_deep_copies_when_sampling(self):
        d = PacerDetector(sampling=True)
        d.run([acq(0, L), rel(0, L)])
        assert d._lock[L].clock is not d._thread[0].clock
        assert d.counters.copies_deep_sampling == 1

    def test_multiple_locks_share_one_clock(self):
        # Figure 2: both releases share t's vector clock.
        d = PacerDetector(sampling=False)
        d.run([acq(0, L), rel(0, L), acq(0, L2), rel(0, L2)])
        assert d._lock[L].clock is d._lock[L2].clock

    def test_increment_clones_shared_clock(self):
        d = PacerDetector(sampling=False)
        d.run([acq(0, L), rel(0, L)])
        shared_clock = d._thread[0].clock
        d.apply(sbegin())  # increments -> must clone first
        assert d._thread[0].clock is not shared_clock
        assert d.counters.clones >= 1
        # the lock still references the old (shared) value
        assert d._lock[L].clock is shared_clock

    def test_rule6_join_clones_shared_clock(self):
        # t0 and t1 leave the sampling period concurrent; t1's release
        # of L2 shares its clock, so the Rule 6 join at its acquire of L
        # must clone before writing
        d = PacerDetector()
        d.run([sbegin(), fork(0, 1), acq(0, L), rel(0, L), send(),
               acq(1, L2), rel(1, L2)])
        shared_clock = d._thread[1].clock
        assert d._lock[L2].clock is shared_clock and shared_clock.shared
        lock_value = list(shared_clock._c)
        assert not d._lock[L].clock.leq(shared_clock)  # concurrent
        clones = d.counters.clones
        slow = d.counters.joins_slow_nonsampling
        d.apply(acq(1, L))
        assert d.counters.joins_slow_nonsampling == slow + 1
        assert d.counters.clones == clones + 1
        assert d._lock[L2].clock is shared_clock
        assert shared_clock._c == lock_value
        assert d._thread[1].clock is not shared_clock
        assert d._lock[L].clock.leq(d._thread[1].clock)

    def test_rule9_join_clones_shared_volatile_clock(self):
        # t0's non-sampling volatile write shares t0's clock with V; t1's
        # concurrent write then joins into V's clock (Rule 9), which
        # must clone instead of writing into t0's clock
        d = PacerDetector()
        d.run([sbegin(), fork(0, 1), wr(0, X), send(), vol_wr(0, V)])
        shared_clock = d._thread[0].clock
        assert d._vol[V].clock is shared_clock and shared_clock.shared
        thread_value = list(shared_clock._c)
        assert not shared_clock.leq(d._thread[1].clock)  # concurrent
        clones = d.counters.clones
        d.apply(vol_wr(1, V))
        assert d._vol[V].vepoch == VE_TOP
        assert d.counters.clones == clones + 1
        assert d._thread[0].clock is shared_clock
        assert shared_clock._c == thread_value
        assert d._vol[V].clock is not shared_clock
        assert d._thread[1].clock.leq(d._vol[V].clock)

    def test_sharing_never_corrupts_lock_clock(self):
        d = PacerDetector(sampling=False)
        d.run([acq(0, L), rel(0, L)])
        lock_value = [d._lock[L].clock.get(i) for i in range(3)]
        d.apply(sbegin())
        d.apply(wr(0, X))
        d.apply(send())
        assert [d._lock[L].clock.get(i) for i in range(3)] == lock_value

    def test_sharing_disabled_by_flag(self):
        d = PacerDetector(sampling=False, use_sharing=False)
        d.run([acq(0, L), rel(0, L)])
        assert d._lock[L].clock is not d._thread[0].clock
        assert d.counters.copies_deep_nonsampling == 1


class TestVersionFastPath:
    def test_fork_version_makes_first_acquire_fast(self):
        # fork hands t1 version 1 of t0's clock; in a timeless period the
        # release re-publishes the same version, so even t1's FIRST
        # acquire skips the join.
        d = PacerDetector(sampling=False)
        d.run([fork(0, 1), acq(0, L), rel(0, L)])
        before = d.counters.joins_slow_nonsampling
        d.apply(acq(1, L))
        assert d.counters.joins_slow_nonsampling == before
        assert d.counters.joins_fast_nonsampling >= 1

    def test_repeat_acquire_skips_join(self):
        # A sampling blip gives t0 a new version t1 has not seen: the
        # first acquire pays one slow join, repeats are all fast.
        d = PacerDetector(sampling=False)
        d.run([fork(0, 1), sbegin(), send(), acq(0, L), rel(0, L)])
        before = d.counters.joins_slow_nonsampling
        d.apply(acq(1, L))
        d.apply(rel(1, L))
        d.apply(acq(1, L))
        d.apply(rel(1, L))
        d.apply(acq(1, L))
        slow_delta = d.counters.joins_slow_nonsampling - before
        assert slow_delta == 1
        assert d.counters.joins_fast_nonsampling >= 1

    def test_version_epoch_set_on_release(self):
        d = PacerDetector(sampling=False)
        d.run([acq(0, L), rel(0, L)])
        ve = d._lock[L].vepoch
        assert ve not in (VE_BOTTOM, VE_TOP)
        assert vepoch_tid(ve) == 0

    def test_acquire_unreleased_lock_is_fast(self):
        d = PacerDetector(sampling=False)
        d.run([acq(0, L)])
        assert d.counters.joins_fast_nonsampling == 1
        assert d.counters.joins_slow_nonsampling == 0

    def test_version_vector_learns_from_joins(self):
        d = PacerDetector(sampling=False)
        d.run([fork(0, 1), acq(0, L), rel(0, L), acq(1, L)])
        ve = d._lock[L].vepoch
        assert d._thread[1].ver.get(vepoch_tid(ve)) >= vepoch_version(ve)

    def test_versions_disabled_forces_slow_joins(self):
        trace = [fork(0, 1)] + [
            e
            for i in range(5)
            for e in (acq(0, L), rel(0, L), acq(1, L), rel(1, L))
        ]
        with_v = PacerDetector(sampling=False)
        with_v.run(trace)
        without_v = PacerDetector(sampling=False, use_versions=False)
        without_v.run(trace)
        assert (
            without_v.counters.joins_slow_nonsampling
            > with_v.counters.joins_slow_nonsampling
        )

    def test_lemma7_versions_imply_clock_ordering(self):
        """Ver(o) ⪯ C_t.ver  ==>  S_o.vc ⊑ C_t.vc, at every step."""
        for seed in range(8):
            trace = random_trace(
                seed=seed, length=300, sampling_period_prob=0.08
            )
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


class TestTimelessness:
    def test_no_increments_outside_sampling(self):
        d = PacerDetector(sampling=False)
        d.run(
            [
                fork(0, 1),
                acq(0, L), rel(0, L),
                vol_wr(0, V),
                acq(1, L), rel(1, L),
            ]
        )
        assert d.counters.increments == 0

    def test_increments_inside_sampling(self):
        d = PacerDetector(sampling=True)
        d.run([acq(0, L), rel(0, L)])
        assert d.counters.increments == 1

    def test_join_operation_join_thread(self):
        d = PacerDetector(sampling=False)
        d.run([fork(0, 1), wr(1, X), join(0, 1)])
        # after join(0,1), t1's history is ordered before t0
        assert d._thread[1].clock.leq(d._thread[0].clock)
        assert not d._thread[1].alive


class TestVolatileVersions:
    def test_totally_ordered_volatile_keeps_version_epoch(self):
        d = PacerDetector(sampling=False)
        d.run([vol_wr(0, V), vol_rd(0, V), vol_wr(0, V)])
        assert d._vol[V].vepoch != VE_TOP
        assert d._vol[V].vepoch != VE_BOTTOM

    def test_concurrent_volatile_writes_top_out(self):
        d = PacerDetector(sampling=True)
        d.run([fork(0, 1), vol_wr(0, V), vol_wr(1, V)])
        assert d._vol[V].vepoch == VE_TOP

    def test_top_ve_forces_full_comparison_on_read(self):
        d = PacerDetector(sampling=True)
        d.run([fork(0, 1), fork(0, 2), vol_wr(0, V), vol_wr(1, V)])
        before = d.counters.joins_slow_sampling
        d.apply(vol_rd(2, V))
        assert d.counters.joins_slow_sampling == before + 1

    def test_volatile_hb_preserved_after_top(self):
        # even with a TOP_VE version epoch, happens-before must hold
        d = PacerDetector()
        d.run(
            [
                fork(0, 1), fork(0, 2),
                sbegin(),
                vol_wr(0, V), vol_wr(1, V),
                wr(0, X, site=1),
                vol_wr(0, V),
                send(),
                vol_rd(2, V),
                rd(2, X, site=2),
            ]
        )
        assert d.races == []

    def test_subsumed_volatile_write_shallow_copies(self):
        d = PacerDetector(sampling=False)
        d.run([vol_wr(0, V), vol_wr(0, V)])
        assert d._vol[V].clock is d._thread[0].clock
        assert d.counters.copies_shallow_nonsampling >= 1
