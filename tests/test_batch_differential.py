"""Differential tests: the batched fast path vs the scalar path.

``Detector.run_batch`` (and the packed FASTTRACK/PACER batch kernels) is
pure plumbing — it must be *behavior-identical* to feeding the same
events through ``apply`` one at a time.  These tests pin that equivalence
over hundreds of seeded random programs built from the micro workload
generators: identical race reports (down to trace indices), identical
operation-counter snapshots, identical metadata footprints, and
identical thread bookkeeping, for every detector family.

Two cross-detector anchors ride along: PACER analyzing a fully-sampled
trace reports exactly FASTTRACK's races (the paper's r=100% identity),
and FASTTRACK's reports agree with the exact happens-before oracle.
"""

from __future__ import annotations

import random

import pytest

from helpers import race_sigs
from repro.core.backend import BACKENDS as AVAILABLE_BACKENDS
from repro.core.pacer import PacerDetector
from repro.detectors import (
    DjitPlusDetector,
    EraserDetector,
    FastTrackDetector,
    GenericDetector,
    GoldilocksDetector,
    LiteRaceDetector,
)
from repro.sim.scheduler import run_program
from repro.sim.workloads import micro
from repro.trace.batch import encode_batch
from repro.trace.events import Event, READ, SBEGIN, SEND, WRITE
from repro.trace.oracle import HBOracle

SEEDS = range(35)

#: program generators, each parameterized from the per-case RNG so that
#: every seed exercises a differently-shaped program
GENERATORS = [
    ("counter_race", lambda rng: micro.counter_race(
        n_threads=rng.randint(2, 4), increments=rng.randint(3, 12))),
    ("producer_consumer", lambda rng: micro.producer_consumer(
        items=rng.randint(4, 12), n_consumers=rng.randint(1, 3))),
    ("lock_ping_pong", lambda rng: micro.lock_ping_pong(
        rounds=rng.randint(5, 25), n_locks=rng.randint(1, 3))),
    ("fork_join_tree", lambda rng: micro.fork_join_tree(
        depth=rng.randint(1, 3), work=rng.randint(2, 8))),
    ("volatile_flag", lambda rng: micro.volatile_flag(
        iterations=rng.randint(3, 15))),
    ("redundant_sync_storm", lambda rng: micro.redundant_sync_storm()),
]

CASES = [
    (name, build, seed) for name, build in GENERATORS for seed in SEEDS
]
assert len(CASES) >= 200, "the differential sweep must cover >= 200 programs"

DETECTORS = [
    ("fasttrack", FastTrackDetector),
    ("pacer", PacerDetector),
    ("pacer-sampling", lambda: PacerDetector(sampling=True)),
    ("eraser", EraserDetector),
    ("literace", lambda: LiteRaceDetector(seed=99)),
    ("goldilocks", GoldilocksDetector),
    ("generic", GenericDetector),
    ("djit", DjitPlusDetector),
]


def _trace_for(build, seed):
    rng = random.Random(seed * 9176 + 13)
    return list(run_program(build(rng), seed=seed).events)


def _with_sampling_periods(events, seed, period=40, rate=0.3):
    """Insert deterministic sbegin/send markers (period sampling)."""
    rng = random.Random(seed)
    out, sampling = [], False
    for i, e in enumerate(events):
        if i % period == 0 and e.kind in (READ, WRITE):
            want = rng.random() < rate
            if want and not sampling:
                out.append(Event(SBEGIN, -1, 0))
                sampling = True
            elif not want and sampling:
                out.append(Event(SEND, -1, 0))
                sampling = False
        out.append(e)
    if sampling:
        out.append(Event(SEND, -1, 0))
    return out


def _full_state(detector):
    """Everything observable that the batch path must reproduce."""
    return {
        "races": race_sigs(detector.races),
        "race_details": [
            (r.first_clock, r.first_site, r.second_site) for r in detector.races
        ],
        "counters": detector.counters.snapshot(),
        "footprint": detector.footprint_words(),
        "events_seen": detector._events_seen,
        "threads": sorted(detector._threads),
    }


def _assert_identical(factory, events, label):
    scalar = factory()
    scalar.run(list(events))
    batched = factory()
    # small batch size forces multi-batch runs and boundary handling
    batched.run_batch(list(events), batch_size=37)
    assert _full_state(scalar) == _full_state(batched), label
    # pre-encoded single batches must behave the same as re-chunked ones
    encoded = factory()
    encoded.run_batch(encode_batch(list(events)))
    assert _full_state(scalar) == _full_state(encoded), f"{label} (pre-encoded)"


@pytest.mark.parametrize(
    "name,build,seed", CASES, ids=[f"{n}-{s}" for n, _, s in CASES]
)
def test_batched_equals_scalar(name, build, seed):
    events = _trace_for(build, seed)
    for det_name, factory in DETECTORS:
        _assert_identical(factory, events, f"{det_name}/{name}/seed{seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_equals_scalar_with_sampling_periods(seed):
    """PACER flipping sampling on/off mid-batch stays scalar-identical."""
    name, build = GENERATORS[seed % len(GENERATORS)]
    events = _with_sampling_periods(_trace_for(build, seed), seed)
    _assert_identical(PacerDetector, events, f"pacer-marked/{name}/seed{seed}")
    _assert_identical(
        lambda: PacerDetector(discard_metadata=False),
        events,
        f"pacer-nodiscard/{name}/seed{seed}",
    )


#: detectors whose state layout actually switches with the backend
#: (plus literace, which samples *into* the FASTTRACK layout)
BACKEND_DETECTORS = [
    ("fasttrack", lambda backend: FastTrackDetector(backend=backend)),
    ("pacer", lambda backend: PacerDetector(backend=backend)),
    ("pacer-sampling", lambda backend: PacerDetector(sampling=True, backend=backend)),
    ("pacer-nodiscard", lambda backend: PacerDetector(
        discard_metadata=False, backend=backend)),
    ("literace", lambda backend: LiteRaceDetector(seed=99, backend=backend)),
]

#: the non-reference (arena) backends
ARENA_BACKENDS = [b for b in AVAILABLE_BACKENDS if b != "object"]


@pytest.mark.parametrize("arena", ARENA_BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_arena_backends_agree_with_object(seed, arena):
    """Each arena backend is observationally identical to the reference
    object backend: same race reports (down to indices), same operation
    counters, same footprint words, same thread bookkeeping — on both
    the scalar and the batched dispatch path, and on pre-encoded
    batches."""
    name, build = GENERATORS[seed % len(GENERATORS)]
    plain = _trace_for(build, seed)
    marked = _with_sampling_periods(plain, seed)
    for det_name, make in BACKEND_DETECTORS:
        for events, variant in ((plain, "plain"), (marked, "marked")):
            obj = make("object")
            obj.run(list(events))
            arena_scalar = make(arena)
            arena_scalar.run(list(events))
            arena_batched = make(arena)
            arena_batched.run_batch(list(events), batch_size=37)
            arena_encoded = make(arena)
            arena_encoded.run_batch(encode_batch(list(events)))
            label = f"{det_name}/{name}/seed{seed}/{variant}/{arena}"
            assert _full_state(obj) == _full_state(arena_scalar), label
            assert _full_state(obj) == _full_state(arena_batched), (
                f"{label} (batched)"
            )
            assert _full_state(obj) == _full_state(arena_encoded), (
                f"{label} (pre-encoded)"
            )


def _footprint_curve(make, backend, events, stride=23):
    """Figure 10's raw material: footprint words sampled every ``stride``
    events while the trace replays through ``run_batch``."""
    det = make(backend)
    curve = []
    for start in range(0, len(events), stride):
        det.run_batch(list(events[start:start + stride]))
        curve.append(det.footprint_words())
    return curve


@pytest.mark.parametrize("seed", SEEDS)
def test_footprint_curves_identical_across_backends(seed):
    """The Figure-10 footprint curve — not just the final value — is
    byte-equal across all available backends.  PACER's metadata discard
    makes this sharp: released slots sit on the arena free list, and a
    backend that counted arena *capacity* instead of live entries would
    diverge from the object backend exactly after the first discard."""
    name, build = GENERATORS[seed % len(GENERATORS)]
    marked = _with_sampling_periods(_trace_for(build, seed), seed)
    for det_name, make in BACKEND_DETECTORS:
        ref = _footprint_curve(make, "object", marked)
        for backend in AVAILABLE_BACKENDS[1:]:
            got = _footprint_curve(make, backend, marked)
            assert got == ref, f"{det_name}/{name}/seed{seed}/{backend}"


@pytest.mark.parametrize("seed", SEEDS)
def test_pacer_full_rate_is_fasttrack(seed):
    """PACER at r=1.0 (always sampling) reports exactly FASTTRACK races."""
    name, build = GENERATORS[seed % len(GENERATORS)]
    events = _trace_for(build, seed)
    ft = FastTrackDetector()
    ft.run_batch(list(events))
    pacer = PacerDetector(sampling=True)
    pacer.run_batch(list(events))
    assert race_sigs(pacer.races) == race_sigs(ft.races), f"{name}/seed{seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_fasttrack_batched_agrees_with_oracle(seed):
    """Batched FASTTRACK reports are sound vs the exact HB oracle."""
    name, build = GENERATORS[seed % len(GENERATORS)]
    events = _trace_for(build, seed)
    oracle = HBOracle(events)
    racy_vars = oracle.racy_variables()
    oracle_keys = {pair.distinct_key for pair in oracle.all_races()}
    ft = FastTrackDetector()
    ft.run_batch(list(events))
    assert {r.var for r in ft.races} <= racy_vars, f"{name}/seed{seed}"
    assert ft.distinct_races <= oracle_keys, f"{name}/seed{seed}"
    # every racy variable yields at least one FASTTRACK report: clearing
    # read maps on writes never erases the *first* race on a variable
    assert {r.var for r in ft.races} == racy_vars, f"{name}/seed{seed}"
