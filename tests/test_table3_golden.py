"""Golden Table 3 numbers: absolute counts pinned on four marked traces.

The differential suite compares the object backend, the packed backend,
scalar and batched dispatch, and the HB oracle with one another.  All of
them share :class:`~repro.core.clocks.VectorClock` and PACER's
synchronization handlers, so a change to a clock primitive or to a
Table 7 join rule moves every side at once and the differential suite
cannot see it.  This file pins what those parts produce in absolute
numbers: the Table 3 operation counters (including ``clones`` and
``words_allocated``), the Figure 10 footprint, the widest live clock and
the race signatures.

Inputs are ``repro.bench.marked_trace(name, 0.03, trial_seed=0,
size=0.1)``.  hsqldb there is 90,126 events with 4,031 non-sampling slow
joins over clocks up to 403 entries wide, so Rules 5 and 6 run many
thousands of times.  The values were recorded with the two-walk
``leq``/``join`` implementation that ``test_clock_primitives.py`` keeps
as its reference, and they hold on both state backends.
"""

import hashlib

import pytest

from repro import FastTrackDetector, PacerDetector
from repro.bench import marked_trace

RATE = 0.03
SIZE = 0.1

#: name -> (events, {detector: (nonzero counters, footprint words,
#: max clock entries, races, sha256 of repr(sorted race sigs))})
GOLDEN = {
    "eclipse": (8690, {
        "pacer": (
            {"clones": 38, "copies_deep_sampling": 17,
             "copies_shallow_nonsampling": 128, "increments": 24,
             "joins_fast_nonsampling": 50, "joins_fast_sampling": 14,
             "joins_slow_nonsampling": 113, "joins_slow_sampling": 12,
             "reads_fast_nonsampling": 4539, "reads_slow_nonsampling": 514,
             "reads_slow_sampling": 252, "words_allocated": 1986,
             "writes_fast_nonsampling": 2407, "writes_slow_nonsampling": 235,
             "writes_slow_sampling": 84},
            811, 16, 0,
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        ),
        "fasttrack": (
            {"copies_deep_sampling": 159, "increments": 190,
             "joins_slow_sampling": 174, "reads_slow_sampling": 5305,
             "words_allocated": 14766, "writes_slow_sampling": 2726},
            8325, 16, 47,
            "4152098fa52f8340ba6bb797720d2dbeaf5eaaf34093171eb56ab665f9a23009",
        ),
    }),
    "hsqldb": (90126, {
        "pacer": (
            {"clones": 2950, "copies_deep_sampling": 101,
             "copies_shallow_nonsampling": 3152, "increments": 1640,
             "joins_fast_nonsampling": 272, "joins_fast_sampling": 23,
             "joins_slow_nonsampling": 4031, "joins_slow_sampling": 128,
             "reads_fast_nonsampling": 49081, "reads_slow_nonsampling": 1418,
             "reads_slow_sampling": 1622, "words_allocated": 734387,
             "writes_fast_nonsampling": 20893, "writes_slow_nonsampling": 631,
             "writes_slow_sampling": 693},
            207677, 403, 4,
            "6b968836e666dfceadc4889ec9caf1ceda8e237c011d27532fcff5b5735938cd",
        ),
        "fasttrack": (
            {"copies_deep_sampling": 3650, "increments": 4459,
             "joins_slow_sampling": 4052, "reads_slow_sampling": 52121,
             "words_allocated": 1040952, "writes_slow_sampling": 22217},
            248855, 403, 102,
            "cb4a790b41843ad5e447b49b34a0b250b1fe2c2e59a3f34cfcd80354541af2fd",
        ),
    }),
    "xalan": (4948, {
        "pacer": (
            {"clones": 27, "copies_deep_sampling": 13,
             "copies_shallow_nonsampling": 70, "increments": 21,
             "joins_fast_nonsampling": 17, "joins_fast_sampling": 10,
             "joins_slow_nonsampling": 66, "joins_slow_sampling": 11,
             "reads_fast_nonsampling": 2163, "reads_slow_nonsampling": 813,
             "reads_slow_sampling": 253, "words_allocated": 1772,
             "writes_fast_nonsampling": 914, "writes_slow_nonsampling": 327,
             "writes_slow_sampling": 100},
            783, 9, 0,
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        ),
        "fasttrack": (
            {"copies_deep_sampling": 88, "increments": 107,
             "joins_slow_sampling": 96, "reads_slow_sampling": 3229,
             "words_allocated": 7960, "writes_slow_sampling": 1341},
            4653, 9, 1,
            "ccb1a559ae0b2029898e89f46a23e0e61ca58bcf738031ef90192bdc160e91e8",
        ),
    }),
    "pseudojbb": (19888, {
        "pacer": (
            {"clones": 167, "copies_deep_sampling": 21,
             "copies_shallow_nonsampling": 312, "increments": 54,
             "joins_fast_nonsampling": 97, "joins_fast_sampling": 11,
             "joins_slow_nonsampling": 310, "joins_slow_sampling": 18,
             "reads_fast_nonsampling": 11068, "reads_slow_nonsampling": 1158,
             "reads_slow_sampling": 507, "words_allocated": 6787,
             "writes_fast_nonsampling": 4862, "writes_slow_nonsampling": 547,
             "writes_slow_sampling": 218},
            3278, 37, 0,
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        ),
        "fasttrack": (
            {"copies_deep_sampling": 364, "increments": 441,
             "joins_slow_sampling": 400, "reads_slow_sampling": 12733,
             "words_allocated": 37735, "writes_slow_sampling": 5627},
            19113, 37, 52,
            "2b86d3514f20d63bcd862587283758371d6f514b9dbfea50ccaeeb862ebb4990",
        ),
    }),
}

DETECTORS = {"pacer": PacerDetector, "fasttrack": FastTrackDetector}


@pytest.fixture(scope="module")
def traces():
    return {name: marked_trace(name, RATE, trial_seed=0, size=SIZE)
            for name in GOLDEN}


def observed(det):
    """What a finished run is pinned on, in :data:`GOLDEN`'s layout."""
    sigs = sorted(race.sig for race in det.races)
    return (
        {k: v for k, v in det.counters.snapshot().items() if v},
        det.footprint_words(),
        det.max_clock_entries(),
        len(sigs),
        hashlib.sha256(repr(sigs).encode("ascii")).hexdigest(),
    )


@pytest.mark.parametrize("mode", ["run", "run_batch"])
@pytest.mark.parametrize("detector", sorted(DETECTORS))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_table3_golden(traces, name, detector, mode):
    n_events, by_detector = GOLDEN[name]
    events = traces[name]
    assert len(events) == n_events
    det = DETECTORS[detector]()
    getattr(det, mode)(events)
    assert observed(det) == by_detector[detector]
