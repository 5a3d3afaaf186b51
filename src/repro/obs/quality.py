"""Detection-quality accounting: proportionality audits and coverage.

PACER's headline guarantee is statistical — every dynamic race is
detected with probability equal to the sampling rate — but a guarantee
you cannot *observe* is a guarantee you cannot operate on.  This module
turns the proportionality claim into a continuously observable,
versioned artifact, the ``repro/coverage-report/v1`` document:

* the sync-op-weighted **effective sampling rate** — the same work
  measure :class:`~repro.core.sampling.BiasCorrectedController`
  corrects for — computed from the detector's Table 3
  :class:`~repro.core.stats.OpCounters` period splits (an O(n) join or
  a clock copy is the unit of detection work, not a wall second);
* a Wilson 95% interval on that rate, reused verbatim from
  :mod:`repro.analysis.statistics` so offline experiments and live
  telemetry agree on what "consistent with proportional" means;
* **sampling-period attribution** of every reported race's first
  access (the paper's §3.3 rule: a race is reportable iff its first
  access was sampled), from the same ``sbegin``/``send`` marks the
  provenance layer records;
* an **extrapolated true-race estimate** — ``observed / r`` with an
  interval from the rate CI — quantifying what the configured rate is
  expected to miss, and the **coverage deficit** between the nominal
  and delivered rates.

Every tier — the CLI, the telemetry shard, the live monitor and each
matrix trial — builds its document with :func:`build_coverage`, and
:func:`merge_coverage` folds documents; the sampling periods come from
:func:`~repro.obs.provenance.mark_periods`, the walk witnesses use.

Determinism contract: a coverage document is a pure function of the
detector's counters, sampling marks, and race list.  Unlike
``repro/race-report/v1`` it carries **no backend label at all**, so
documents are byte-identical across the object and packed state
backends, scalar vs batched dispatch, ``--jobs`` values, and
streamed-vs-offline runs (pinned by ``tests/test_quality.py``).

The matrix variant (:func:`repro.analysis.parallel.matrix_coverage`)
additionally folds per-trial documents into rate-vs-detection *curve*
rows and — when the matrix carries an always-on baseline detector —
*audit* rows that check each PACER configuration's dynamic detection
ratio (dynamic races observed over the baseline's ``k * trials``
detection opportunities) against its effective rate with a Wilson
interval: the paper's Figure 3 proportionality experiment, recomputed
live from any campaign.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .provenance import mark_periods, period_of
from .reports import _merge_label

__all__ = [
    "COVERAGE_SCHEMA",
    "sync_op_split",
    "effective_rate_ci",
    "build_coverage",
    "merge_coverage",
    "validate_coverage",
    "render_coverage",
    "write_coverage",
]

#: schema identifier; bump the suffix on any incompatible change
COVERAGE_SCHEMA = "repro/coverage-report/v1"

#: the sync-operation classes whose ``*_sampling``/``*_nonsampling``
#: counter splits define the effective rate (the Table 1 work measure:
#: how much of the synchronization-driven analysis ran at full power)
_SYNC_OP_CLASSES = (
    "joins_slow",
    "joins_fast",
    "copies_deep",
    "copies_shallow",
)

#: float fields are rounded to this many digits before they enter the
#: document: full-precision IEEE quotients are deterministic, but short
#: decimals keep the JSON readable and diff-friendly
_FLOAT_DIGITS = 9


def _rounded(value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    return round(value, _FLOAT_DIGITS)


def sync_op_split(counters: Dict[str, int]) -> Tuple[int, int]:
    """``(sampled, total)`` sync operations from an OpCounters snapshot.

    Accepts the plain dict form (:meth:`OpCounters.snapshot`, or the
    summed ``CoreStats.counters``).  Always-on detectors count all
    their work into the ``*_sampling`` splits, so they report an
    effective rate of 1.0 — which is exactly right.
    """
    sampled = sum(counters.get(f"{op}_sampling", 0) for op in _SYNC_OP_CLASSES)
    total = sampled + sum(
        counters.get(f"{op}_nonsampling", 0) for op in _SYNC_OP_CLASSES
    )
    return sampled, total


def effective_rate_ci(
    sampled: int, total: int
) -> Tuple[float, Optional[List[float]]]:
    """Effective rate plus its Wilson 95% interval (None when no work)."""
    # imported here: repro.analysis pulls in the detectors/sim stack,
    # and repro.analysis.parallel imports this module for matrix coverage
    from ..analysis.statistics import wilson_interval

    if total <= 0:
        return 0.0, None
    lo, hi = wilson_interval(sampled, total)
    return sampled / total, [_rounded(lo), _rounded(hi)]


def _period_stats(periods: Sequence[Tuple[int, Optional[int]]]) -> Dict:
    """Sampling-period counts from :func:`mark_periods`' periods."""
    open_periods = sum(1 for _, end in periods if end is None)
    return {
        "count": len(periods),
        "closed": len(periods) - open_periods,
        "open": open_periods,
    }


def _attribute_races(
    races: Sequence, periods: Sequence[Tuple[int, Optional[int]]]
) -> Tuple[int, int]:
    """(first accesses inside a sampling period, outside)."""
    inside = 0
    for race in races:
        if period_of(periods, race.first_index) is not None:
            inside += 1
    return inside, len(races) - inside


def _estimate(
    dynamic: int,
    effective_rate: float,
    rate_ci: Optional[List[float]],
    nominal_rate: Optional[float],
) -> Dict:
    """The extrapolation block: expected detection, true-race estimate,
    and the nominal-vs-delivered coverage deficit."""
    true_dynamic: Optional[float] = None
    true_ci: Optional[List[Optional[float]]] = None
    if effective_rate > 0:
        true_dynamic = _rounded(dynamic / effective_rate)
        if rate_ci is not None:
            lo, hi = rate_ci
            true_ci = [
                _rounded(dynamic / hi) if hi else None,
                _rounded(dynamic / lo) if lo else None,
            ]
    deficit = 0.0
    if nominal_rate is not None:
        deficit = max(0.0, nominal_rate - effective_rate)
    return {
        "expected_detection": _rounded(effective_rate),
        "true_dynamic": true_dynamic,
        "true_dynamic_ci95": true_ci,
        "coverage_deficit": _rounded(deficit),
    }


def build_coverage(
    *,
    source: str,
    detector: Optional[str] = None,
    workload: Optional[str] = None,
    nominal_rate: Optional[float] = None,
    counters: Optional[Dict[str, int]] = None,
    marks: Sequence[Tuple[int, bool]] = (),
    races: Sequence = (),
    events: int = 0,
    trials: int = 1,
) -> Dict:
    """Build one coverage document from a single run's evidence.

    ``counters`` is an :meth:`OpCounters.snapshot` dict (the period
    splits drive the effective rate); ``marks`` the deduplicated
    ``(vt, entering)`` sampling transitions (observer, flight recorder,
    or streaming sync-index builder — all three record the same list);
    ``races`` the detector's race list (only ``first_index`` is read).
    ``nominal_rate`` is the *configured* sampling rate as a fraction in
    [0, 1], or None when the run has no dial (always-on detectors,
    trace replay with baked-in marks).
    """
    sampled, total = sync_op_split(counters or {})
    rate, rate_ci = effective_rate_ci(sampled, total)
    periods = mark_periods(marks)
    # no marks, nothing to attribute against: null, not zero
    inside, outside = _attribute_races(races, periods) if marks else (None, None)
    return {
        "schema": COVERAGE_SCHEMA,
        "source": source,
        "detector": detector,
        "workload": workload,
        "nominal_rate": _rounded(nominal_rate),
        "trials": trials,
        "events": events,
        "sync": {
            "sampled": sampled,
            "total": total,
            "effective_rate": _rounded(rate),
            "ci95": rate_ci,
        },
        "periods": _period_stats(periods),
        "races": {
            "dynamic": len(races),
            "first_in_period": inside,
            "unattributed": outside,
        },
        "estimate": _estimate(len(races), rate, rate_ci, nominal_rate),
    }


# -- merging ------------------------------------------------------------------


def _merge_number(values: List) -> Optional[float]:
    distinct = {v for v in values if v is not None}
    if len(distinct) == 1:
        return distinct.pop()
    return None


def _sum_or_none(values: List) -> Optional[int]:
    total = 0
    for v in values:
        if v is None:
            return None
        total += v
    return total


def merge_coverage(
    docs: Sequence[Dict],
    source: Optional[str] = None,
) -> Dict:
    """Fold per-run coverage documents into one, deterministically.

    Work counts sum and the rate, interval, and estimate are recomputed
    from the sums (a sync-op-weighted pool, not an average of averages),
    so the merge is associative and independent of sharding — the same
    contract as the metrics registry.  Labels collapse to the common
    value or ``"*"``; a mixed nominal rate collapses to null.
    Attribution counts sum when every input carries them, else null.
    """
    if not docs:
        return build_coverage(source=source or "merged", trials=0)
    sampled = sum(d["sync"]["sampled"] for d in docs)
    total = sum(d["sync"]["total"] for d in docs)
    rate, rate_ci = effective_rate_ci(sampled, total)
    dynamic = sum(d["races"]["dynamic"] for d in docs)
    nominal = _merge_number([d.get("nominal_rate") for d in docs])
    merged: Dict = {
        "schema": COVERAGE_SCHEMA,
        "source": source or _merge_label([d.get("source") for d in docs])
        or "merged",
        "detector": _merge_label([d.get("detector") for d in docs]),
        "workload": _merge_label([d.get("workload") for d in docs]),
        "nominal_rate": _rounded(nominal),
        "trials": sum(d.get("trials", 1) for d in docs),
        "events": sum(d.get("events", 0) for d in docs),
        "sync": {
            "sampled": sampled,
            "total": total,
            "effective_rate": _rounded(rate),
            "ci95": rate_ci,
        },
        "periods": {
            key: sum(d["periods"][key] for d in docs)
            for key in ("count", "closed", "open")
        },
        "races": {
            "dynamic": dynamic,
            "first_in_period": _sum_or_none(
                [d["races"]["first_in_period"] for d in docs]
            ),
            "unattributed": _sum_or_none(
                [d["races"]["unattributed"] for d in docs]
            ),
        },
        "estimate": _estimate(dynamic, rate, rate_ci, nominal),
    }
    return merged


# -- validation ---------------------------------------------------------------

_DOC_KEYS = (
    "schema", "source", "detector", "workload", "nominal_rate",
    "trials", "events", "sync", "periods", "races", "estimate",
)

_SYNC_KEYS = ("sampled", "total", "effective_rate", "ci95")
_PERIOD_KEYS = ("count", "closed", "open")
_RACE_KEYS = ("dynamic", "first_in_period", "unattributed")
_ESTIMATE_KEYS = (
    "expected_detection", "true_dynamic", "true_dynamic_ci95",
    "coverage_deficit",
)

_CURVE_KEYS = (
    "workload", "detector", "rate", "trials", "events",
    "dynamic_races", "sync_sampled", "sync_total", "effective_rate",
)

_AUDIT_KEYS = (
    "workload", "detector", "rate", "baseline", "detected", "trials",
    "baseline_races", "occurrences_per_trial", "expected_occurrences",
    "observed_fraction", "effective_rate", "ci95", "consistent",
)


def validate_coverage(doc) -> List[str]:
    """Structural validation of one coverage document.

    Returns human-readable problems (empty list = valid); every write
    path and the CI coverage smoke step run emitted documents through
    this.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"coverage must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != COVERAGE_SCHEMA:
        problems.append(
            f"schema must be {COVERAGE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    for key in _DOC_KEYS:
        if key not in doc:
            problems.append(f"missing document key {key!r}")
    for name in ("trials", "events"):
        value = doc.get(name)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{name}={value!r} must be an int >= 0")
    sync = doc.get("sync")
    if not isinstance(sync, dict):
        problems.append("'sync' must be an object")
    else:
        for key in _SYNC_KEYS:
            if key not in sync:
                problems.append(f"sync: missing {key!r}")
        sampled, total = sync.get("sampled"), sync.get("total")
        if isinstance(sampled, int) and isinstance(total, int):
            if sampled < 0 or total < 0 or sampled > total:
                problems.append(
                    f"sync: need 0 <= sampled <= total, got {sampled}/{total}"
                )
        rate = sync.get("effective_rate")
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            problems.append(f"sync: effective_rate={rate!r} not in [0, 1]")
        ci = sync.get("ci95")
        if ci is not None and (
            not isinstance(ci, list) or len(ci) != 2
            or any(not isinstance(v, (int, float)) for v in ci)
            or ci[0] > ci[1]
        ):
            problems.append(f"sync: ci95={ci!r} must be null or [lo, hi]")
    periods = doc.get("periods")
    if not isinstance(periods, dict):
        problems.append("'periods' must be an object")
    else:
        for key in _PERIOD_KEYS:
            value = periods.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"periods: {key}={value!r} must be an int >= 0")
    races = doc.get("races")
    if not isinstance(races, dict):
        problems.append("'races' must be an object")
    else:
        for key in _RACE_KEYS:
            if key not in races:
                problems.append(f"races: missing {key!r}")
        dynamic = races.get("dynamic")
        if not isinstance(dynamic, int) or dynamic < 0:
            problems.append(f"races: dynamic={dynamic!r} must be an int >= 0")
        inside, outside = races.get("first_in_period"), races.get("unattributed")
        if (inside is None) != (outside is None):
            problems.append("races: attribution fields must be both null "
                            "or both counts")
        elif inside is not None and isinstance(dynamic, int):
            if inside + outside != dynamic:
                problems.append(
                    f"races: {inside} in-period + {outside} unattributed "
                    f"!= {dynamic} dynamic"
                )
    estimate = doc.get("estimate")
    if not isinstance(estimate, dict):
        problems.append("'estimate' must be an object")
    else:
        for key in _ESTIMATE_KEYS:
            if key not in estimate:
                problems.append(f"estimate: missing {key!r}")
        deficit = estimate.get("coverage_deficit")
        if not isinstance(deficit, (int, float)) or deficit < 0:
            problems.append(
                f"estimate: coverage_deficit={deficit!r} must be >= 0"
            )
    for section, keys in (("curve", _CURVE_KEYS), ("audit", _AUDIT_KEYS)):
        rows = doc.get(section)
        if rows is None:
            continue
        if not isinstance(rows, list):
            problems.append(f"'{section}' must be a list when present")
            continue
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                problems.append(f"{section}[{i}]: not an object")
                continue
            for key in keys:
                if key not in row:
                    problems.append(f"{section}[{i}]: missing {key!r}")
    return problems


# -- rendering ----------------------------------------------------------------


def _fmt_rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 100:.3f}%"


def render_coverage(doc: Dict) -> str:
    """The coverage document as the CLI's human-readable summary."""
    # imported here: repro.analysis pulls in the detectors/sim stack
    from ..analysis.tables import render_table

    sync = doc["sync"]
    races = doc["races"]
    est = doc["estimate"]
    lines = [
        f"{doc.get('detector') or 'detector'} detection quality "
        f"({doc.get('source')}, {doc['trials']} trial(s))"
    ]
    ci = sync.get("ci95")
    ci_text = (
        f" (95% CI {_fmt_rate(ci[0])}..{_fmt_rate(ci[1])})" if ci else ""
    )
    lines.append(
        f"  effective sampling rate: {_fmt_rate(sync['effective_rate'])}"
        f"{ci_text} — {sync['sampled']:,}/{sync['total']:,} sync ops, "
        f"{doc['periods']['count']} sampling period(s)"
    )
    if doc.get("nominal_rate") is not None:
        lines.append(
            f"  nominal rate: {_fmt_rate(doc['nominal_rate'])}; coverage "
            f"deficit: {_fmt_rate(est['coverage_deficit'])}"
        )
    attribution = ""
    if races["first_in_period"] is not None:
        attribution = (
            f" ({races['first_in_period']} first-access-in-period, "
            f"{races['unattributed']} unattributed)"
        )
    lines.append(
        f"  races observed: {races['dynamic']} dynamic over "
        f"{doc['events']:,} events{attribution}"
    )
    if est["true_dynamic"] is not None:
        ci95 = est["true_dynamic_ci95"]
        span = ""
        if ci95 and ci95[0] is not None and ci95[1] is not None:
            span = f" (95% CI {ci95[0]:.1f}..{ci95[1]:.1f})"
        lines.append(
            f"  estimated true dynamic races: {est['true_dynamic']:.1f}"
            f"{span} at expected detection "
            f"{_fmt_rate(est['expected_detection'])}"
        )
    curve = doc.get("curve")
    if curve:
        lines.append("")
        lines.append("rate-vs-detection curve:")
        lines.append(
            render_table(
                ["workload", "detector", "rate", "trials", "races",
                 "effective rate"],
                [
                    [row["workload"], row["detector"],
                     "-" if row["rate"] is None else row["rate"],
                     row["trials"], row["dynamic_races"],
                     _fmt_rate(row["effective_rate"])]
                    for row in curve
                ],
            )
        )
    audit = doc.get("audit")
    if audit:
        lines.append("")
        lines.append("proportionality audit (vs always-on baseline):")
        rows = []
        for row in audit:
            verdict = "?" if row["consistent"] is None else (
                "OK" if row["consistent"] else "FAIL"
            )
            ci95 = row["ci95"]
            rows.append(
                [row["workload"], row["detector"],
                 "-" if row["rate"] is None else row["rate"],
                 f"{row['detected']}/{row['expected_occurrences']}",
                 _fmt_rate(row["observed_fraction"]),
                 _fmt_rate(row["effective_rate"]),
                 "-" if ci95 is None
                 else f"{_fmt_rate(ci95[0])}..{_fmt_rate(ci95[1])}",
                 verdict]
            )
        lines.append(
            render_table(
                ["workload", "detector", "rate", "detected", "observed",
                 "effective", "95% CI", "verdict"],
                rows,
            )
        )
    return "\n".join(lines)


def write_coverage(path, doc: Dict) -> None:
    """Write one coverage document as deterministic JSON."""
    problems = validate_coverage(doc)
    if problems:  # pragma: no cover - defensive; tests pin validity
        raise ValueError(f"invalid coverage report: {problems[:3]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
