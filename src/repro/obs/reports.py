"""Structured race reports: versioned schema, merging, and rendering.

One report document (``repro/race-report/v1``) describes all races from
one run (or one merged matrix).  Dynamic race reports are grouped into
*distinct races* — the paper's "each pair of program references", keyed
by ``(first_site, second_site)`` — and each group carries occurrence
counts, first/last occurrence in virtual time, the participating
threads and variables, and (when a :class:`~repro.obs.provenance.SyncIndex`
or flight-recorder context is available) a happens-before witness for a
representative occurrence.

Two functions make every report.  :func:`build_report` turns one run's
race list into a document: offline, live and streamed runs pass the
detector's races, and matrix trials pass
:meth:`~repro.detectors.base.Race.from_sig` of their
``CoreStats.race_sigs``.  :func:`merge_reports` folds documents, in task
order for a matrix, exactly like the metrics merge.  Each keeps its own
rule for a group's representative occurrence, and both write group
entries through one emitter in one site-pair order.

Determinism contract: a report is a pure function of the detector's race
list plus the witness inputs.  Group order, list order, and JSON key
order are all fixed, so reports are byte-identical across state
backends, scalar vs batched dispatch, and ``--jobs`` values (the
``backend`` label is the one field that names the backend).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .provenance import SyncIndex, extract_witness

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "merge_reports",
    "validate_report",
    "render_report_table",
    "render_report_markdown",
    "write_report",
]

#: schema identifier; bump the suffix on any incompatible change
REPORT_SCHEMA = "repro/race-report/v1"

_RACE_KINDS = ("ww", "wr", "rw")

#: cap on per-group enumerations (variables, thread ids) to keep reports
#: bounded on pathological runs; totals are always exact
_GROUP_CAP = 16


def _site_key(site) -> Tuple:
    """Total order over mixed int/str sites (ints first, then strings)."""
    if isinstance(site, int):
        return (0, site, "")
    return (1, 0, str(site))


def _race_docs(groups: Dict[Tuple, Dict]) -> List[Dict]:
    """The report's group entries, ordered by site pair.

    Each accumulated group holds ``kinds``/``vars``/``first_tids``/
    ``second_tids`` sets, ``count``, ``n_vars`` (a lower bound on the
    distinct variables) and ``first_vt``/``last_vt``; its ``best`` dict
    supplies the representative's site names, witness and context.
    """
    docs: List[Dict] = []
    for key in sorted(groups, key=lambda k: (_site_key(k[0]), _site_key(k[1]))):
        g = groups[key]
        best = g["best"]
        docs.append(
            {
                "first_site": key[0],
                "second_site": key[1],
                "first_site_name": best.get("first_site_name"),
                "second_site_name": best.get("second_site_name"),
                "kinds": sorted(g["kinds"]),
                "count": g["count"],
                "vars": sorted(g["vars"])[:_GROUP_CAP],
                "n_vars": max(g["n_vars"], len(g["vars"])),
                "first_vt": g["first_vt"],
                "last_vt": g["last_vt"],
                "first_tids": sorted(g["first_tids"])[:_GROUP_CAP],
                "second_tids": sorted(g["second_tids"])[:_GROUP_CAP],
                "witness": best.get("witness"),
                "context": best.get("context"),
            }
        )
    return docs


def build_report(
    races: Sequence,
    *,
    source: str,
    detector: Optional[str] = None,
    backend: Optional[str] = None,
    rate: Optional[float] = None,
    events: int = 0,
    contexts: Optional[Sequence[Dict]] = None,
    sync: Optional[SyncIndex] = None,
    site_name: Optional[Callable[[object], str]] = None,
    discarded: Optional[List[Dict]] = None,
) -> Dict:
    """Build one report document from a detector's race list.

    ``contexts`` is the observer's ``race_contexts`` list (parallel to
    ``races``); ``sync`` enables witness extraction; ``site_name`` maps
    raw site ids to human-readable names.  All are optional — a report
    without them still groups, counts, and timestamps the races.
    """
    groups: Dict[Tuple, Dict] = {}
    representatives: Dict[Tuple, Tuple[Tuple, int]] = {}
    for pos, race in enumerate(races):
        key = (race.first_site, race.second_site)
        g = groups.get(key)
        if g is None:
            g = groups[key] = {
                "kinds": set(),
                "count": 0,
                "vars": set(),
                "n_vars": 0,
                "first_vt": race.index,
                "last_vt": race.index,
                "first_tids": set(),
                "second_tids": set(),
            }
        g["kinds"].add(race.kind)
        g["count"] += 1
        g["vars"].add(race.var)
        g["first_tids"].add(race.first_tid)
        g["second_tids"].add(race.second_tid)
        if race.index < g["first_vt"]:
            g["first_vt"] = race.index
        if race.index > g["last_vt"]:
            g["last_vt"] = race.index
        # representative occurrence: the earliest report (ties: earliest
        # first access, then list order) carries the witness and context
        rank = (race.index, race.first_index, pos)
        if key not in representatives or rank < representatives[key][0]:
            representatives[key] = (rank, pos)

    for key, (_, rep_pos) in representatives.items():
        context = None
        if contexts is not None and rep_pos < len(contexts):
            context = contexts[rep_pos] or None
        groups[key]["best"] = {
            "first_site_name": site_name(key[0]) if site_name else None,
            "second_site_name": site_name(key[1]) if site_name else None,
            "witness": (extract_witness(races[rep_pos], sync)
                        if sync is not None else None),
            "context": context,
        }
    race_docs = _race_docs(groups)

    report: Dict = {
        "schema": REPORT_SCHEMA,
        "source": source,
        "detector": detector,
        "backend": backend,
        "rate": rate,
        "events": events,
        "dynamic_races": len(races),
        "distinct_races": len(race_docs),
        "races": race_docs,
    }
    if discarded is not None:
        report["discarded"] = discarded
    return report


def _merge_label(values: List) -> Optional[str]:
    distinct = sorted({v for v in values if v is not None}, key=str)
    if not distinct:
        return None
    if len(distinct) == 1:
        return distinct[0]
    return "*"


def merge_reports(reports: Sequence[Dict], source: Optional[str] = None) -> Dict:
    """Fold per-trial reports into one document, deterministically.

    Counts sum, virtual-time bounds take min/max, enumerations union
    (re-capped), and each group's witness/context come from the report
    whose group occurred earliest (ties: input order) — so the result
    depends only on the input sequence, never on sharding.
    """
    if not reports:
        return build_report([], source=source or "merged")
    groups: Dict[Tuple, Dict] = {}
    for report in reports:
        for race in report["races"]:
            key = (race["first_site"], race["second_site"])
            g = groups.get(key)
            if g is None:
                g = groups[key] = {
                    "kinds": set(),
                    "count": 0,
                    "vars": set(),
                    "n_vars": 0,
                    "first_vt": race["first_vt"],
                    "last_vt": race["last_vt"],
                    "first_tids": set(),
                    "second_tids": set(),
                    "best": race,
                }
            g["kinds"].update(race["kinds"])
            g["count"] += race["count"]
            g["vars"].update(race["vars"])
            g["n_vars"] = max(g["n_vars"], race["n_vars"])
            g["first_tids"].update(race["first_tids"])
            g["second_tids"].update(race["second_tids"])
            if race["first_vt"] < g["first_vt"]:
                g["first_vt"] = race["first_vt"]
                g["best"] = race
            if race["last_vt"] > g["last_vt"]:
                g["last_vt"] = race["last_vt"]

    race_docs = _race_docs(groups)
    return {
        "schema": REPORT_SCHEMA,
        "source": source or _merge_label([r.get("source") for r in reports]) or "merged",
        "detector": _merge_label([r.get("detector") for r in reports]),
        "backend": _merge_label([r.get("backend") for r in reports]),
        "rate": _merge_label([r.get("rate") for r in reports]),
        "events": sum(r.get("events", 0) for r in reports),
        "dynamic_races": sum(r.get("dynamic_races", 0) for r in reports),
        "distinct_races": len(race_docs),
        "races": race_docs,
    }


# -- validation ---------------------------------------------------------------

_DOC_KEYS = (
    "schema", "source", "detector", "backend", "rate",
    "events", "dynamic_races", "distinct_races", "races",
)

_GROUP_KEYS = (
    "first_site", "second_site", "kinds", "count", "vars", "n_vars",
    "first_vt", "last_vt", "first_tids", "second_tids",
)

_WITNESS_VERDICTS = ("no-release", "sync-gap", "ordering-edge")


def validate_report(doc) -> List[str]:
    """Structural validation of one report document.

    Returns human-readable problems (empty list = valid).  The test
    suite and the CI ``repro explain`` smoke step run every emitted
    report through this.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"report must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema must be {REPORT_SCHEMA!r}, got {doc.get('schema')!r}")
    for key in _DOC_KEYS:
        if key not in doc:
            problems.append(f"missing document key {key!r}")
    races = doc.get("races")
    if not isinstance(races, list):
        return problems + ["'races' must be a list"]
    for name in ("events", "dynamic_races", "distinct_races"):
        value = doc.get(name)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{name}={value!r} must be an int >= 0")
    if isinstance(doc.get("distinct_races"), int) and doc["distinct_races"] != len(races):
        problems.append(
            f"distinct_races={doc['distinct_races']} != {len(races)} race groups"
        )
    total = 0
    for i, race in enumerate(races):
        where = f"races[{i}]"
        if not isinstance(race, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in _GROUP_KEYS:
            if key not in race:
                problems.append(f"{where}: missing {key!r}")
        for key in ("first_site", "second_site"):
            if key in race and not isinstance(race[key], (int, str)):
                problems.append(f"{where}: {key} must be an int or string")
        count = race.get("count")
        if not isinstance(count, int) or count <= 0:
            problems.append(f"{where}: count={count!r} must be an int > 0")
        else:
            total += count
        kinds = race.get("kinds")
        if not isinstance(kinds, list) or not kinds or any(
            k not in _RACE_KINDS for k in kinds
        ):
            problems.append(f"{where}: kinds={kinds!r} must be a non-empty "
                            f"subset of {_RACE_KINDS}")
        for key in ("first_vt", "last_vt"):
            if key in race and not isinstance(race[key], int):
                problems.append(f"{where}: {key} must be an int")
        witness = race.get("witness")
        if witness is not None:
            if not isinstance(witness, dict):
                problems.append(f"{where}: witness must be an object or null")
            elif witness.get("verdict") not in _WITNESS_VERDICTS:
                problems.append(
                    f"{where}: witness verdict {witness.get('verdict')!r} "
                    f"not in {_WITNESS_VERDICTS}"
                )
            elif not isinstance(witness.get("summary"), str):
                problems.append(f"{where}: witness summary must be a string")
    if isinstance(doc.get("dynamic_races"), int) and total != doc["dynamic_races"]:
        problems.append(
            f"group counts sum to {total}, dynamic_races={doc['dynamic_races']}"
        )
    return problems


# -- rendering ----------------------------------------------------------------


def _site_display(race: Dict, which: str) -> str:
    name = race.get(f"{which}_site_name")
    return name if name else str(race[f"{which}_site"])


def render_report_table(doc: Dict, limit: int = 20) -> str:
    """The report as the CLI's ASCII table (one row per distinct race)."""
    # imported here: repro.analysis pulls in the detectors/sim stack, and
    # repro.analysis.parallel imports this module for matrix reports
    from ..analysis.tables import render_table

    header = (
        f"{doc.get('detector') or 'detector'}: {doc['dynamic_races']} dynamic "
        f"race reports, {doc['distinct_races']} distinct site pairs"
    )
    races = doc["races"]
    if not races:
        return header + "\n(no races reported)"
    rows = []
    for race in races[:limit]:
        witness = race.get("witness")
        rows.append(
            [
                _site_display(race, "first"),
                _site_display(race, "second"),
                "+".join(race["kinds"]),
                race["count"],
                race["first_vt"],
                race["last_vt"],
                witness["verdict"] if witness else "-",
            ]
        )
    text = header + "\n" + render_table(
        ["first site", "second site", "kinds", "count", "first vt",
         "last vt", "witness"],
        rows,
    )
    if len(races) > limit:
        text += f"\n... and {len(races) - limit} more distinct races"
    return text


def _context_lines(side: Optional[Dict], label: str) -> List[str]:
    if not side:
        return []
    mark = "" if side.get("complete") else " (window truncated)"
    lines = [f"  {label} context — t{side['tid']}{mark}:"]
    for ev in side.get("events", []):
        lines.append(
            f"    vt {ev['vt']:>6}  {ev['kind']:<7} target={ev['target']} "
            f"site={ev['site']}"
        )
    return lines


def render_report_markdown(doc: Dict, limit: int = 20) -> str:
    """The report as a Markdown document (for PRs and issue trackers)."""
    lines = [
        f"# Race report — {doc.get('detector') or 'detector'} "
        f"({doc.get('source')})",
        "",
        f"- schema: `{doc['schema']}`",
        f"- backend: {doc.get('backend') or '-'}; "
        f"rate: {doc.get('rate') if doc.get('rate') is not None else '-'}",
        f"- events analyzed: {doc['events']}",
        f"- dynamic race reports: {doc['dynamic_races']}; "
        f"distinct site pairs: {doc['distinct_races']}",
        "",
    ]
    for n, race in enumerate(doc["races"][:limit], start=1):
        first = _site_display(race, "first")
        second = _site_display(race, "second")
        lines.append(f"## Race {n}: `{first}` × `{second}`")
        lines.append("")
        lines.append(
            f"- kinds {'+'.join(race['kinds'])}; {race['count']} occurrence(s) "
            f"over vt [{race['first_vt']}, {race['last_vt']}]"
        )
        lines.append(
            f"- threads: first {race['first_tids']}, second {race['second_tids']}; "
            f"{race['n_vars']} variable(s): {race['vars']}"
        )
        witness = race.get("witness")
        if witness:
            lines.append(f"- witness ({witness['source']}): **{witness['verdict']}** "
                         f"— {witness['summary']}")
            sampling = witness.get("sampling")
            if sampling:
                lines.append(
                    f"- sampling: first access in period "
                    f"{sampling['first_period']}, second in "
                    f"{sampling['second_period']} of {sampling['n_periods']}"
                )
        context = race.get("context")
        if context:
            lines.append("")
            lines.append("```")
            lines.extend(_context_lines(context.get("first"), "first"))
            lines.extend(_context_lines(context.get("second"), "second"))
            lines.append("```")
        lines.append("")
    discarded = doc.get("discarded")
    if discarded:
        lines.append("## Discarded shortest races (sampling attribution)")
        lines.append("")
        for entry in discarded:
            lines.append(
                f"- [{entry['kind']}] var {entry['var']} "
                f"vt {entry['first_vt']} vs {entry['second_vt']}: "
                f"{entry['reason']}"
            )
        lines.append("")
    return "\n".join(lines)


def write_report(path, doc: Dict) -> None:
    """Write one report as deterministic JSON (sorted keys, newline-terminated)."""
    problems = validate_report(doc)
    if problems:  # pragma: no cover - defensive; tests pin validity
        raise ValueError(f"invalid race report: {problems[:3]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
