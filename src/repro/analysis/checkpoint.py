"""Checkpoint journal: crash-safe progress for long matrix campaigns.

A full evaluation matrix is hours of CPU; losing it to a power cut (or
an OOM-killed driver) at trial 4990/5000 is not acceptable for a §5
re-run.  ``repro matrix --checkpoint PATH`` therefore journals every
completed trial, and ``--resume`` replays the journal and runs only the
remainder — with the guarantee that the resumed run's merged metrics and
race report are *byte-identical* to an uninterrupted run, which the
deterministic-resume regression pins across both state backends.

Journal format (JSONL, one object per line):

* line 1 — header::

      {"schema": "repro/matrix-checkpoint/v1",
       "fingerprint": "<sha256 of the canonical task list>",
       "tasks": N, "crc": <crc32>}

* each further line — one completed trial::

      {"index": i, "stats": {<CoreStats as JSON>}, "crc": <crc32>}

Every record carries a CRC32 computed over its own canonical JSON text
(sorted keys, compact separators, ``crc`` key removed), so a torn write,
a bit flip, or a hand-edited line is detected per record:
:meth:`CheckpointJournal.resume` accepts a journal whose *final* record
is damaged (the torn tail of an interrupted append — that trial simply
reruns) but rejects corruption anywhere earlier, which can only mean the
file was tampered with or the disk is lying.

Writes go through atomic write-temp-rename (``os.replace``), so readers
— including a resuming run racing a crashed one's leftovers — only ever
observe a complete, well-formed journal.  The fingerprint binds a
journal to the exact task matrix that produced it: resuming with
different workloads/detectors/rates/seeds/scale/backend raises
:class:`CheckpointMismatch` instead of silently mixing experiments.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..core.stats import CoreStats, PerfCounters
from .parallel import TrialTask

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointJournal",
    "matrix_fingerprint",
    "stats_to_doc",
    "stats_from_doc",
]

CHECKPOINT_SCHEMA = "repro/matrix-checkpoint/v1"


class CheckpointError(ValueError):
    """A journal that is structurally unusable (corrupt, wrong schema)."""


class CheckpointMismatch(CheckpointError):
    """A journal written for a different task matrix than the one resuming."""


def matrix_fingerprint(tasks: Sequence[TrialTask]) -> str:
    """SHA-256 over the canonical text of the full task list.

    Covers every field of every task — including ``backend``, which is
    deliberately *excluded* from per-trial seeding: two backends produce
    identical results, but a journal must still only resume the exact
    campaign that wrote it.
    """
    import hashlib

    lines = [
        f"{t.workload}|{t.detector}|"
        f"{'none' if t.rate is None else format(t.rate, '.9f')}|"
        f"{t.seed}|{t.scale:.9f}|{t.backend or ''}"
        for t in tasks
    ]
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


# -- CoreStats <-> JSON --------------------------------------------------------

def _sig_to_list(sig) -> list:
    return [list(part) if isinstance(part, (tuple, list)) else part for part in sig]


def _sig_from_list(doc) -> tuple:
    return tuple(tuple(part) if isinstance(part, list) else part for part in doc)


def stats_to_doc(stats: CoreStats) -> Dict[str, object]:
    """Serialize one :class:`CoreStats` to a JSON-ready dict."""
    return {
        "workload": stats.workload,
        "detector": stats.detector,
        "rate": stats.rate,
        "seed": stats.seed,
        "events": stats.events,
        "races": stats.races,
        "race_sigs": [_sig_to_list(sig) for sig in stats.race_sigs],
        "distinct_keys": [_sig_to_list(key) for key in stats.distinct_keys],
        "effective_rate": stats.effective_rate,
        "counters": dict(stats.counters),
        "perf": asdict(stats.perf),
        "metrics": dict(stats.metrics),
    }


def stats_from_doc(doc: Dict[str, object]) -> CoreStats:
    """Rebuild a :class:`CoreStats` from :func:`stats_to_doc` output.

    Round-trips exactly: tuples are restored from JSON lists, so the
    result compares equal to the original (equality already excludes
    wall-clock perf by design).
    """
    perf_doc = doc.get("perf") or {}
    return CoreStats(
        workload=doc["workload"],
        detector=doc["detector"],
        rate=doc["rate"],
        seed=doc["seed"],
        events=doc["events"],
        races=doc["races"],
        race_sigs=tuple(_sig_from_list(sig) for sig in doc["race_sigs"]),
        distinct_keys=tuple(_sig_from_list(key) for key in doc["distinct_keys"]),
        effective_rate=doc["effective_rate"],
        counters=dict(doc["counters"]),
        perf=PerfCounters(**{
            f.name: perf_doc.get(f.name, 0) for f in fields(PerfCounters)
        }),
        metrics=dict(doc.get("metrics") or {}),
    )


# -- record framing ------------------------------------------------------------

def _canonical(record: Dict[str, object]) -> str:
    body = {k: v for k, v in record.items() if k != "crc"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _seal(record: Dict[str, object]) -> str:
    """Attach the record CRC and render the journal line."""
    text = _canonical(record)
    record = dict(record)
    record["crc"] = zlib.crc32(text.encode("utf-8"))
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _open_record(line: str, lineno: int) -> Dict[str, object]:
    """Parse and CRC-verify one journal line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"journal line {lineno} is not JSON: {exc}") from None
    if not isinstance(record, dict) or "crc" not in record:
        raise CheckpointError(f"journal line {lineno} has no crc field")
    expected = zlib.crc32(_canonical(record).encode("utf-8"))
    if record["crc"] != expected:
        raise CheckpointError(
            f"journal line {lineno} fails its CRC "
            f"(stored {record['crc']}, computed {expected})"
        )
    return record


class CheckpointJournal:
    """An append-only journal of completed (task index, CoreStats) pairs.

    Create one with :meth:`create` (new campaign) or :meth:`resume`
    (continue an interrupted one); feed every completed trial to
    :meth:`record`.  Each append rewrites the journal to a temp file and
    atomically renames it over the old one, so the on-disk state is
    always a complete prefix of the campaign.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fingerprint: str,
        total: int,
        completed: Optional[Dict[int, CoreStats]] = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.total = total
        self.completed: Dict[int, CoreStats] = dict(completed or {})
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": fingerprint,
            "tasks": total,
        }
        self._lines: List[str] = [_seal(header)]
        for index in sorted(self.completed):
            self._lines.append(
                _seal({"index": index, "stats": stats_to_doc(self.completed[index])})
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def create(cls, path: Union[str, Path], tasks: Sequence[TrialTask]) -> "CheckpointJournal":
        """Start a fresh journal for ``tasks`` (overwrites any old file)."""
        journal = cls(path, matrix_fingerprint(tasks), len(tasks))
        journal._flush()
        return journal

    @classmethod
    def resume(cls, path: Union[str, Path], tasks: Sequence[TrialTask]) -> "CheckpointJournal":
        """Load a journal and verify it belongs to exactly ``tasks``.

        Tolerates a damaged *final* line (a torn append from the
        interrupted run — that trial reruns); any earlier damage raises
        :class:`CheckpointError`.
        """
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
        if not lines:
            raise CheckpointError(f"checkpoint {path} is empty")
        header = _open_record(lines[0], 1)
        if header.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {path} has schema {header.get('schema')!r}, "
                f"want {CHECKPOINT_SCHEMA!r}"
            )
        fingerprint = matrix_fingerprint(tasks)
        if header.get("fingerprint") != fingerprint:
            raise CheckpointMismatch(
                f"checkpoint {path} was written for a different task matrix "
                f"(journal fingerprint {str(header.get('fingerprint'))[:12]}…, "
                f"this run {fingerprint[:12]}…); refusing to mix campaigns"
            )
        if header.get("tasks") != len(tasks):
            raise CheckpointMismatch(
                f"checkpoint {path} covers {header.get('tasks')} tasks, "
                f"this run has {len(tasks)}"
            )
        completed: Dict[int, CoreStats] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                record = _open_record(line, lineno)
            except CheckpointError:
                if lineno == len(lines):
                    break  # torn tail: the interrupted append; rerun that trial
                raise
            index = record.get("index")
            if not isinstance(index, int) or not 0 <= index < len(tasks):
                raise CheckpointError(
                    f"journal line {lineno} names task index {index!r}, "
                    f"outside this matrix of {len(tasks)}"
                )
            completed[index] = stats_from_doc(record["stats"])
        return cls(path, fingerprint, len(tasks), completed)

    # -- appends ---------------------------------------------------------------

    def record(self, index: int, stats: CoreStats) -> None:
        """Journal one completed trial (atomic rewrite + rename)."""
        if index in self.completed:
            return
        self.completed[index] = stats
        self._lines.append(_seal({"index": index, "stats": stats_to_doc(stats)}))
        self._flush()

    def _flush(self) -> None:
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self._lines))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    @property
    def remaining(self) -> int:
        return self.total - len(self.completed)
