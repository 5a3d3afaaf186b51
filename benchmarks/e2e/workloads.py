"""The benchmark's workloads: their inputs, set-up, and reference answers.

Inputs are recorded through the public simulator API
(``WORKLOADS[name].scaled(size)``, ``build_program``, ``Scheduler``) with
the benchmark's seed, so the program under test only ever receives a
trace file.  Sampling-period markers follow the benchmark's own copy of
the rule in ``repro.bench.marked_trace`` (fixed periods of ``PERIOD``
events, the sampled ones spaced evenly): ``repro.bench`` may change or
go away without moving what this benchmark measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import cli
from repro.net import ResilientClient, ServerConfig, TelemetryServer
from repro.sim.scheduler import Scheduler
from repro.sim.workloads import WORKLOADS as PROGRAMS, build_program
from repro.trace.binio import dump_trace_binary
from repro.trace.events import ACCESS_KINDS, SBEGIN, SEND, Event, sbegin, send

#: events per sampling period
PERIOD = 400

#: smoke runs scale every input down by this factor
SMOKE_DIVISOR = 16

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (the reasons are in BENCHMARK.json)."""

    name: str
    program: str  # repro.sim workload recorded as the input
    size: float  # its scale factor
    detector: str
    rate: Optional[float]  # sampled share of periods; None = no markers
    stream: bool = False  # streamed through the service, not analyzed offline


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("analyze-pacer-r1", "pseudojbb", 8, "pacer", 0.01),
        Workload("analyze-fasttrack", "pseudojbb", 8, "fasttrack", None),
        Workload("analyze-sync-heavy", "hsqldb", 3, "pacer", 0.03),
        Workload("stream-pacer", "pseudojbb", 4, "pacer", 0.01, stream=True),
    )
}


def record(program: str, size: float, seed: int) -> List[Event]:
    """One seeded simulator run of ``program`` at ``size``."""
    events: List[Event] = []
    Scheduler(
        build_program(PROGRAMS[program].scaled(size), seed),
        seed=seed,
        sink=events.append,
    ).run()
    return events


def mark(events: List[Event], rate: float, period: int = PERIOD) -> List[Event]:
    """``events`` with a share ``rate`` of fixed-size periods sampled."""
    n_periods = max(1, (len(events) + period - 1) // period)
    sampled = set()
    if rate >= 1.0:
        sampled = set(range(n_periods))
    elif rate > 0:
        want = max(1, round(rate * n_periods))
        step = n_periods / want
        sampled = {int(i * step) for i in range(want)}
    out: List[Event] = []
    sampling = False
    for i in range(n_periods):
        should = i in sampled
        if should and not sampling:
            out.append(sbegin())
            sampling = True
        elif not should and sampling:
            out.append(send())
            sampling = False
        out.extend(events[i * period:(i + 1) * period])
    if sampling:
        out.append(send())
    return out


def unmarked(events: List[Event]) -> List[Event]:
    """``events`` without sampling-period markers."""
    return [e for e in events if e.kind != SBEGIN and e.kind != SEND]


def sync_only(events: List[Event]) -> List[Event]:
    """``events`` without data accesses (markers and sync ops stay)."""
    return [e for e in events if e.kind not in ACCESS_KINDS]


def inputs(w: Workload, seed: int, smoke: bool = False) -> List[Event]:
    """The event sequence workload ``w`` analyzes for ``seed``."""
    size = w.size / SMOKE_DIVISOR if smoke else w.size
    events = record(w.program, size, seed)
    return events if w.rate is None else mark(events, w.rate)


def fingerprint(events: List[Event]) -> Dict:
    """Event count plus sha256 over the ``(kind, tid, target, site)`` rows.

    Hashes events rather than file bytes, so a later binio format
    change keeps the fingerprints comparable.
    """
    text = "".join(f"{e.kind},{e.tid},{e.target},{e.site}\n" for e in events)
    return {"events": len(events),
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def expected_fingerprint(name: str, seed: int) -> Optional[Dict]:
    """The recorded fingerprint of a full-size input, if there is one."""
    table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    return table.get(name, {}).get(str(seed))


def start_server(spool: Path) -> TelemetryServer:
    """The service configuration ``stream-pacer`` measures."""
    spool.mkdir(parents=True, exist_ok=True)
    return TelemetryServer(ServerConfig(
        n_shards=1, shard_mode="process", spool_dir=str(spool),
    )).start()


def stop_server(server: TelemetryServer, spool: Path) -> None:
    server.stop()
    shutil.rmtree(spool, ignore_errors=True)


def setup(w: Workload, seed: int, path: Path, work: Path,
          smoke: bool = False) -> Tuple[float, List[Event]]:
    """One timed set-up; returns ``(seconds, events)``.

    Offline set-up records the input and writes the binary trace.  The
    stream workload's set-up also starts a server and counts up to the
    first HELLO_ACK.
    """
    start = time.perf_counter()
    events = inputs(w, seed, smoke)
    dump_trace_binary(events, path)
    if not w.stream:
        return time.perf_counter() - start, events
    spool = work / "spool-setup"
    server = start_server(spool)
    try:
        client = ResilientClient(server.address, "setup", detector=w.detector)
        client.connect()
        elapsed = time.perf_counter() - start
        client.abort()
    finally:
        stop_server(server, spool)
    return elapsed, events


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """``repro <argv>`` in-process; returns ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def reference(w: Workload, path: Path) -> Dict:
    """The pseudocode path's answer: scalar dispatch, object backend."""
    code, out = run_cli(["analyze", str(path), "--detector", w.detector,
                         "--state-backend", "object", "--json"])
    if code != 0:
        raise RuntimeError(f"reference analyze exited {code}")
    return json.loads(out)


def outcome(races, distinct_races, counters) -> Dict:
    """The part of a run's output every rep must reproduce exactly."""
    return {"races": races, "distinct_races": distinct_races,
            "counters": counters}


def expected_outcome(ref: Dict, stream: bool) -> Dict:
    """What a correct run reports, given the reference document.

    A streamed session's CLOSE_ACK summary carries race counts, not the
    race list.
    """
    if stream:
        return outcome(len(ref["races"]), len(ref["distinct_races"]),
                       ref["counters"])
    return outcome(ref["races"], ref["distinct_races"], ref["counters"])


def digest(doc: Dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
