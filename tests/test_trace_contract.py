"""The trace-input contract: Appendix A's rules, once, behind every loader.

:class:`~repro.trace.trace.FeasibilityChecker` is the only copy of the
feasibility rules.  These tests hold it to the event-at-a-time loop it
replaced (kept here verbatim as :func:`reference_validate`, the way
``tests/test_binio.py`` keeps the per-field codec), on feasible traces
broken by one to four drawn mutations:

* message for message, including which violation comes first when a
  stretch breaks several rules;
* at any split of the columns into blocks;
* through every loader — ``loads_binary``, the column reader plus the
  check (the CLI's ``--batch`` path, with and without NumPy) and
  ``loads_trace`` — with format errors still outranking feasibility;
* and through the CLI: every command that reads a trace exits 3 with one
  stderr line on a trace it cannot use.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Set
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from test_properties import feasible_traces

import repro.net
from repro.cli import _BadTrace, _load, main
from repro.trace.batch import EventBatch
from repro.trace.binio import (
    dump_trace_binary,
    dumps_binary,
    load_trace_columns,
    loads_binary,
)
from repro.trace.events import (
    ACQUIRE,
    FORK,
    JOIN,
    KINDS,
    RELEASE,
    SBEGIN,
    SEND,
    Event,
    acq,
    fork,
    join,
    rel,
    sbegin,
    send,
    wr,
)
from repro.trace.textio import dump_trace, dumps_trace, loads_trace
from repro.trace.trace import FeasibilityChecker, Trace, TraceError, TraceFormatError

SRC = Path(__file__).resolve().parent.parent / "src"


# -- the reference ---------------------------------------------------------------


def reference_validate(events) -> None:
    """The event-at-a-time feasibility loop the column checker replaced,
    verbatim but for taking a plain event list."""
    lock_holder: Dict[int, int] = {}
    lock_depth: Dict[int, int] = {}
    forked: Set[int] = set()
    joined: Set[int] = set()
    acted: Set[int] = set()
    sampling = False
    for i, e in enumerate(events):
        if e.kind not in KINDS:
            raise TraceError(i, e, f"unknown kind {e.kind!r}")
        if e.kind == SBEGIN:
            if sampling:
                raise TraceError(i, e, "sbegin inside a sampling period")
            sampling = True
            continue
        if e.kind == SEND:
            if not sampling:
                raise TraceError(i, e, "send outside a sampling period")
            sampling = False
            continue
        if e.tid < 0:
            raise TraceError(i, e, "thread actions need a valid tid")
        if e.tid in joined:
            raise TraceError(i, e, f"thread {e.tid} acts after being joined")
        acted.add(e.tid)
        if e.kind == ACQUIRE:
            holder = lock_holder.get(e.target)
            if holder is not None and holder != e.tid:
                raise TraceError(
                    i, e, f"lock {e.target} already held by thread {holder}"
                )
            lock_holder[e.target] = e.tid
            lock_depth[e.target] = lock_depth.get(e.target, 0) + 1
        elif e.kind == RELEASE:
            if lock_holder.get(e.target) != e.tid:
                raise TraceError(
                    i, e, f"thread {e.tid} releases lock {e.target} it does not hold"
                )
            lock_depth[e.target] -= 1
            if lock_depth[e.target] == 0:
                del lock_holder[e.target]
                del lock_depth[e.target]
        elif e.kind == FORK:
            if e.target == e.tid:
                raise TraceError(i, e, "thread forks itself")
            if e.target in forked:
                raise TraceError(i, e, f"thread {e.target} forked twice")
            if e.target in acted:
                raise TraceError(
                    i, e, f"thread {e.target} acted before being forked"
                )
            forked.add(e.target)
        elif e.kind == JOIN:
            if e.target == e.tid:
                raise TraceError(i, e, "thread joins itself")
            if e.target in joined:
                raise TraceError(i, e, f"thread {e.target} joined twice")
            joined.add(e.target)


def verdict(check, *args) -> Optional[str]:
    """``None`` if ``check(*args)`` accepts, else its error message."""
    try:
        check(*args)
    except (TraceError, TraceFormatError) as exc:
        return str(exc)
    return None


# -- mutations ---------------------------------------------------------------------

MUTATIONS = (
    "unheld_release", "held_acquire", "double_fork", "fork_acted",
    "self_fork", "self_join", "double_join", "act_after_join",
    "nested_sbegin", "stray_send", "negative_tid", "marker_tid",
)


def _state_at(events, p):
    """Lock holders, forked, joined and acting threads before ``p``."""
    holder: Dict[int, int] = {}
    forked, joined, acted = set(), set(), set()
    for e in events[:p]:
        if e.kind == ACQUIRE:
            holder[e.target] = e.tid
        elif e.kind == RELEASE:
            holder.pop(e.target, None)
        elif e.kind == FORK:
            forked.add(e.target)
        elif e.kind == JOIN:
            joined.add(e.target)
        if e.kind not in (SBEGIN, SEND) and e.tid >= 0:
            acted.add(e.tid)
    return holder, forked, joined, acted


@st.composite
def mutated_traces(draw):
    """A feasible trace with one to four mutations, each aimed at one
    Appendix A rule (the reference, not the aim, decides the outcome)."""
    events = list(draw(feasible_traces(
        with_sampling=True, with_joins_and_noops=True)).events)
    p = draw(st.integers(0, len(events)))
    for _ in range(draw(st.integers(1, 4))):
        # mutations often land close together, so that one stretch
        # breaks several rules and the earliest must win
        if draw(st.booleans()):
            p = min(max(p + draw(st.integers(-3, 3)), 0), len(events))
        else:
            p = draw(st.integers(0, len(events)))
        kind = draw(st.sampled_from(MUTATIONS))
        holder, forked, joined, acted = _state_at(events, p)
        threads = sorted({e.tid for e in events if e.tid >= 0} | {0, 1})
        tid = draw(st.sampled_from(threads))
        pick = lambda pool, default: (  # noqa: E731
            draw(st.sampled_from(sorted(pool))) if pool else default)
        if kind == "unheld_release":
            new = rel(tid, 100 + draw(st.integers(0, 2)))
        elif kind == "held_acquire":
            lock = pick(holder, 100)
            new = acq(pick(set(threads) - {holder.get(lock)}, tid), lock)
        elif kind == "double_fork":
            new = fork(tid, pick(forked, 1))
        elif kind == "fork_acted":
            new = fork(tid, pick(acted - {tid}, 0))
        elif kind == "self_fork":
            new = fork(tid, tid)
        elif kind == "self_join":
            new = join(tid, tid)
        elif kind == "double_join":
            new = join(tid, pick(joined, 1))
        elif kind == "act_after_join":
            new = wr(pick(joined, 1), draw(st.integers(0, 4)), 7)
        elif kind == "nested_sbegin":
            new = sbegin()
        elif kind == "stray_send":
            new = send()
        elif kind == "negative_tid":
            if p < len(events) and events[p].kind not in (SBEGIN, SEND):
                events[p] = events[p]._replace(tid=-1)
                continue
            new = wr(-1, 0, 3)
        else:  # marker_tid: Appendix A ignores a marker's thread id
            new = Event(draw(st.sampled_from((SBEGIN, SEND))), tid + 1, 0, 0)
        events.insert(p, new)
    return events


def check_in_blocks(events, cuts) -> None:
    """The checker over the trace's columns, split at ``cuts``."""
    kinds, tids, targets, sites = EventBatch.from_events(events).to_list_columns()
    checker = FeasibilityChecker()
    bounds = [0, *sorted(set(cuts)), len(events)]
    for a, b in zip(bounds, bounds[1:]):
        checker.check(a, kinds[a:b], tids[a:b], targets[a:b], sites[a:b])


# -- the checker against the reference ---------------------------------------------


@settings(max_examples=400, deadline=None)
@given(mutated_traces(), st.data())
def test_checker_matches_reference(events, data):
    expected = verdict(reference_validate, events)
    assert verdict(Trace(events).validate) == expected
    cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=6))
    assert verdict(check_in_blocks, events, cuts) == expected


@settings(max_examples=200, deadline=None)
@given(feasible_traces(with_sampling=True, with_joins_and_noops=True))
def test_feasible_traces_pass(trace):
    assert verdict(reference_validate, trace.events) is None
    assert verdict(check_in_blocks, trace.events, [len(trace) // 2]) is None


@pytest.mark.parametrize("events, index, rule", [
    # the later joined-thread action must not hide the earlier bad release
    ([fork(0, 1), join(0, 1), rel(0, 5), wr(1, 3)], 2, "does not hold"),
    ([fork(0, 1), join(0, 1), wr(1, 3), rel(0, 5)], 2, "after being joined"),
    ([fork(0, 1), acq(0, 5), Event("wr", -1, 0), acq(1, 5)], 2, "valid tid"),
    ([wr(0, 1), Event("zap", 0, 0, 0)], 1, "unknown kind 'zap'"),
    ([rel(0, 5), Event("zap", 0, 0, 0)], 0, "does not hold"),
    ([sbegin(), Event(SEND, 4, 0, 0), Event(SBEGIN, 2, 0, 0), send()], None, None),
])
def test_earliest_violation_wins(events, index, rule):
    expected = verdict(reference_validate, events)
    assert verdict(Trace(events).validate) == expected
    if index is None:
        assert expected is None
        return
    assert expected.startswith(f"event {index} ") and rule in expected
    with pytest.raises(TraceError) as got:
        Trace(events).validate()
    assert got.value.index == index and got.value.event == events[index]


# -- every loader, one verdict -----------------------------------------------------


def _column_verdict(path: Path) -> Optional[str]:
    """The CLI's binary-trace path: column decode, then the check."""
    try:
        _load(path, "binary")
    except _BadTrace as exc:
        prefix = f"cannot use trace {path}: "
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):]
    return None


@settings(max_examples=150, deadline=None)
@given(mutated_traces())
def test_loaders_agree(events):
    expected = verdict(reference_validate, events)
    data = dumps_binary(events)
    assert verdict(loads_binary, data) == expected
    assert verdict(loads_trace, dumps_trace(events)) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pacr"
        path.write_bytes(data)
        assert _column_verdict(path) == expected
        with mock.patch.dict(sys.modules, {"numpy": None}):
            assert _column_verdict(path) == expected
        # damage outranks infeasibility: a corrupt copy names the damage
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
        assert "CRC32 mismatch" in verdict(loads_binary, path.read_bytes())
        assert "CRC32 mismatch" in _column_verdict(path)


def test_corrupt_and_infeasible_reports_the_format_error(tmp_path):
    events = [fork(0, 1), rel(1, 5)] + [wr(0, v) for v in range(9000)]
    data = dumps_binary(events)
    assert "does not hold" in verdict(loads_binary, data)
    torn = data[:-6]  # loses the CRC and the last record's tail
    message = verdict(loads_binary, torn)
    assert message and "does not hold" not in message
    assert verdict(loads_binary, torn, False) == message


def test_describe_binary_builds_no_events(monkeypatch):
    import repro.trace.binio as binio

    def no_events(*_columns):
        raise AssertionError("describe_binary built Event records")

    monkeypatch.setattr(binio, "_events", no_events)
    data = dumps_binary([fork(0, 1), rel(1, 5)])
    assert binio.describe_binary(data)["events"] == 2
    with pytest.raises(TraceError, match="does not hold"):
        binio.describe_binary(data, validate=True)


# -- the CLI -----------------------------------------------------------------------

#: thread 1 releases a lock it does not hold
INFEASIBLE = [fork(0, 1), wr(0, 7, 1), acq(0, 5), wr(1, 7, 2), rel(1, 5), wr(0, 7, 3)]

COMMANDS = {
    "analyze": ["analyze", "{}"],
    "analyze-batch": ["analyze", "{}", "--batch"],
    "oracle": ["oracle", "{}"],
    "convert": ["convert", "{}", "{out}"],
    "coverage": ["coverage", "{}"],
    "explain": ["explain", "{}"],
    "stream": ["stream", "{}", "--address", "unix:///nonexistent.sock",
               "--session", "s"],
}


def _bad_files(tmp_path: Path) -> Dict[str, Path]:
    files = {}
    files["infeasible.pacr"] = tmp_path / "infeasible.pacr"
    dump_trace_binary(INFEASIBLE, files["infeasible.pacr"])
    files["infeasible.txt"] = tmp_path / "infeasible.txt"
    dump_trace(INFEASIBLE, files["infeasible.txt"])
    good = dumps_binary([fork(0, 1)] + [wr(t, 3, t) for t in (0, 1)] * 20)
    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 0x01
    files["crc.pacr"] = tmp_path / "crc.pacr"
    files["crc.pacr"].write_bytes(bytes(flipped))
    files["truncated.pacr"] = tmp_path / "truncated.pacr"
    files["truncated.pacr"].write_bytes(good[:-7])
    files["unknown-kind.txt"] = tmp_path / "unknown-kind.txt"
    files["unknown-kind.txt"].write_text("wr 0 1\nzap 0 1\n")
    files["missing.pacr"] = tmp_path / "missing.pacr"
    return files


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_rejects_bad_input_with_exit_3(
    command, tmp_path, capsys, monkeypatch
):
    def never(*_args, **_kwargs):
        raise AssertionError("stream connected before checking its trace")

    monkeypatch.setattr(repro.net.ResilientClient, "connect", never)
    for name, path in _bad_files(tmp_path).items():
        argv = [a.format(path, out=tmp_path / "out.txt") for a in COMMANDS[command]]
        if name == "missing.pacr" and command in ("coverage", "explain"):
            # these also take a workload name: no such file is a usage error
            assert main(argv) == 2
            assert "neither a trace file nor a workload" in capsys.readouterr().err
            continue
        assert main(argv) == 3, (command, name)
        out, err = capsys.readouterr()
        assert out == "", (command, name)
        assert err.startswith(f"cannot use trace {path}: "), (command, name)
        assert err.count("\n") == 1, (command, name, err)


def test_both_dispatch_modes_print_the_same_line(tmp_path, capsys):
    path = tmp_path / "t.pacr"
    dump_trace_binary(INFEASIBLE, path)
    lines = []
    for extra in ([], ["--batch"]):
        assert main(["analyze", str(path), *extra]) == 3
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == (
        f"cannot use trace {path}: event 4 (rel(t1, 5)@0): "
        "thread 1 releases lock 5 it does not hold\n"
    )


def test_no_traceback_from_the_command_line(tmp_path):
    path = tmp_path / "t.pacr"
    dump_trace_binary(INFEASIBLE, path)
    for argv in (["analyze", str(path), "--batch"], ["oracle", str(tmp_path / "x")]):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], capture_output=True,
            text=True, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_fail_on_race_still_exits_1(tmp_path, capsys):
    path = tmp_path / "racy.pacr"
    dump_trace_binary([fork(0, 1), wr(0, 1, 1), wr(1, 1, 2)], path)
    for extra in ([], ["--batch"]):
        assert main(["analyze", str(path), "--fail-on-race", *extra]) == 1
        assert main(["analyze", str(path), *extra]) == 0


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_verify_trace_checks_feasibility_only_under_validate(fmt, tmp_path, capsys):
    path = tmp_path / f"t.{fmt}"
    (dump_trace_binary if fmt == "binary" else dump_trace)(INFEASIBLE, path)
    assert main(["verify-trace", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"OK {path}: 6 events")
    assert main(["verify-trace", str(path), "--validate"]) == 1
    assert "does not hold" in capsys.readouterr().err


def test_checked_batch_holds_list_columns(tmp_path):
    path = tmp_path / "t.pacr"
    dump_trace_binary([fork(0, 1), wr(1, 3, 1)], path)
    batch = _load(path, "auto")
    assert all(type(c) is list for c in
               (batch.kinds, batch.tids, batch.targets, batch.sites))
    assert batch.to_events() == load_trace_columns(path).to_events()
