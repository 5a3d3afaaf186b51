"""``repro stream`` and ``repro report`` driven through ``cli.main``.

Both net subcommands run in-process against an inline
:class:`~repro.net.TelemetryServer`: ``stream`` in both output modes,
including a session whose close never completes, and ``report``'s
output modes and artifact flags, checked against the server's own
status document.  A server that cannot be reached or refuses the
session ends ``stream``, ``report`` and ``top`` with one stderr line,
and ``report --follow`` and ``top`` stop polling once stdout's reader
has gone.
"""

import json
import socket
import sys
import time

import pytest

from repro.cli import main
from repro.net import ResilientClient, ServerConfig, TelemetryServer
from repro.obs.perfetto import validate_chrome_trace
from repro.trace.binio import dump_trace_binary
from repro.trace.generator import GeneratorConfig, random_trace

TRACE = random_trace(GeneratorConfig(length=400, seed=3))
CHUNK = 64


@pytest.fixture
def server():
    config = ServerConfig(n_shards=1, shard_mode="inline")
    with TelemetryServer(config) as srv:
        yield srv


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.pacr"
    dump_trace_binary(TRACE, path)
    return path


def stream(server, trace_file, session, *flags):
    return main([
        "stream", str(trace_file), "--address", server.address,
        "--session", session, "--chunk-size", str(CHUNK), *flags,
    ])


def test_stream_prints_the_server_summary(server, trace_file, capsys):
    assert stream(server, trace_file, "plain") == 0
    sdoc = server.session_doc("plain")
    chunks = -(-len(TRACE) // CHUNK)
    assert capsys.readouterr().out == (
        f"streamed {len(TRACE)} events in {chunks} chunk(s) as session "
        f"'plain': {sdoc['races']} race(s), {sdoc['distinct_races']} "
        f"distinct\n"
    )


def test_stream_json(server, trace_file, capsys):
    assert stream(server, trace_file, "json", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    sdoc = server.session_doc("json")
    assert doc["command"] == "stream"
    assert doc["session"] == "json"
    assert doc["events"] == len(TRACE) == sdoc["events"]
    assert doc["races"] == sdoc["races"]
    assert doc["retries"] == 0


@pytest.mark.parametrize("as_json", [False, True])
def test_stream_exits_1_when_the_session_never_closed(
    server, trace_file, capsys, monkeypatch, as_json
):
    def lost_close(self):
        # close() spent its retry budget without a CLOSE_ACK
        self.abort()
        return {}

    monkeypatch.setattr(ResilientClient, "close", lost_close)
    flags = ["--json"] if as_json else []
    assert stream(server, trace_file, "unclosed", *flags) == 1
    captured = capsys.readouterr()
    assert "stream interrupted after" in captured.err
    if as_json:
        assert "events" not in json.loads(captured.out)


def test_report_artifacts_match_the_status_document(
    server, trace_file, tmp_path, capsys
):
    assert stream(server, trace_file, "s1") == 0
    report, metrics, trace = (
        tmp_path / name for name in ("report.json", "metrics.json", "trace.json")
    )
    assert main([
        "report", "--address", server.address, "--report-out", str(report),
        "--metrics-out", str(metrics), "--trace-out", str(trace),
    ]) == 0
    assert "1 session(s)" in capsys.readouterr().out
    doc = server.query_doc()
    assert json.loads(report.read_text(encoding="utf-8")) == doc["report"]
    written = json.loads(metrics.read_text(encoding="utf-8"))
    assert written["counters"]["net_events_total"] == len(TRACE)
    assert set(written) == set(doc["metrics"])
    assert validate_chrome_trace(json.loads(trace.read_text(encoding="utf-8"))) == []


def test_report_json_and_prom(server, trace_file, capsys):
    assert stream(server, trace_file, "s1") == 0
    capsys.readouterr()
    assert main(["report", "--address", server.address, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro/telemetry-status/v1"
    assert doc["report"] == server.query_doc()["report"]
    assert main(["report", "--address", server.address, "--prom"]) == 0
    assert f"net_events_total {len(TRACE)}" in capsys.readouterr().out


def closed_address():
    """A tcp:// address nothing listens on."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"tcp://127.0.0.1:{port}"


@pytest.mark.parametrize("argv", [
    ["stream", "{trace}", "--session", "s", "--retries", "1",
     "--backoff", "0.001"],
    ["report"],
    ["top", "--once"],
], ids=["stream", "report", "top"])
def test_unreachable_server_is_one_line_and_exit_1(argv, trace_file, capsys):
    address = closed_address()
    argv = [arg.format(trace=trace_file) for arg in argv]
    assert main([*argv, "--address", address]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"telemetry server {address}: ")
    assert "ConnectionRefusedError" in captured.err
    assert captured.err.count("\n") == 1


def test_stream_refused_session_name_is_one_line(server, trace_file, capsys):
    assert stream(server, trace_file, "taken") == 0
    before = server.session_doc("taken")
    capsys.readouterr()
    assert stream(server, trace_file, "taken") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"telemetry server {server.address}: HandshakeError: session "
        f"'taken' already exists (reconnect with resume)\n"
    )
    after = server.session_doc("taken")
    assert after["events"] == before["events"] == len(TRACE)
    assert after["report"] == before["report"]


def test_stream_names_the_servers_refusal(server, trace_file, capsys,
                                          monkeypatch):
    """A chunk the server refuses is one stderr line naming the
    refusal, even when the next send finds the connection closed."""
    import zlib

    import repro.net.client as client_module
    from repro.net.protocol import EventsChunk

    doc = b"PACR" + bytes([2, 1, 200, 1, 1, 0])  # kind id 200
    doc += zlib.crc32(doc).to_bytes(4, "little")
    original = client_module.chunk_events

    def refused_first(events, size, first):
        for chunk in original(events, size, first):
            if chunk.seq > 1:
                yield chunk
                continue
            yield EventsChunk.from_data(1, doc, 1)
            while server.metrics.counter("net_disconnects_total").value < 1:
                time.sleep(0.01)
            time.sleep(0.1)

    monkeypatch.setattr(client_module, "chunk_events", refused_first)
    assert stream(server, trace_file, "refused", "--retries", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"telemetry server {server.address}: PayloadError: events payload: "
        f"unknown kind id 200 at byte 8\n"
    )


class _ReaderGone:
    """A stdout whose reader has already gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["report", "--follow"], ["top"]],
                         ids=["report", "top"])
def test_polling_stops_once_the_reader_has_gone(argv, server, monkeypatch):
    def second_poll(seconds):
        raise AssertionError("polled again after stdout's reader had gone")

    monkeypatch.setattr(sys, "stdout", _ReaderGone())
    monkeypatch.setattr(time, "sleep", second_poll)
    assert main([*argv, "--address", server.address]) == 0
