"""The ``repro`` parser surface, pinned as a literal table.

Every subcommand's arguments with their option strings, dest, default,
choices, type, nargs, required and const (help text is free to change).
Refactoring how ``build_parser`` declares its flags must leave this
table untouched.  Option order within a subcommand is free; positional
order is not.
"""

import argparse

from repro.cli import build_parser

WORKLOADS = ["eclipse", "hsqldb", "micro", "pseudojbb", "xalan"]
DETECTORS = ["djit", "eraser", "fasttrack", "generic", "goldilocks",
             "literace", "pacer"]
FORMATS = ["auto", "text", "binary"]
BACKENDS = ["object", "packed"]
# matrix also runs the no-op baseline detector
MATRIX_DETECTORS = sorted(DETECTORS + ["none"])

# subcommand -> (handler name, [(option strings, dest, default, choices,
# type, nargs, required, const), ...])
SURFACE = {
    "workloads": ("cmd_workloads", []),
    "record": ("cmd_record", [
        ((), "workload", None, WORKLOADS, None, None, True, None),
        ((), "output", None, None, None, None, True, None),
        (("--seed",), "seed", 0, None, "int", None, False, None),
        (("--scale",), "scale", 1.0, None, "float", None, False, None),
        (("--format",), "format", "auto", FORMATS, None, None, False, None),
    ]),
    "analyze": ("cmd_analyze", [
        ((), "trace", None, None, None, None, True, None),
        (("--detector",), "detector", "fasttrack", DETECTORS, None, None, False, None),
        (("--format",), "format", "auto", FORMATS, None, None, False, None),
        (("--limit",), "limit", 20, None, "int", None, False, None),
        (("--fail-on-race",), "fail_on_race", False, None, None, 0, False, True),
        (("--batch",), "batch", False, None, None, 0, False, True),
        (("--json",), "json", False, None, None, 0, False, True),
        (("--state-backend",), "state_backend", None, BACKENDS, None, None, False, None),
        (("--metrics-out",), "metrics_out", None, None, None, None, False, None),
        (("--timeline-out",), "timeline_out", None, None, None, None, False, None),
        (("--trace-out",), "trace_out", None, None, None, None, False, None),
        (("--report-out",), "report_out", None, None, None, None, False, None),
        (("--coverage-out",), "coverage_out", None, None, None, None, False, None),
        (("--sample-every",), "sample_every", 4096, None, "int", None, False, None),
    ]),
    "explain": ("cmd_explain", [
        ((), "trace", None, None, None, None, True, None),
        (("--detector",), "detector", "fasttrack", DETECTORS, None, None, False, None),
        (("--format",), "format", "auto", FORMATS, None, None, False, None),
        (("--seed",), "seed", 0, None, "int", None, False, None),
        (("--scale",), "scale", 1.0, None, "float", None, False, None),
        (("--races",), "races", 5, None, "int", None, False, None),
        (("--limit",), "limit", 20, None, "int", None, False, None),
        (("--window",), "window", 64, None, "int", None, False, None),
        (("--report-out",), "report_out", None, None, None, None, False, None),
        (("--markdown-out",), "markdown_out", None, None, None, None, False, None),
        (("--trace-out",), "trace_out", None, None, None, None, False, None),
        (("--sample-every",), "sample_every", 4096, None, "int", None, False, None),
        (("--json",), "json", False, None, None, 0, False, True),
        (("--state-backend",), "state_backend", None, BACKENDS, None, None, False, None),
    ]),
    "oracle": ("cmd_oracle", [
        ((), "trace", None, None, None, None, True, None),
        (("--format",), "format", "auto", FORMATS, None, None, False, None),
        (("--limit",), "limit", 20, None, "int", None, False, None),
    ]),
    "detect": ("cmd_detect", [
        ((), "workload", None, WORKLOADS, None, None, True, None),
        (("--detector",), "detector", "pacer", DETECTORS, None, None, False, None),
        (("--rate",), "rate", None, None, "float", None, False, None),
        (("--seed",), "seed", 0, None, "int", None, False, None),
        (("--scale",), "scale", 1.0, None, "float", None, False, None),
        (("--limit",), "limit", 20, None, "int", None, False, None),
        (("--state-backend",), "state_backend", None, BACKENDS, None, None, False, None),
        (("--metrics-out",), "metrics_out", None, None, None, None, False, None),
        (("--timeline-out",), "timeline_out", None, None, None, None, False, None),
        (("--trace-out",), "trace_out", None, None, None, None, False, None),
        (("--report-out",), "report_out", None, None, None, None, False, None),
        (("--coverage-out",), "coverage_out", None, None, None, None, False, None),
        (("--sample-every",), "sample_every", 4096, None, "int", None, False, None),
    ]),
    "profile": ("cmd_profile", [
        ((), "workload", None, WORKLOADS, None, None, True, None),
        (("--detector",), "detector", "pacer", DETECTORS, None, None, False, None),
        (("--rate",), "rate", None, None, "float", None, False, None),
        (("--seed",), "seed", 0, None, "int", None, False, None),
        (("--scale",), "scale", 1.0, None, "float", None, False, None),
        (("--state-backend",), "state_backend", None, BACKENDS, None, None, False, None),
        (("--metrics-out",), "metrics_out", "metrics.json", None, None, None, False, None),
        (("--timeline-out",), "timeline_out", "timeline.jsonl", None, None, None, False, None),
        (("--trace-out",), "trace_out", "profile.trace.json", None, None, None, False, None),
        (("--report-out",), "report_out", None, None, None, None, False, None),
        (("--coverage-out",), "coverage_out", None, None, None, None, False, None),
        (("--sample-every",), "sample_every", 4096, None, "int", None, False, None),
    ]),
    "matrix": ("cmd_matrix", [
        (("--workloads",), "workloads", WORKLOADS, WORKLOADS, None, "+", False, None),
        (("--detectors",), "detectors", ["fasttrack", "pacer"], MATRIX_DETECTORS, None, "+", False, None),
        (("--rates",), "rates", [3.0], None, "float", "*", False, None),
        (("--seeds",), "seeds", 3, None, "int", None, False, None),
        (("--jobs",), "jobs", 1, None, "int", None, False, None),
        (("--scale",), "scale", 0.5, None, "float", None, False, None),
        (("--json",), "json", False, None, None, 0, False, True),
        (("--metrics-out",), "metrics_out", None, None, None, None, False, None),
        (("--trace-out",), "trace_out", None, None, None, None, False, None),
        (("--report-out",), "report_out", None, None, None, None, False, None),
        (("--coverage-out",), "coverage_out", None, None, None, None, False, None),
        (("--checkpoint",), "checkpoint", None, None, None, None, False, None),
        (("--resume",), "resume", False, None, None, 0, False, True),
        (("--task-timeout",), "task_timeout", 300.0, None, "float", None, False, None),
        (("--max-attempts",), "max_attempts", 3, None, "int", None, False, None),
        (("--fault-plan",), "fault_plan", None, None, None, None, False, None),
        (("--quarantine-out",), "quarantine_out", None, None, None, None, False, None),
        (("--no-quarantine",), "no_quarantine", False, None, None, 0, False, True),
        (("--state-backend",), "state_backend", None, BACKENDS, None, None, False, None),
    ]),
    "verify-trace": ("cmd_verify_trace", [
        ((), "trace", None, None, None, None, True, None),
        (("--validate",), "validate", False, None, None, 0, False, True),
        (("--json",), "json", False, None, None, 0, False, True),
    ]),
    "serve": ("cmd_serve", [
        (("--address",), "address", "tcp://127.0.0.1:0", None, None, None, False, None),
        (("--address-file",), "address_file", None, None, None, None, False, None),
        (("--shards",), "shards", 2, None, "int", None, False, None),
        (("--shard-mode",), "shard_mode", "process", ["process", "inline"], None, None, False, None),
        (("--credits",), "credits", 8, None, "int", None, False, None),
        (("--max-sessions",), "max_sessions", 64, None, "int", None, False, None),
        (("--spool-dir",), "spool_dir", None, None, None, None, False, None),
        (("--log-out",), "log_out", None, None, None, None, False, None),
        (("--status-out",), "status_out", None, None, None, None, False, None),
        (("--duration",), "duration", None, None, "float", None, False, None),
        (("--http",), "http", None, None, None, None, False, None),
        (("--metrics-out",), "metrics_out", None, None, None, None, False, None),
        (("--trace-out",), "trace_out", None, None, None, None, False, None),
        (("--spool-quota",), "spool_quota", None, None, "int", None, False, None),
        (("--memory-watermark",), "memory_watermark", None, None, "int", None, False, None),
        (("--slow-client-timeout",), "slow_client_timeout", None, None, "float", None, False, None),
        (("--drain-timeout",), "drain_timeout", 10.0, None, "float", None, False, None),
    ]),
    "stream": ("cmd_stream", [
        ((), "trace", None, None, None, None, True, None),
        (("--address",), "address", None, None, None, None, True, None),
        (("--session",), "session", None, None, None, None, True, None),
        (("--detector",), "detector", "fasttrack", DETECTORS, None, None, False, None),
        (("--format",), "format", "auto", FORMATS, None, None, False, None),
        (("--chunk-size",), "chunk_size", 512, None, "int", None, False, None),
        (("--fail-on-race",), "fail_on_race", False, None, None, 0, False, True),
        (("--retries",), "retries", 8, None, "int", None, False, None),
        (("--backoff",), "backoff", 0.05, None, "float", None, False, None),
        (("--json",), "json", False, None, None, 0, False, True),
        (("--state-backend",), "state_backend", None, BACKENDS, None, None, False, None),
    ]),
    "chaos-proxy": ("cmd_chaos_proxy", [
        (("--listen",), "listen", "tcp://127.0.0.1:0", None, None, None, False, None),
        (("--upstream",), "upstream", None, None, None, None, True, None),
        (("--fault-plan",), "fault_plan", None, None, None, None, False, None),
        (("--seed",), "seed", 0, None, "int", None, False, None),
        (("--stall-seconds",), "stall_seconds", 0.35, None, "float", None, False, None),
        (("--address-file",), "address_file", None, None, None, None, False, None),
        (("--duration",), "duration", None, None, "float", None, False, None),
        (("--json",), "json", False, None, None, 0, False, True),
    ]),
    "report": ("cmd_net_report", [
        (("--address",), "address", None, None, None, None, True, None),
        (("--follow",), "follow", False, None, None, 0, False, True),
        (("--interval",), "interval", 2.0, None, "float", None, False, None),
        (("--json",), "json", False, None, None, 0, False, True),
        (("--report-out",), "report_out", None, None, None, None, False, None),
        (("--metrics-out",), "metrics_out", None, None, None, None, False, None),
        (("--trace-out",), "trace_out", None, None, None, None, False, None),
        (("--prom",), "prom", False, None, None, 0, False, True),
    ]),
    "top": ("cmd_top", [
        (("--address",), "address", None, None, None, None, True, None),
        (("--interval",), "interval", 2.0, None, "float", None, False, None),
        (("--once",), "once", False, None, None, 0, False, True),
        (("--json",), "json", False, None, None, 0, False, True),
    ]),
    "bench": ("cmd_bench", [
        (("--out",), "out", "BENCH_core.json", None, None, None, False, None),
        (("--size",), "size", 0.7, None, "float", None, False, None),
        (("--repeats",), "repeats", 3, None, "int", None, False, None),
        (("--gate-size",), "gate_size", 1.0, None, "float", None, False, None),
        (("--gate-rounds",), "gate_rounds", 5, None, "int", None, False, None),
        (("--check",), "check", False, None, None, 0, False, True),
    ]),
    "coverage": ("cmd_coverage", [
        ((), "trace", None, None, None, None, True, None),
        (("--detector",), "detector", "pacer", DETECTORS, None, None, False, None),
        (("--format",), "format", "auto", FORMATS, None, None, False, None),
        (("--rate",), "rate", None, None, "float", None, False, None),
        (("--seed",), "seed", 0, None, "int", None, False, None),
        (("--scale",), "scale", 1.0, None, "float", None, False, None),
        (("--out",), "out", None, None, None, None, False, None),
        (("--json",), "json", False, None, None, 0, False, True),
        (("--state-backend",), "state_backend", None, BACKENDS, None, None, False, None),
    ]),
    "convert": ("cmd_convert", [
        ((), "input", None, None, None, None, True, None),
        ((), "output", None, None, None, None, True, None),
        (("--format",), "format", "auto", FORMATS, None, None, False, None),
    ]),

}


def _subparsers(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def _row(action):
    return (
        tuple(action.option_strings),
        action.dest,
        action.default,
        None if action.choices is None else list(action.choices),
        None if action.type is None else action.type.__name__,
        action.nargs,
        action.required,
        action.const,
    )


def test_parser_surface(monkeypatch):
    # ``matrix --jobs`` takes its default from REPRO_JOBS
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    subparsers = _subparsers(build_parser())
    assert list(subparsers) == list(SURFACE)
    for name, (handler, rows) in SURFACE.items():
        sub = subparsers[name]
        actual = [
            _row(a) for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert sub.get_default("func").__name__ == handler, name
        assert [r for r in actual if not r[0]] == [r for r in rows if not r[0]]
        assert {r[1]: r for r in actual} == {r[1]: r for r in rows}, name


def test_every_help_renders(monkeypatch):
    """A stray ``%`` in a shared help string fails only when rendered."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    parser = build_parser()
    assert "PACER" in parser.format_help()
    for name, sub in _subparsers(parser).items():
        assert sub.format_help().startswith(f"usage: repro {name}"), name
