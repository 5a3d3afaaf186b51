"""``repro.net`` — the race-telemetry service (``repro/telemetry/v1``).

PACER's pitch is *always-on* detection in production, which means the
analysis cannot live inside every monitored process.  This package moves
it behind a wire: clients stream length-prefixed event frames, each
carrying a binio document (v3; v2 is still accepted), over TCP or Unix
sockets to a long-running detection server, which shards sessions onto
long-lived detector worker processes and folds their
``repro/race-report/v1`` reports and metrics continuously.

Layers (see ``docs/TELEMETRY.md`` for the wire format and lifecycle):

* :mod:`repro.net.protocol` — the sans-IO frame codec and message
  schema: versioned handshake, credit-based backpressure, sequence
  numbers for reconnect-with-resume, and a *named* error for every way a
  byte stream can be malformed (the fuzz suite pins that no input
  produces an unnamed exception or a hang);
* :mod:`repro.net.shard` — detector worker processes (the supervisor's
  pipe-connected worker pattern) hosting one detector per session, with
  exact streaming witness indexes for offline-parity reports, behind
  one request FIFO per shard whose reply reader completes requests in
  order;
* :mod:`repro.net.server` — the front tier: accepts connections,
  pipelines each session's chunks to its shard (the credit window is
  the pipeline depth), spools each applied chunk for crash replay
  before granting its credit, and merges finalized session reports;
* :mod:`repro.net.client` — :class:`ResilientClient`, the one client
  (stream any event sequence as one session, with automatic
  reconnect-with-resume, seeded jittered backoff, a bounded retry
  budget and BUSY/``retry_after`` awareness; ``retries=0`` never
  reconnects on its own), and :class:`TelemetryMonitor` (a
  :class:`~repro.live.RaceMonitor`-backed shim that forwards a real
  threaded program's events to a server instead of analyzing locally);
* :mod:`repro.net.transport` — addresses, dialing and listening: the
  one place sockets are set up, so every TCP socket turns off Nagle's
  algorithm (``TCP_NODELAY``) and small frames never wait for a delayed
  ACK;
* :mod:`repro.net.chaos` — :class:`ChaosProxy`, a deterministic
  fault-injecting proxy (connection drops, frame corruption and
  truncation, stalls, duplication) driven by the shared
  ``kind@selector[*times]`` fault-plan grammar;
* :mod:`repro.net.http` — the observability sidecar (``/metrics``
  Prometheus scrapes, ``/status`` JSON, ``/healthz`` with drain-aware
  load-balancer semantics);
* :mod:`repro.net.top` — the ``repro top`` operator console and its
  versioned ``repro/top-status/v1`` machine-readable schema.
"""

from .chaos import ChaosProxy, wire_plan
from .client import ResilientClient, TelemetryMonitor, query_server
from .protocol import (
    PROTOCOL_SCHEMA,
    FrameCorrupt,
    FrameDecoder,
    FrameTooLarge,
    FrameTruncated,
    PayloadError,
    ProtocolError,
    ServerBusy,
    SessionEvicted,
    SessionStateError,
    UnknownFrameType,
)
from .server import ServerConfig, TelemetryServer
from .top import TOP_SCHEMA, build_top_status, render_top, validate_top_status
from .transport import parse_address

__all__ = [
    "PROTOCOL_SCHEMA",
    "TOP_SCHEMA",
    "build_top_status",
    "render_top",
    "validate_top_status",
    "ChaosProxy",
    "FrameCorrupt",
    "FrameDecoder",
    "FrameTooLarge",
    "FrameTruncated",
    "PayloadError",
    "ProtocolError",
    "ResilientClient",
    "ServerBusy",
    "ServerConfig",
    "SessionEvicted",
    "SessionStateError",
    "TelemetryMonitor",
    "TelemetryServer",
    "UnknownFrameType",
    "parse_address",
    "query_server",
    "wire_plan",
]
