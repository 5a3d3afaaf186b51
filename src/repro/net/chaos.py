"""Deterministic network chaos — a fault-injecting telemetry proxy.

PACER's always-on story only holds if the collection pipeline survives
the network it actually runs on: dropped connections, corrupted and
truncated frames, stalls, and duplicate delivery.  :class:`ChaosProxy`
sits between a telemetry client and server and injects exactly those
faults — *deterministically*, reusing the ``kind@selector[*times]``
fault-plan grammar from :mod:`repro.util.faults` with the wire
vocabulary :data:`~repro.util.faults.WIRE_FAULT_KINDS`::

    conn_drop@3             drop the link before forwarding frame 3
    frame_corrupt@seed%7=2  flip a byte in ~1/7 of frames
    frame_truncate@5*2      cut frame 5 short, twice, then forward
    stall@seed%11=0*inf     long pause before ~1/11 of frames, forever
    dup@4                   deliver frame 4 twice

Selectors are evaluated against the client→server frame stream: *index*
is the frame's position on its connection (0-based, restarting per
connection, so a reconnecting client sees the same gauntlet again), and
*seed* is a pure position hash of (plan seed, connection index, frame
index) — never frame content, because retransmitted frames carry fresh
wall-clock stamps and a content hash would break replay.  ``times``
bounds how many firings a rule gets across the proxy's whole lifetime.

The proxy is frame-aware in the client→server direction only: it splits
the stream on the ``repro/telemetry/v1`` length prefix (without
validating CRCs — corrupting them is the point) so faults land on whole
frames, which is what makes `frame_corrupt` exercise the server's CRC
rejection rather than merely desynchronizing the framing.  The
server→client direction is a transparent pipe: a dropped connection
already severs both directions, and credit/ack loss is covered by the
resume protocol the faults exist to exercise.  Both legs of a link set
``TCP_NODELAY`` like every telemetry socket (:mod:`repro.net.transport`),
so the proxy adds no stall the plan does not name.

Use it in-process (tests) or as ``repro chaos-proxy`` (CI soaks)::

    with ChaosProxy("tcp://127.0.0.1:0", server.address,
                    plan="conn_drop@seed%5=1;frame_corrupt@seed%7=3",
                    seed=42) as proxy:
        client = ResilientClient(proxy.address, session="s")
        ...

Everything observable is counted in :attr:`ChaosProxy.stats` (fired
faults by kind, connections, frames forwarded) so soak suites can
assert the chaos actually happened.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
import zlib
from typing import Dict, List, Optional, Union

from ..util.faults import FaultPlan, FaultRule, WIRE_FAULT_KINDS, flip_byte
from .transport import dial, listen, nodelay

__all__ = ["ChaosProxy", "wire_plan"]

_LEN_BYTES = 4

#: frames longer than this are forwarded unparsed (a proxy must never
#: buffer unboundedly waiting for a frame the peer will never finish)
_MAX_PARSE_FRAME = 64 << 20

#: injected pause lengths: ``stall`` models a slow client long enough to
#: trip server-side timeouts under test; ``delay`` just adds jitter
STALL_SECONDS = 0.35
DELAY_SECONDS = 0.02


def wire_plan(text: str) -> FaultPlan:
    """Parse a fault plan in the wire vocabulary (``conn_drop@3;...``)."""
    return FaultPlan.parse(text, kinds=WIRE_FAULT_KINDS)


def _frame_seed(plan_seed: int, conn_index: int, frame_index: int) -> int:
    """Position-pure per-frame seed; replayable across runs by design."""
    return zlib.crc32(
        struct.pack("<III", plan_seed & 0xFFFFFFFF, conn_index & 0xFFFFFFFF,
                    frame_index & 0xFFFFFFFF)
    )


class _Link:
    """One proxied connection: client socket, upstream socket, liveness."""

    def __init__(self, client: socket.socket, upstream: socket.socket,
                 index: int) -> None:
        self.client = client
        self.upstream = upstream
        self.index = index
        self.alive = True
        self.lock = threading.Lock()

    def kill(self) -> None:
        """Sever both directions (idempotent)."""
        with self.lock:
            if not self.alive:
                return
            self.alive = False
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A deterministic fault-injecting proxy for the telemetry wire.

    ``listen`` and ``upstream`` are ``tcp://host:port`` or
    ``unix:///path`` addresses (the two may differ in kind — a TCP
    listener can front a Unix-socket server).  ``plan`` is a
    :class:`~repro.util.faults.FaultPlan` or a plan string in the wire
    vocabulary; ``None`` makes a transparent proxy (useful as the
    control arm of a chaos experiment).
    """

    def __init__(
        self,
        listen: str,
        upstream: str,
        plan: Union[FaultPlan, str, None] = None,
        seed: int = 0,
        stall_seconds: float = STALL_SECONDS,
        delay_seconds: float = DELAY_SECONDS,
    ) -> None:
        if isinstance(plan, str):
            plan = wire_plan(plan)
        self.plan = plan
        self.seed = seed
        self.upstream = upstream
        self.stall_seconds = stall_seconds
        self.delay_seconds = delay_seconds
        self._listen_spec = listen
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._links: List[_Link] = []
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._unix_path: Optional[str] = None
        self._lock = threading.Lock()
        #: per-rule fired count, indexed like ``plan.rules`` (drives the
        #: ``times`` bound; attempts are counted per rule, proxy-wide)
        self._fired: List[int] = [0] * (len(plan.rules) if plan else 0)
        #: fault firings by kind plus traffic counters, for assertions
        self.stats: Dict[str, int] = {kind: 0 for kind in WIRE_FAULT_KINDS}
        self.stats["connections"] = 0
        self.stats["frames"] = 0
        #: the bound listen address (port resolved), once started
        self.address: str = listen

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ChaosProxy":
        self._listener, self.address, self._unix_path = listen(
            self._listen_spec
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for link in list(self._links):
            link.kill()
        for thread in list(self._threads):
            thread.join(timeout=5.0)
        if self._unix_path and os.path.exists(self._unix_path):
            os.unlink(self._unix_path)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- plumbing ------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                upstream = dial(self.upstream, 10.0)
            except OSError:
                client.close()
                continue
            with self._lock:
                conn_index = self.stats["connections"]
                self.stats["connections"] += 1
            link = _Link(nodelay(client), upstream, conn_index)
            self._links.append(link)
            for fn in (self._client_to_server, self._server_to_client):
                thread = threading.Thread(target=fn, args=(link,), daemon=True)
                self._threads.append(thread)
                thread.start()

    def _match(self, frame_index: int, frame_seed: int) -> Optional[FaultRule]:
        """First plan rule firing for this frame, respecting ``times``."""
        if self.plan is None:
            return None
        with self._lock:
            for i, rule in enumerate(self.plan.rules):
                if rule.matches(frame_index, frame_seed, self._fired[i] + 1):
                    self._fired[i] += 1
                    self.stats[rule.kind] += 1
                    return rule
        return None

    def _server_to_client(self, link: _Link) -> None:
        """Transparent pipe; dies when either side does."""
        try:
            while link.alive and not self._stopping.is_set():
                try:
                    data = link.upstream.recv(65536)
                except (OSError, ValueError):
                    break
                if not data:
                    break
                link.client.sendall(data)
        except OSError:
            pass
        finally:
            link.kill()

    def _client_to_server(self, link: _Link) -> None:
        """Frame-splitting forwarder with fault injection."""
        buffer = bytearray()
        frame_index = 0
        try:
            while link.alive and not self._stopping.is_set():
                try:
                    data = link.client.recv(65536)
                except (OSError, ValueError):
                    break
                if not data:
                    break
                buffer += data
                while len(buffer) >= _LEN_BYTES:
                    length = int.from_bytes(buffer[:_LEN_BYTES], "little")
                    if length > _MAX_PARSE_FRAME:
                        # unparseable garbage: stop splitting, just pipe
                        link.upstream.sendall(bytes(buffer))
                        del buffer[:]
                        break
                    total = _LEN_BYTES + length
                    if len(buffer) < total:
                        break
                    raw = bytes(buffer[:total])
                    del buffer[:total]
                    if not self._forward_frame(link, raw, frame_index):
                        return  # link severed by a fault
                    frame_index += 1
        except OSError:
            pass
        finally:
            link.kill()

    def _forward_frame(self, link: _Link, raw: bytes, frame_index: int) -> bool:
        """Apply at most one fault to this frame; False = link severed."""
        with self._lock:
            self.stats["frames"] += 1
        rule = self._match(frame_index, _frame_seed(self.seed, link.index,
                                                    frame_index))
        if rule is None:
            link.upstream.sendall(raw)
            return True
        seed = _frame_seed(self.seed, link.index, frame_index)
        if rule.kind == "conn_drop":
            link.kill()
            return False
        if rule.kind == "frame_corrupt":
            # flip a byte past the length prefix: body or CRC, never the
            # framing itself, so the server sees a clean frame-corrupt
            offset = _LEN_BYTES + seed % max(len(raw) - _LEN_BYTES, 1)
            link.upstream.sendall(flip_byte(raw, offset))
            return True
        if rule.kind == "frame_truncate":
            # a prefix of the frame, then EOF: the server's decoder
            # reports frame-truncated when the stream ends mid-frame
            keep = _LEN_BYTES + seed % max(len(raw) - _LEN_BYTES, 1)
            try:
                link.upstream.sendall(raw[:keep])
            except OSError:
                pass
            link.kill()
            return False
        if rule.kind == "stall":
            time.sleep(self.stall_seconds)
            link.upstream.sendall(raw)
            return True
        if rule.kind == "delay":
            time.sleep(self.delay_seconds)
            link.upstream.sendall(raw)
            return True
        if rule.kind == "dup":
            link.upstream.sendall(raw)
            link.upstream.sendall(raw)
            return True
        raise AssertionError(f"unhandled wire fault kind {rule.kind!r}")

    # -- reporting -----------------------------------------------------------

    def fired(self) -> int:
        """Total fault firings so far (all kinds)."""
        with self._lock:
            return sum(self._fired)

    def plan_spec(self) -> str:
        """The plan rendered back to grammar form ('' when transparent)."""
        return self.plan.spec() if self.plan is not None else ""
