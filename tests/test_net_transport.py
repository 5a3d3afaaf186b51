"""The transport policy: every telemetry TCP socket sets ``TCP_NODELAY``.

The protocol writes small frames, each with one ``sendall``, and a peer
often waits for the next one before it answers: a closing client for
the last CREDITs of its window, a keep-alive HTTP client for the body
behind the headers.  With Nagle's algorithm on, such a frame waits for
the peer's delayed ACK (40 ms on Linux).  These cases pin the policy on
each kind of socket the service opens (Unix sockets, which have no
Nagle, are left alone; the ``unix://`` sessions of the resilience,
admission, pipeline and spool suites run over them):

* a connected :class:`~repro.net.ResilientClient`'s socket;
* the connection the server accepts for it;
* both legs of a :class:`~repro.net.ChaosProxy` link;
* the HTTP sidecar: keep-alive requests answer well under the 40 ms
  delayed-ACK floor.
"""

from __future__ import annotations

import http.client
import socket
import statistics
import time

from repro.net import ChaosProxy, ResilientClient, ServerConfig, TelemetryServer
from repro.trace.generator import GeneratorConfig, random_trace

EVENTS = list(random_trace(GeneratorConfig(length=300, seed=3)).events)


def serve(**kwargs) -> TelemetryServer:
    return TelemetryServer(ServerConfig(
        address="tcp://127.0.0.1:0", shard_mode="inline", n_shards=1, **kwargs
    )).start()


def no_delay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_client_and_accepted_connection_set_nodelay():
    server = serve()
    try:
        client = ResilientClient(server.address, "s", chunk_size=64, retries=0)
        client.connect()
        assert no_delay(client._sock)
        (accepted,) = server._conn_socks
        assert accepted.family == socket.AF_INET
        assert no_delay(accepted)
        client.send_events(EVENTS)
        assert client.close()["events"] == len(EVENTS)
    finally:
        server.stop()


def test_chaos_proxy_sets_nodelay_on_both_legs():
    server = serve()
    proxy = ChaosProxy("tcp://127.0.0.1:0", server.address).start()
    try:
        client = ResilientClient(proxy.address, "s", chunk_size=64, retries=0)
        client.connect()
        (link,) = proxy._links
        assert no_delay(link.client)
        assert no_delay(link.upstream)
        client.send_events(EVENTS)
        assert client.close()["events"] == len(EVENTS)
        assert proxy.stats["connections"] == 1
    finally:
        proxy.stop()
        server.stop()


def test_keep_alive_http_requests_do_not_wait_for_delayed_ack():
    server = serve(http="127.0.0.1:0")
    try:
        host, port = server.http_address.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        round_trips = []
        try:
            for _ in range(5):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert response.read() == b"ok\n"
                round_trips.append(time.perf_counter() - start)
        finally:
            conn.close()
    finally:
        server.stop()
    # Nagle would hold each body behind the client's delayed ACK of its
    # headers: 40 ms or more per request after the first
    assert statistics.median(round_trips) < 0.020, round_trips
