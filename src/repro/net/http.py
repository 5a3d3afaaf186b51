"""The observability HTTP sidecar: ``/metrics``, ``/status``, ``/healthz``.

A tiny stdlib HTTP server (``http.server.ThreadingHTTPServer`` on a
daemon thread) that exposes the telemetry server's state to standard
tooling without any new dependencies:

* ``GET /metrics`` — the merged metrics registry rendered in Prometheus
  text exposition format (:func:`repro.obs.prom.render_prometheus`).
  Cheap by default: it folds the per-session snapshots captured at the
  last finalize instead of re-finalizing every session per scrape; pass
  ``?refresh=1`` to force a full merge-tier fold first.
* ``GET /status`` — the live ``repro/telemetry-status/v1`` document as
  JSON (the same document QUERY serves on the wire), for ``repro top``
  and scripted dashboards that prefer HTTP to the framed protocol.
* ``GET /healthz`` — ``200 ok`` while the server is accepting; once a
  graceful drain begins it answers ``503 draining`` (and after a full
  stop, ``503 stopped``) so load balancers pull the instance *before*
  the listener closes.  The lifecycle string also rides ``/status`` as
  ``server.lifecycle``.

Enable it with ``ServerConfig(http="127.0.0.1:9464")`` or ``repro serve
--http``; port 0 binds an ephemeral port, published via
``TelemetryServer.http_address``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

__all__ = ["ObservabilityHTTPServer", "parse_http_address"]


def parse_http_address(address: str) -> tuple:
    """``host:port`` (or bare ``:port`` / ``port``) -> (host, port)."""
    address = address.strip()
    if address.startswith("http://"):
        address = address[len("http://"):]
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "", address
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(
            f"http address must be host:port, got {address!r}"
        ) from None


class _Handler(BaseHTTPRequestHandler):
    # the telemetry server is attached to the HTTPServer instance
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY, like every telemetry socket: the body is a second
    # write behind the headers, which a keep-alive client's delayed ACK
    # would otherwise hold back 40 ms
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: N802 - stdlib name
        pass  # scrapes are not server events; keep the log clean

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - stdlib name
        telemetry = self.server.telemetry  # type: ignore[attr-defined]
        url = urlparse(self.path)
        try:
            if url.path == "/metrics":
                refresh = "refresh=1" in (url.query or "")
                body = telemetry.prometheus_text(refresh=refresh).encode("utf-8")
                self._reply(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif url.path == "/status":
                doc = telemetry.query_doc()
                body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
                self._reply(200, body, "application/json")
            elif url.path == "/healthz":
                lifecycle = getattr(telemetry, "lifecycle", "serving")
                if lifecycle == "serving":
                    self._reply(200, b"ok\n", "text/plain; charset=utf-8")
                else:
                    # draining/stopped: tell load balancers to stop
                    # routing while in-flight sessions finish
                    self._reply(
                        503,
                        f"{lifecycle}\n".encode("utf-8"),
                        "text/plain; charset=utf-8",
                    )
            else:
                self._reply(404, b"not found\n", "text/plain; charset=utf-8")
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(
                500,
                f"internal error: {exc}\n".encode("utf-8"),
                "text/plain; charset=utf-8",
            )


class ObservabilityHTTPServer:
    """The scrape endpoint, bound at construction, served on a daemon."""

    def __init__(self, telemetry, address: str) -> None:
        host, port = parse_http_address(address)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = telemetry  # type: ignore[attr-defined]
        bound_host, bound_port = self._httpd.server_address[:2]
        self.address = f"{bound_host}:{bound_port}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="telemetry-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
