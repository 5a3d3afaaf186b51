"""Socket setup for every telemetry peer: addresses, dialing, listening.

The client, the front tier and the chaos proxy open their sockets here,
so the transport policy lives in one place:

* an address is ``tcp://host:port`` or ``unix:///path``
  (:func:`parse_address`);
* every TCP socket turns off Nagle's algorithm (``TCP_NODELAY``):
  :func:`dial` sets it on the sockets it opens, and the server and the
  chaos proxy call :func:`nodelay` on each connection they accept.
  Each frame is written with one ``sendall``, and a peer often waits
  for a small frame written right behind one it has not acknowledged
  yet: a closing client for the last CREDITs of its window, an HTTP
  client for the body behind the headers.  With Nagle on, that frame
  waits for the peer's delayed ACK, at least 40 ms on Linux.  Unix
  sockets have no Nagle and are left as they are.

The HTTP sidecar's connections get the same policy from the standard
library (``StreamRequestHandler.disable_nagle_algorithm``).
"""

from __future__ import annotations

import os
import socket
from typing import Optional, Tuple

__all__ = ["dial", "listen", "nodelay", "parse_address"]


def parse_address(address: str) -> Tuple[str, object]:
    """Parse ``tcp://host:port`` or ``unix:///path`` into (kind, target)."""
    if address.startswith("tcp://"):
        rest = address[len("tcp://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(f"tcp address needs host:port, got {address!r}")
        try:
            return ("tcp", (host, int(port)))
        except ValueError:
            raise ValueError(f"bad port in address {address!r}") from None
    if address.startswith("unix://"):
        path = address[len("unix://"):]
        if not path:
            raise ValueError(f"unix address needs a path, got {address!r}")
        return ("unix", path)
    raise ValueError(
        f"address must start with tcp:// or unix://, got {address!r}"
    )


def nodelay(sock: socket.socket) -> socket.socket:
    """Turn off Nagle's algorithm on a TCP socket; returns ``sock``."""
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # a peer that already reset: the next read reports it
    return sock


def dial(address: str, timeout: Optional[float]) -> socket.socket:
    """A connected socket to ``address``."""
    kind, target = parse_address(address)
    if kind == "tcp":
        return nodelay(socket.create_connection(target, timeout=timeout))
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(target)
    except BaseException:
        sock.close()
        raise
    return sock


def listen(address: str) -> Tuple[socket.socket, str, Optional[str]]:
    """A listening socket on ``address``, the address it is bound to,
    and the Unix socket path to remove when done (``None`` for TCP).

    Port 0 binds an ephemeral port, named in the returned address; a
    stale Unix socket file at the path is replaced.  ``accept`` times
    out every 0.2 s, so an accept loop sees its stop flag.
    """
    kind, target = parse_address(address)
    if kind == "tcp":
        host, port = target
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        bound = f"tcp://{host}:{sock.getsockname()[1]}"
        unix_path = None
    else:
        if os.path.exists(target):
            os.unlink(target)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(target)
        bound = f"unix://{target}"
        unix_path = target
    sock.listen(16)
    sock.settimeout(0.2)
    return sock, bound, unix_path
