"""Plain-text trace serialization.

LiteRace's native mode is offline analysis over logged traces (paper
§2.3); this module provides the log format: one event per line,

    <kind> <tid> <target> [site]

with ``#`` comments and blank lines ignored.  ``sbegin``/``send`` take no
operands.  The format round-trips exactly through
:func:`dump_trace`/:func:`load_trace`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, TextIO, Union

from .events import Event, KINDS, SBEGIN, SEND
from .trace import Trace, TraceFormatError

__all__ = ["dump_trace", "load_trace", "dumps_trace", "loads_trace"]


def _format_event(e: Event) -> str:
    if e.kind in (SBEGIN, SEND):
        return e.kind
    if e.site:
        return f"{e.kind} {e.tid} {e.target} {e.site}"
    return f"{e.kind} {e.tid} {e.target}"


def _parse_line(line: str, lineno: int) -> Event:
    parts = line.split()
    kind = parts[0]
    if kind not in KINDS:
        raise TraceFormatError(f"line {lineno}: unknown event kind {kind!r}")
    if kind in (SBEGIN, SEND):
        if len(parts) != 1:
            raise TraceFormatError(f"line {lineno}: {kind} takes no operands")
        return Event(kind, -1, 0, 0)
    if len(parts) not in (3, 4):
        raise TraceFormatError(
            f"line {lineno}: expected '<kind> <tid> <target> [site]', got {line!r}"
        )
    try:
        tid, target = int(parts[1]), int(parts[2])
        site = int(parts[3]) if len(parts) == 4 else 0
    except ValueError:
        raise TraceFormatError(
            f"line {lineno}: non-integer operand in {line!r}"
        ) from None
    return Event(kind, tid, target, site)


def dumps_trace(events: Iterable[Event]) -> str:
    """Serialize events to the text format."""
    return "\n".join(_format_event(e) for e in events) + "\n"


def loads_trace(text: str, validate: bool = True) -> Trace:
    """Parse the text format into a :class:`Trace`."""
    events: List[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        events.append(_parse_line(line, lineno))
    return Trace.from_iterable(events, validate)


def dump_trace(events: Iterable[Event], path: Union[str, Path]) -> None:
    """Write events to ``path`` in the text format."""
    Path(path).write_text(dumps_trace(events))


def load_trace(path: Union[str, Path], validate: bool = True) -> Trace:
    """Read a trace file written by :func:`dump_trace`."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not a text trace: {exc}") from None
    return loads_trace(text, validate=validate)
