"""Spans around calls into the program's public functions.

The traced pass wraps module functions and class methods of the program
in place (and restores them afterwards), so every call into a layer
gets a span ``(name, parent, start_ns, end_ns)`` on its process and
thread.  Spans stay in memory.  Processes forked while the wrappers are
installed (the telemetry server's shard workers) record into their own
copy of the tracer and hand their spans back through a file in
``spool_dir``.

A layer's self time is the sum over its spans of the span's duration
minus the time covered by its child spans (spans opened on the same
thread while it was open).  When layers run on several threads or
processes at once (the streamed session), self times overlap and
would add up to more than the wall time, so :meth:`Tracer.layer_times`
shares each moment evenly among the spans running at that moment: the
innermost open span of each thread.  Spans that only wait for another
process count only at moments when nothing else runs.  On one thread
this is exactly self time.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.perfetto import span_event

_DONE = object()


class Tracer:
    """An in-memory span recorder that installs itself as wrappers."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        #: [name, parent index or -1, start_ns, end_ns, pid, tid]
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0,
                  os.getpid(), threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        """One span around the ``with`` body."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, then=None) -> None:
        """Record a span ``name`` around every call to ``owner.attr``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if then is not None:
                then()
            return result

        self._patch(owner, attr, original, traced)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator: one span per item produced."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            items = iter(original(*args, **kwargs))
            while True:
                with self.span(name):
                    item = next(items, _DONE)
                if item is _DONE:
                    return
                yield item

        self._patch(owner, attr, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- forked processes ------------------------------------------------

    def save_foreign(self) -> None:
        """In a forked process: write this process's spans to the spool."""
        pid = os.getpid()
        if pid == self.owner_pid:
            return
        local: Dict[int, int] = {}
        mine = []
        for i, (name, parent, start, end, span_pid, tid) in enumerate(self.spans):
            if span_pid == pid:
                local[i] = len(mine)
                mine.append([name, local.get(parent, -1), start, end, pid, tid])
        path = self.spool_dir / f"spans-{pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(mine), encoding="utf-8")
        os.replace(tmp, path)

    def load_foreign(self) -> None:
        """Adopt the spans forked processes saved."""
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            base = len(self.spans)
            for name, parent, start, end, pid, tid in json.loads(
                    path.read_text(encoding="utf-8")):
                self.spans.append([name, parent + base if parent >= 0 else -1,
                                   start, end, pid, tid])

    # -- analysis --------------------------------------------------------

    def layer_times(self, window: Optional[Tuple[int, int]] = None,
                    exclude=(), waits=()) -> Dict[str, float]:
        """Seconds of the ``window`` attributed to each span name.

        Spans named in ``exclude`` are ignored; those in ``waits`` only
        count at moments when no other span runs (module docstring).
        """
        lo, hi = window if window is not None else (0, float("inf"))
        events = []
        for i, (name, _parent, start, end, pid, tid) in enumerate(self.spans):
            start, end = max(start, lo), min(end, hi)
            if name in exclude or end <= start:
                continue
            # ends sort before starts at one instant; inner spans end first
            events.append((start, 1, i, (pid, tid)))
            events.append((end, 0, -i, (pid, tid)))
        events.sort()
        stacks: Dict[Tuple[int, int], List[int]] = {}
        totals: Dict[str, float] = {}
        last = None
        for now, is_start, key, thread in events:
            if last is not None and now > last:
                tops = [s[-1] for s in stacks.values() if s]
                work = [i for i in tops if self.spans[i][0] not in waits]
                running = work or tops
                for i in running:
                    name = self.spans[i][0]
                    totals[name] = (totals.get(name, 0.0)
                                    + (now - last) / len(running) / 1e9)
            last = now
            if is_start:
                stacks.setdefault(thread, []).append(key)
            else:
                stacks[thread].remove(-key)
        return totals

    def trace_events(self) -> List[Dict]:
        """The spans as Chrome-trace events (microseconds; Perfetto)."""
        return [
            span_event(name, start // 1000, (end - start) // 1000, pid, tid,
                       cat="layer",
                       args={"parent": self.spans[parent][0] if parent >= 0 else None})
            for name, parent, start, end, pid, tid in self.spans
        ]
