"""Deterministic fault injection for the resilient experiment runner.

The supervisor's crash-isolation, retry, and quarantine machinery
(:mod:`repro.analysis.supervisor`) would be untestable folklore without
a way to *make* workers fail on demand — reproducibly, so a chaos run
in CI fails the same way on every machine.  This module provides that:

* a :class:`FaultPlan` — a tiny declarative grammar, parsed from the
  ``REPRO_FAULT_PLAN`` environment variable (or a ``--fault-plan``
  flag), describing which trials fail, how, and how many times;
* :func:`execute_fault` — the worker-side actuator that turns a matched
  rule into an actual crash / hang / exception / corrupted result;
* byte-corruption helpers (:func:`flip_byte`, :func:`truncate_bytes`)
  used by the trace-integrity tests to prove the binio CRC trailer
  catches what it claims to catch.

Fault-plan grammar
------------------

A plan is a ``;``-separated list of rules::

    rule     := kind "@" selector [ "*" times ]
    kind     := "crash" | "hang" | "raise" | "corrupt"
    selector := INDEX | "seed%" MOD "=" REM
    times    := COUNT | "inf"

``INDEX`` matches one task by its position in the expanded matrix (the
same index the checkpoint journal and quarantine report use).  The
``seed%M=R`` form instead matches every task whose :func:`task_seed
<repro.analysis.parallel.task_seed>` satisfies ``seed % M == R`` — a
position-independent selector keyed off the trial's own deterministic
identity.  ``times`` bounds how many *attempts* fire the fault: the
default ``1`` makes a transient failure (the retry succeeds), ``*inf``
makes a poison task that the supervisor must quarantine.

Examples::

    crash@3                 worker running task 3 dies (first attempt only)
    hang@5*2                task 5 hangs on attempts 1 and 2, then succeeds
    raise@7*inf             task 7 is poison: raises on every attempt
    corrupt@seed%13=4       corrupt the result of tasks with seed % 13 == 4

Everything here is a pure function of (task index, task seed, attempt
number) — no RNG, no wall clock — so a plan produces the identical fault
sequence on every run, which the determinism pins in
``tests/test_supervisor.py`` rely on.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "WIRE_FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "FaultPlanError",
    "FaultRule",
    "FaultPlan",
    "execute_fault",
    "flip_byte",
    "truncate_bytes",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: the four failure modes a worker can exhibit
FAULT_KINDS = ("crash", "hang", "raise", "corrupt")

#: wire-level failure modes, actuated by :class:`repro.net.chaos.ChaosProxy`
#: against telemetry frames instead of worker processes.  Same grammar,
#: different actuator: the selector's *index* is the frame's position on
#: its connection and *seed* is a pure position hash of (plan seed,
#: connection, frame), so one plan string replays the identical
#: byte-level fault sequence on every run — even though retransmitted
#: frames carry fresh wall-clock stamps.
WIRE_FAULT_KINDS = (
    "conn_drop",       # close both sides before forwarding the frame
    "frame_corrupt",   # flip one byte inside the frame, then forward
    "frame_truncate",  # forward a prefix of the frame, then drop the link
    "stall",           # long pause before forwarding (slow-client shape)
    "delay",           # short pause before forwarding (jittery link)
    "dup",             # forward the frame twice
)

#: exit code of an injected crash — distinctive in quarantine reports
CRASH_EXIT_CODE = 86

#: how long an injected hang sleeps; far beyond any sane task timeout,
#: finite so an unsupervised test run still terminates eventually
HANG_SECONDS = 3600.0

#: ``times`` value meaning "every attempt" (a poison task)
INFINITE = -1


class FaultPlanError(ValueError):
    """A fault-plan string that does not follow the grammar."""


class FaultInjected(RuntimeError):
    """The exception thrown by a ``raise`` fault."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule: which kind fires, for whom, how many times."""

    kind: str
    #: match by position in the expanded matrix (None: use ``mod``)
    index: Optional[int] = None
    #: match by ``task_seed % mod[0] == mod[1]`` (None: use ``index``)
    mod: Optional[Tuple[int, int]] = None
    #: attempts 1..times fire the fault; ``INFINITE`` fires forever
    times: int = 1

    def matches(self, index: int, seed: int, attempt: int) -> bool:
        if self.times != INFINITE and attempt > self.times:
            return False
        if self.index is not None:
            return index == self.index
        assert self.mod is not None
        divisor, remainder = self.mod
        return seed % divisor == remainder

    def spec(self) -> str:
        """Render back to grammar form (for reports and round-trips)."""
        sel = str(self.index) if self.index is not None else (
            f"seed%{self.mod[0]}={self.mod[1]}"
        )
        times = "" if self.times == 1 else (
            "*inf" if self.times == INFINITE else f"*{self.times}"
        )
        return f"{self.kind}@{sel}{times}"


def _parse_rule(text: str, kinds: Tuple[str, ...] = FAULT_KINDS) -> FaultRule:
    head, sep, sel = text.partition("@")
    if not sep:
        raise FaultPlanError(f"fault rule {text!r} is missing '@selector'")
    kind = head.strip()
    if kind not in kinds:
        raise FaultPlanError(
            f"unknown fault kind {kind!r} (choices: {', '.join(kinds)})"
        )
    sel = sel.strip()
    times = 1
    if "*" in sel:
        sel, _, times_text = sel.rpartition("*")
        times_text = times_text.strip()
        if times_text == "inf":
            times = INFINITE
        else:
            try:
                times = int(times_text)
            except ValueError:
                raise FaultPlanError(
                    f"bad times {times_text!r} in rule {text!r} (want int or 'inf')"
                ) from None
            if times < 1:
                raise FaultPlanError(f"times must be >= 1 in rule {text!r}")
        sel = sel.strip()
    if sel.startswith("seed%"):
        body = sel[len("seed%"):]
        mod_text, eq, rem_text = body.partition("=")
        if not eq:
            raise FaultPlanError(f"bad selector {sel!r} (want seed%M=R)")
        try:
            divisor, remainder = int(mod_text), int(rem_text)
        except ValueError:
            raise FaultPlanError(f"bad selector {sel!r} (want seed%M=R)") from None
        if divisor <= 0:
            raise FaultPlanError(f"modulus must be positive in {sel!r}")
        return FaultRule(kind, mod=(divisor, remainder % divisor), times=times)
    try:
        index = int(sel)
    except ValueError:
        raise FaultPlanError(
            f"bad selector {sel!r} (want a task index or seed%M=R)"
        ) from None
    if index < 0:
        raise FaultPlanError(f"task index must be >= 0 in {sel!r}")
    return FaultRule(kind, index=index, times=times)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, order-preserving set of fault rules."""

    rules: Tuple[FaultRule, ...]

    @classmethod
    def parse(
        cls, text: str, kinds: Tuple[str, ...] = FAULT_KINDS
    ) -> "FaultPlan":
        """Parse the grammar documented in the module docstring.

        ``kinds`` selects the vocabulary: :data:`FAULT_KINDS` for worker
        faults (the default), :data:`WIRE_FAULT_KINDS` for the network
        chaos proxy.  The rule/selector/times grammar is shared.
        """
        rules = tuple(
            _parse_rule(chunk.strip(), kinds)
            for chunk in text.split(";")
            if chunk.strip()
        )
        if not rules:
            raise FaultPlanError(f"fault plan {text!r} contains no rules")
        return cls(rules)

    @classmethod
    def from_env(
        cls,
        env: Optional[Mapping[str, str]] = None,
        kinds: Tuple[str, ...] = FAULT_KINDS,
    ) -> Optional["FaultPlan"]:
        """The plan in ``REPRO_FAULT_PLAN``, or None when unset/empty."""
        text = (env if env is not None else os.environ).get(FAULT_PLAN_ENV, "")
        return cls.parse(text, kinds) if text.strip() else None

    def match(self, index: int, seed: int, attempt: int) -> Optional[FaultRule]:
        """The first rule firing for this (task, attempt), or None."""
        for rule in self.rules:
            if rule.matches(index, seed, attempt):
                return rule
        return None

    def spec(self) -> str:
        return ";".join(rule.spec() for rule in self.rules)


def execute_fault(rule: FaultRule) -> None:
    """Actuate a matched rule inside a worker process.

    ``crash`` exits the interpreter bypassing all cleanup (the closest
    portable stand-in for a segfault/OOM-kill); ``hang`` sleeps past any
    reasonable task timeout; ``raise`` throws :class:`FaultInjected`.
    ``corrupt`` is a no-op here — the *caller* mutates the result after
    computing it, since only it holds the value to damage.
    """
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if rule.kind == "hang":
        deadline = time.monotonic() + HANG_SECONDS
        while time.monotonic() < deadline:  # pragma: no cover - killed first
            time.sleep(0.1)
        return
    if rule.kind == "raise":
        raise FaultInjected(f"injected fault: {rule.spec()}")
    # "corrupt": handled by the caller


# -- byte-corruption helpers (trace-integrity tests) --------------------------


def flip_byte(data: bytes, offset: int, mask: int = 0xFF) -> bytes:
    """Return ``data`` with the byte at ``offset`` XOR-ed by ``mask``.

    Negative offsets count from the end, as with indexing.  The mask
    defaults to flipping every bit so the change can never be a no-op.
    """
    if mask == 0:
        raise ValueError("mask 0 would be a no-op corruption")
    out = bytearray(data)
    out[offset] ^= mask
    return bytes(out)


def truncate_bytes(data: bytes, drop: int) -> bytes:
    """Return ``data`` with the last ``drop`` bytes removed."""
    if drop <= 0:
        raise ValueError(f"drop must be positive, got {drop}")
    if drop >= len(data):
        return b""
    return data[:-drop]
