"""Property-based fuzzing of the trace serialization formats.

Two invariants, checked with hypothesis over arbitrary event lists and
arbitrary corrupted payloads:

* **lossless round-trip** — any encodable event list survives
  ``dumps_binary``/``loads_binary`` and ``dumps_trace``/``loads_trace``
  byte-for-byte and field-for-field;
* **clean failure** — truncated, bit-flipped, or garbage input never
  yields garbage events or an uncontrolled exception: the loaders either
  return a well-formed :class:`Trace` or raise
  :class:`TraceFormatError`/:class:`TraceError`, nothing else.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.binio import (
    MAGIC,
    SUPPORTED_VERSIONS,
    VERSION,
    VERSION_1,
    dumps_binary,
    loads_binary,
)
from repro.trace.events import (
    ACQUIRE,
    ALLOC,
    Event,
    FORK,
    JOIN,
    METHOD_ENTER,
    METHOD_EXIT,
    READ,
    RELEASE,
    SBEGIN,
    SEND,
    VOL_READ,
    VOL_WRITE,
    WRITE,
)
from repro.trace.textio import dumps_trace, loads_trace
from repro.trace.trace import TraceError, TraceFormatError

OPERAND_KINDS = [
    READ, WRITE, ACQUIRE, RELEASE, FORK, JOIN,
    VOL_READ, VOL_WRITE, METHOD_ENTER, METHOD_EXIT, ALLOC,
]

# the binary format bounds: tid >= -1, target >= 0, site within int64
operand_events = st.builds(
    Event,
    kind=st.sampled_from(OPERAND_KINDS),
    tid=st.integers(min_value=-1, max_value=2**20),
    target=st.integers(min_value=0, max_value=2**48),
    site=st.integers(min_value=-(2**62), max_value=2**62),
)

#: markers carry no operands; both codecs canonicalize them to (-1, 0, 0)
marker_events = st.sampled_from([Event(SBEGIN, -1, 0), Event(SEND, -1, 0)])

event_lists = st.lists(
    st.one_of(operand_events, operand_events, marker_events), max_size=60
)

CLEAN_ERRORS = (TraceFormatError, TraceError)

#: every binary version, each written and read
versions = st.sampled_from(SUPPORTED_VERSIONS)


# -- lossless round-trip -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(event_lists, versions)
def test_binary_roundtrip_lossless(events, version):
    data = dumps_binary(events, version)
    decoded = list(loads_binary(data, validate=False))
    assert decoded == events
    # re-encoding the decode reproduces the bytes exactly
    assert dumps_binary(decoded, version) == data


@settings(max_examples=150, deadline=None)
@given(event_lists)
def test_text_roundtrip_lossless(events):
    text = dumps_trace(events)
    decoded = list(loads_trace(text, validate=False))
    assert decoded == events
    assert dumps_trace(decoded) == text


@settings(max_examples=60, deadline=None)
@given(event_lists, versions)
def test_binary_text_agree(events, version):
    via_binary = list(loads_binary(dumps_binary(events, version), validate=False))
    via_text = list(loads_trace(dumps_trace(events), validate=False))
    assert via_binary == via_text


# -- truncation ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(event_lists.filter(lambda evs: len(evs) > 0), versions, st.data())
def test_binary_truncation_raises_cleanly(events, version, data):
    payload = dumps_binary(events, version)
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    with pytest.raises(TraceFormatError):
        loads_binary(payload[:cut], validate=False)


# -- corruption ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(event_lists, versions, st.data())
def test_binary_bitflip_never_yields_garbage(events, version, data):
    """A flipped byte either still decodes to *some* valid trace or
    raises a clean, typed error — never IndexError/KeyError/etc."""
    payload = bytearray(dumps_binary(events, version))
    pos = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    payload[pos] ^= flip
    try:
        trace = loads_binary(bytes(payload), validate=True)
    except CLEAN_ERRORS:
        return
    for e in trace:
        assert e.kind and e.tid >= -1 and e.target >= 0


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_binary_arbitrary_bytes_never_crash(data):
    try:
        loads_binary(data, validate=True)
    except CLEAN_ERRORS:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_text_arbitrary_text_never_crashes(text):
    try:
        loads_trace(text, validate=True)
    except CLEAN_ERRORS:
        pass


@settings(max_examples=100, deadline=None)
@given(event_lists, st.text(max_size=40), st.integers(min_value=0, max_value=60))
def test_text_injected_garbage_line_raises_cleanly(events, garbage, at):
    lines = dumps_trace(events).splitlines()
    lines.insert(min(at, len(lines)), garbage)
    try:
        loads_trace("\n".join(lines), validate=False)
    except CLEAN_ERRORS:
        pass


# -- targeted corrupt headers (deterministic, always-run examples) ------------


def test_bad_magic_rejected():
    good = dumps_binary([Event(READ, 0, 1, 2)])
    with pytest.raises(TraceFormatError, match="magic"):
        loads_binary(b"XXXX" + good[4:])


def test_bad_version_rejected():
    good = bytearray(dumps_binary([Event(READ, 0, 1, 2)]))
    good[4] = VERSION + 1
    with pytest.raises(TraceFormatError, match="version"):
        loads_binary(bytes(good))


def test_overlong_count_rejected_before_allocating():
    """A corrupt huge count must fail fast, not loop for 2**40 events."""
    payload = bytearray()
    payload += MAGIC
    payload.append(VERSION)
    payload += bytes([0x80, 0x80, 0x80, 0x80, 0x80, 0x20])  # varint 2**40
    with pytest.raises(TraceFormatError, match="count"):
        loads_binary(bytes(payload))


def test_trailing_bytes_rejected():
    good = dumps_binary([Event(WRITE, 1, 7, 3)])
    with pytest.raises(TraceFormatError, match="trailing"):
        loads_binary(good + b"\x00")


def test_unterminated_varint_rejected():
    # v1 layout: no trailer, so the lone continuation byte is read as the
    # (never-ending) count varint itself
    payload = MAGIC + bytes([VERSION_1]) + b"\x81"
    with pytest.raises(TraceFormatError, match="varint"):
        loads_binary(payload)


def test_text_unknown_kind_names_line():
    with pytest.raises(TraceFormatError, match="line 2"):
        loads_trace("rd 0 1\nbogus 0 1\n", validate=False)


def test_text_non_integer_operand_names_line():
    with pytest.raises(TraceFormatError, match="line 1"):
        loads_trace("rd zero 1\n", validate=False)
