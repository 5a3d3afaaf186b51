"""The one-pass vector-clock primitives against the two-walk originals.

:meth:`VectorClock.ahead_of` is one comparison pass: the indices where
one clock exceeds another, empty exactly when ``⊑`` holds.  ``leq`` and
``join`` are built on it, and PACER's Rules 5/6 (Table 7) take it once
per slow join, passing the indices to ``join``.  The two functions below
are the implementations the pass replaced, kept verbatim as references:
a Python ``leq`` loop, and a ``join`` that rebuilds every entry with a
list comprehension.

Drawn clock pairs cover unequal lengths, trailing zeros, empty and equal
clocks, the same list on both sides, and values above 256, so equal
entries are not the same ``int`` object.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.clocks import VectorClock


def reference_join(self, other):
    """In-place pointwise maximum: ``self <- self ⊔ other``."""
    mine, theirs = self._c, other._c
    if mine == theirs:
        return
    lt = len(theirs)
    if lt > len(mine):
        mine.extend([0] * (lt - len(mine)))
    mine[:lt] = [m if m >= t else t for m, t in zip(mine, theirs)]


def reference_leq(self, other):
    """Pointwise comparison ``self ⊑ other``."""
    mine, theirs = self._c, other._c
    n = len(theirs)
    for i, value in enumerate(mine):
        if value and (i >= n or value > theirs[i]):
            return False
    return True


def reference_ahead(a, b):
    """Indices ``i`` with ``a[i] > b[i]``, absent entries reading 0."""
    return [i for i in range(len(a)) if a.get(i) > b.get(i)]


def fresh(values):
    """An equal list whose entries above 256 are new ``int`` objects."""
    return [int(str(v)) for v in values]


values = st.lists(st.integers(0, 1000), max_size=24)


@st.composite
def clock_pairs(draw):
    """``(a, b)`` component lists; ``b is a`` for the same-list case."""
    a = draw(values)
    shape = draw(st.sampled_from(
        ["independent", "equal", "perturbed", "same"]))
    if shape == "same":
        return a, a
    if shape == "independent":
        b = draw(values)
    else:
        b = fresh(a)
        if shape == "perturbed" and b:
            for i in draw(st.lists(st.integers(0, len(b) - 1), max_size=4)):
                b[i] = draw(st.integers(0, 1000))
    if draw(st.booleans()):
        b = b[:draw(st.integers(0, len(b)))]
    a = a + [0] * draw(st.integers(0, 3))  # trailing zeros
    b = b + [0] * draw(st.integers(0, 3))
    return a, b


def clocks(pair):
    """Fresh clocks over ``pair``; the same-list case shares one list."""
    a_values, b_values = pair
    a = VectorClock(a_values)
    if b_values is a_values:
        return a, a
    return a, VectorClock(b_values)


PAIRS = [([], []), ([0, 0], []), ([], [0, 0]), ([300, 2], [300, 2]),
         ([1, 0, 0], [1]), ([1], [1, 0, 0]), ([0, 0, 5], [9])]


def _examples(test):
    for a, b in PAIRS:
        test = example((a, fresh(b)))(test)
    shared = [700, 0, 3]
    return example((shared, shared))(test)


@_examples
@settings(max_examples=400, deadline=None)
@given(clock_pairs())
def test_ahead_of_matches_reference(pair):
    a, b = clocks(pair)
    for x, y in ((a, b), (b, a)):
        ahead = x.ahead_of(y)
        assert ahead == reference_ahead(x, y)
        assert (not ahead) == reference_leq(x, y)


@_examples
@settings(max_examples=400, deadline=None)
@given(clock_pairs())
def test_leq_matches_reference(pair):
    a, b = clocks(pair)
    assert a.leq(b) == reference_leq(a, b)
    assert b.leq(a) == reference_leq(b, a)
    assert (a == b) == (reference_leq(a, b) and reference_leq(b, a))


@_examples
@settings(max_examples=400, deadline=None)
@given(clock_pairs())
def test_join_matches_reference(pair):
    a, b = clocks(pair)
    source = list(b._c)
    expected, other = clocks(pair)
    reference_join(expected, other)
    a.join(b)
    assert a._c == expected._c  # length included: zero tails count
    assert b is a or b._c == source  # a join only reads its source


@_examples
@settings(max_examples=400, deadline=None)
@given(clock_pairs())
def test_join_with_taken_pass_matches_reference(pair):
    # PACER's Rule 6: the pass that chose the rule is handed to join,
    # so it is taken before join extends the target.
    a, b = clocks(pair)
    expected, other = clocks(pair)
    reference_join(expected, other)
    a.join(b, b.ahead_of(a))
    assert a._c == expected._c
