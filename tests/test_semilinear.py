from hypothesis import given, strategies as st

from adtsolve.semilinear import EventuallyPeriodicSet as EPS

LIMIT = 200


def explicit(s, limit=LIMIT):
    return {n for n in range(limit) if n in s}


@st.composite
def eps(draw):
    per = draw(st.integers(1, 6))
    res = set(draw(st.lists(st.integers(0, per - 1), max_size=per)))
    thr = draw(st.integers(0, 12))
    exc = {e for e in draw(st.lists(st.integers(0, 11), max_size=4)) if e < thr}
    return canonical(EPS(frozenset(exc), thr, per, frozenset(res)))


def canonical(s):
    """The normal form of a set given by its (possibly non-canonical) fields."""
    return EPS.from_window(s.__contains__, s.threshold, s.period)


def test_finite_roundtrip():
    s = EPS.from_window({3, 5, 9}.__contains__, 12, 1)
    assert explicit(s, 12) == {3, 5, 9}
    assert s.is_finite
    assert s == EPS(frozenset({3, 5, 9}), 10, 1, frozenset())


def test_empty():
    s = EPS.from_window(lambda n: False, 5, 3)
    assert s.is_empty
    assert explicit(s) == set()
    assert s == EPS(frozenset(), 0, 1, frozenset())


def test_canonical_minimal_period():
    # residues {1, 3} mod 4 are really {1} mod 2
    s = canonical(EPS(frozenset(), 0, 4, frozenset({1, 3})))
    assert s.period == 2
    assert s.residues == frozenset({1})


def test_canonical_minimal_threshold():
    # an exception that agrees with the tail folds into it
    s = canonical(EPS(frozenset({1}), 3, 2, frozenset({1})))
    assert s.threshold <= 1
    assert explicit(s, 10) == {1, 3, 5, 7, 9}


def test_odds():
    odds = EPS(frozenset(), 0, 2, frozenset({1}))
    assert explicit(odds, 10) == {1, 3, 5, 7, 9}
    assert not odds.is_finite


@given(eps(), eps())
def test_canonical_forms_are_unique(a, b):
    # periods <= 6 and thresholds <= 12: agreement below 100 decides equality
    assert (explicit(a, 100) == explicit(b, 100)) == (a == b)
