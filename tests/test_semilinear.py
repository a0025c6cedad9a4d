from hypothesis import given, strategies as st

from adtsolve.semilinear import (
    EMPTY, EventuallyPeriodicSet as EPS, normalize, plus, shift, star, union,
)

LIMIT = 200


def explicit(s, limit=LIMIT):
    return {n for n in range(limit) if n in s}


def bits_of(members):
    return sum(1 << n for n in members)


@st.composite
def eps(draw):
    per = draw(st.integers(1, 6))
    res = set(draw(st.lists(st.integers(0, per - 1), max_size=per)))
    thr = draw(st.integers(0, 12))
    exc = {e for e in draw(st.lists(st.integers(0, 11), max_size=4)) if e < thr}
    return canonical(EPS(frozenset(exc), thr, per, frozenset(res)))


def canonical(s):
    """The normal form of a set given by its (possibly non-canonical) fields."""
    return EPS.from_bits(s.threshold, s.period,
                         bits_of(explicit(s, s.threshold + s.period)))


def test_finite_roundtrip():
    s = EPS.from_bits(12, 1, bits_of({3, 5, 9}))
    assert explicit(s, 12) == {3, 5, 9}
    assert s.is_finite
    assert s == EPS(frozenset({3, 5, 9}), 10, 1, frozenset())


def test_empty():
    s = EPS.from_bits(5, 3, 0)
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


# -- arithmetic on forms ------------------------------------------------------

@st.composite
def forms(draw):
    """Canonical forms with periods up to 12, a prime and products of two,
    three and four primes among them, and thresholds up to 16."""
    p = draw(st.integers(1, 12))
    t = draw(st.integers(0, 16))
    return normalize(t, p, draw(st.integers(0, (1 << t + p) - 1)))


def members(a, limit=LIMIT):
    return explicit(EPS.from_bits(*a), limit)


def canonical_form(a):
    assert normalize(*a) == a
    return a


@given(forms(), forms())
def test_union_matches_sets(a, b):
    assert members(canonical_form(union(a, b))) == members(a) | members(b)


def test_union_of_nothing_is_empty():
    assert union() == EMPTY


@given(forms(), forms())
def test_sum_matches_sets(a, b):
    want = {x + y for x in members(a) for y in members(b)}
    assert members(canonical_form(plus(a, b))) == {n for n in want if n < LIMIT}


@given(forms(), st.integers(0, 20))
def test_shift_matches_sets(a, w):
    want = {x + w for x in members(a)}
    assert members(canonical_form(shift(a, w))) == {n for n in want if n < LIMIT}


@given(forms())
def test_star_matches_sets(a):
    gens = sorted(members(a) - {0})
    want = {0}
    for n in range(1, LIMIT):
        if any(n - g in want for g in gens if g <= n):
            want.add(n)
    assert members(canonical_form(star(a))) == want
