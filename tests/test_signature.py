import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adtsolve import signature
from adtsolve.corpus import random_signature
from adtsolve.errors import InvalidSignatureError, ResourceLimitError, UnknownSymbolError
from adtsolve.semilinear import EventuallyPeriodicSet as EPS, _bits_below
from adtsolve.signature import (
    CtorDecl, Signature, _cycle_through, _eliminate_singletons, _grammar,
    _image_bits, _lap, cardinality, check_expanding, ctor_index,
    count_terms_of_size, enumerate_terms, minimal_term, num_ctors,
    relativized_size_image, size_image, terms_of_size, validate,
)
from adtsolve.terms import Ctor, ground_size

# generated signatures (lists, trees, products and Nat-like sorts over enums)
# are extra inputs to the cross-checks below
RANDOM_SIGS = [random_signature(random.Random(seed)) for seed in range(12)]


# -- validation --------------------------------------------------------------

def test_validate_lists_ok(lists_sig):
    assert validate(lists_sig) == []


def test_validate_nat_ok(nat_sig):
    assert validate(nat_sig) == []


def test_validate_empty_sort():
    sig = Signature(("S",), (CtorDecl("f", "S", (("s", "S"),)),))
    issues = validate(sig)
    assert [(i.code, i.symbol) for i in issues] == [("empty-sort", "S")]


def test_validate_duplicate_names():
    sig = Signature(("S", "S"), (CtorDecl("a", "S"), CtorDecl("a", "S")))
    codes = {(i.code, i.symbol) for i in validate(sig)}
    assert ("duplicate-name", "S") in codes
    assert ("duplicate-name", "a") in codes


def test_validate_unknown_sort():
    sig = Signature(("S",), (CtorDecl("f", "S", (("g", "T"),)),))
    assert ("unknown-sort", "T") in {(i.code, i.symbol) for i in validate(sig)}


def test_cardinality_requires_valid_signature():
    sig = Signature(("S",), (CtorDecl("f", "S", (("s", "S"),)),))
    with pytest.raises(InvalidSignatureError):
        cardinality(sig, "S")


# -- indices -------------------------------------------------------------------

def test_ctor_index_lists(lists_sig):
    assert ctor_index(lists_sig, "cons") == 1
    assert ctor_index(lists_sig, "nil") == 0
    assert ctor_index(lists_sig, "blue") == 2
    assert ctor_index(lists_sig, "red") == 0


def test_num_ctors(lists_sig):
    assert num_ctors(lists_sig, "Colour") == 3
    assert num_ctors(lists_sig, "CList") == 2


def test_unknown_symbol(lists_sig):
    with pytest.raises(UnknownSymbolError):
        ctor_index(lists_sig, "snoc")
    with pytest.raises(UnknownSymbolError):
        num_ctors(lists_sig, "Word")


def test_index_is_bijection(lists_sig, two_cycle_sig):
    for sig in (lists_sig, two_cycle_sig):
        for sort in sig.sorts:
            indices = [ctor_index(sig, c.name) for c in sig.ctors_of(sort)]
            assert sorted(indices) == list(range(num_ctors(sig, sort)))


# -- cardinality ------------------------------------------------------------------

def test_cardinality_examples(lists_sig):
    assert cardinality(lists_sig, "Colour") == 3
    assert cardinality(lists_sig, "CList") is None


def test_cardinality_pair_of_colours():
    sig = Signature(("Colour", "P"), (
        CtorDecl("red", "Colour"), CtorDecl("green", "Colour"), CtorDecl("blue", "Colour"),
        CtorDecl("mk", "P", (("a", "Colour"), ("b", "Colour"))),
    ))
    # oracle: enumerate every term
    count = sum(len(terms_of_size(sig, "P", b)) for b in range(1, 10))
    assert count == 9
    assert cardinality(sig, "P") == 9


def test_cardinality_agrees_with_enumeration(lists_sig, two_cycle_sig):
    for sig in (lists_sig, two_cycle_sig, *RANDOM_SIGS):
        for sort in sig.sorts:
            card = cardinality(sig, sort)
            if card is not None:
                total = sum(count_terms_of_size(sig, sort, b) for b in range(26))
                assert total == card


# -- size images ---------------------------------------------------------------------

def test_size_image_clist_is_odd(lists_sig):
    assert size_image(lists_sig, "CList") == EPS(frozenset(), 0, 2, frozenset({1}))


def test_size_image_colour(lists_sig):
    assert size_image(lists_sig, "Colour") == EPS(frozenset({1}), 2, 1, frozenset())


def test_size_image_nat(nat_sig):
    image = size_image(nat_sig, "Nat")
    # oracle: enumerate Nat terms up to size 30
    realized = {b for b in range(31) if terms_of_size(nat_sig, "Nat", b)}
    assert realized == {b for b in range(1, 31)}
    assert image == EPS(frozenset(), 1, 1, frozenset({0}))


def _headed_count(sig, ctor, b):
    """Terms of size b headed by ctor: argument counts over the ways to
    split the remaining b - 1 symbols among the arguments."""
    args = [a for _, a in sig.ctor(ctor).args]
    return sum(math.prod(count_terms_of_size(sig, a, n) for a, n in zip(args, split))
               for split in itertools.product(range(1, b), repeat=len(args))
               if 1 + sum(split) == b)


def test_relativized_size_images(lists_sig, nat_sig, two_cycle_sig):
    one = EPS(frozenset({1}), 2, 1, frozenset())
    assert relativized_size_image(nat_sig, "Nat", "succ") == one
    assert relativized_size_image(lists_sig, "CList", "cons") == one
    # oracle: sizes of cons-headed terms up to 15
    sizes = {ground_size(t) for b in range(16)
             for t in terms_of_size(lists_sig, "CList", b)
             if t.ctor != "nil"}
    rel = relativized_size_image(lists_sig, "CList", "nil")
    assert {n for n in range(16) if n in rel} == sizes
    assert rel == EPS(frozenset(), 2, 2, frozenset({1}))
    # oracle on every sort and constructor: counting terms by head symbol
    for sig in (lists_sig, nat_sig, two_cycle_sig, *RANDOM_SIGS):
        for sort in sig.sorts:
            heads = {c.name: [_headed_count(sig, c.name, b) for b in range(14)]
                     for c in sig.ctors_of(sort)}
            for b in range(14):
                assert sum(h[b] for h in heads.values()) == count_terms_of_size(sig, sort, b)
            for c in heads:
                rel = relativized_size_image(sig, sort, c)
                for b in range(14):
                    others = any(h[b] for d, h in heads.items() if d != c)
                    assert (b in rel) == others, (sort, c, b)


def test_relativized_errors(lists_sig):
    with pytest.raises(UnknownSymbolError):
        relativized_size_image(lists_sig, "CList", "zzz")
    with pytest.raises(UnknownSymbolError):
        relativized_size_image(lists_sig, "Colour", "cons")


def test_image_agrees_with_counting(lists_sig, nat_sig, two_cycle_sig, three_cycle_sig):
    for sig in (lists_sig, nat_sig, two_cycle_sig, three_cycle_sig, *RANDOM_SIGS):
        for sort in sig.sorts:
            image = size_image(sig, sort)
            for b in range(26):
                assert (count_terms_of_size(sig, sort, b) > 0) == (b in image), \
                    (sort, b)


# -- the size-image kernel ------------------------------------------------------------

def _kleene_bits(grammar, limit):
    """The least fixpoint by plain Kleene iteration: every production over
    the full bitsets, sort by sort, until a sweep changes nothing."""
    m = (1 << limit) - 1

    def plus(a, b):
        out = 0
        while a:
            low = a & -a
            out |= (b << (low.bit_length() - 1)) & m
            a ^= low
        return out

    bits = {s: 0 for s in grammar}
    changed = True
    while changed:
        changed = False
        for s, prods in grammar.items():
            acc = bits[s]
            for _, w, args in prods:
                if w < limit:
                    prod = 1
                    for a in args:
                        prod = plus(prod, bits[a])
                    acc |= (prod << w) & m
            changed |= acc != bits[s]
            bits[s] = acc
    return bits


def _kernel_grammars(sig, k):
    """The plain grammar of `sig`, the singleton-free one when it differs,
    the one-step lap of the k-th constructor, and the lap of every simple
    cycle."""
    plain, single = _grammar(sig), _eliminate_singletons(sig)
    yield plain
    if single != plain:
        yield single
    c = sig.ctors[k % len(sig.ctors)]
    yield _lap(plain, [(c.sort, c.name)])[0]
    for s in single:
        cycle = _cycle_through(s, single)
        if cycle:
            yield _lap(single, cycle)[0]


KERNEL_SIGS = [random_signature(random.Random(seed)) for seed in range(200)]


def test_image_bits_match_kleene_iteration():
    # sizes are positive, so the bits below a limit do not depend on larger
    # sizes: the fixpoint below 256 truncates to the ones below 16 and 128
    for k, sig in enumerate(KERNEL_SIGS + WEIGHTED_SIGS + [LONG_PERIOD]):
        for grammar in _kernel_grammars(sig, k):
            want = _kleene_bits(grammar, 256)
            got = _image_bits(grammar)
            for limit in (16, 128, 256):
                assert {s: _bits_below(a, limit) for s, a in got.items()} == \
                    {s: b & ((1 << limit) - 1) for s, b in want.items()}


def test_lap_fixpoint_seeded_with_base_bits():
    # no base sort reads a lap sort, so the lap's fixpoint may start from
    # the base grammar's sets and solve the lap sorts only
    for k, sig in enumerate(KERNEL_SIGS + WEIGHTED_SIGS + [LONG_PERIOD]):
        plain, single = _grammar(sig), _eliminate_singletons(sig)
        c = sig.ctors[k % len(sig.ctors)]
        laps = [(plain, [(c.sort, c.name)])]
        laps += [(single, cycle) for s in single if (cycle := _cycle_through(s, single))]
        for base, steps in laps:
            lap = _lap(base, steps)[0]
            assert _image_bits(lap, _image_bits(base)) == _image_bits(lap)


@st.composite
def _random_grammars(draw, prefix, reads=(), weights=5):
    """1-5 sorts, each with 0-3 productions of weight 1-`weights` and arity
    0-3 over its own sorts and `reads`: mutual recursion, and sorts with an
    empty image (no production, or only ones that read an empty sort)."""
    sorts = [f"{prefix}{i}" for i in range(draw(st.integers(1, 5)))]
    arg = st.sampled_from(sorts + list(reads))
    return {s: [("c", draw(st.integers(1, weights)), tuple(draw(st.lists(arg, max_size=3))))
                for _ in range(draw(st.integers(0, 3)))]
            for s in sorts}


def _bits_of(sets, limit):
    return {s: _bits_below(a, limit) for s, a in sets.items()}


@given(base=_random_grammars("B"), data=st.data(),
       limit=st.one_of(st.integers(1, 300), st.just(1024)))
# Tree and Forest: one two-sort component
@example(base={"B0": [("leaf", 1, ()), ("node", 1, ("B1",))],
               "B1": [("fnil", 1, ()), ("fcons", 1, ("B0", "B1"))]},
         data=None, limit=1024)
def test_image_bits_match_kleene_on_random_grammars(base, data, limit):
    """Both on a base grammar, and on sorts added above it, with and without
    the base's sets as `known`."""
    extra = data.draw(_random_grammars("S", tuple(base))) if data else {}
    grammar = {**base, **extra}
    want = _kleene_bits(grammar, limit)
    assert _bits_of(_image_bits(base), limit) == {s: want[s] for s in base}
    assert _bits_of(_image_bits(grammar), limit) == want
    assert _bits_of(_image_bits(grammar, _image_bits(base)), limit) == want


@given(grammar=_random_grammars("S", weights=4))
def test_images_match_kleene_past_their_period(grammar):
    """Each image agrees with plain iteration below four times its
    threshold plus period, so past the first periods it repeats."""
    sets = _image_bits(grammar)
    limit = 4 * max(a[0] + a[1] for a in sets.values())
    assert _bits_of(sets, limit) == _kleene_bits(grammar, limit)


@pytest.fixture
def fixpoints(monkeypatch):
    """The grammar of every `_image_bits` call, in order."""
    calls = []

    def counted(grammar, known=None):
        calls.append(grammar)
        return _image_bits(grammar, known)

    monkeypatch.setattr(signature, "_image_bits", counted)
    return calls


def test_size_images_of_all_sorts_share_one_fixpoint(fixpoints):
    sig = random_signature(random.Random(0))
    assert len(sig.sorts) == 4
    images = [size_image(sig, s) for s in sig.sorts]
    assert fixpoints == [_grammar(sig)]
    # each sort alone, on a fresh copy of the signature
    assert images == [size_image(random_signature(random.Random(0)), s) for s in sig.sorts]


# s holds forty copies of U's one term, so each lap of S -> s -> S adds 41
LONG_PERIOD = Signature(("U", "S"), (
    CtorDecl("one", "U"), CtorDecl("z", "S"),
    CtorDecl("s", "S", tuple((f"u{i}", "U") for i in range(40)) + (("p", "S"),)),
))


def test_long_period_image_and_laps():
    sig = Signature(LONG_PERIOD.sorts, LONG_PERIOD.ctors)  # with an empty cache
    image = size_image(sig, "S")
    assert image == EPS(frozenset(), 0, 41, frozenset({1}))
    rel_z, rel_s = (relativized_size_image(sig, "S", c) for c in ("z", "s"))
    for b in range(200):
        count = count_terms_of_size(sig, "S", b)
        assert (count > 0) == (b in image)
        assert (b in rel_s) == (b == 1)
        # an s-headed term is s over forty ones and a term of size b - 41
        assert (b in rel_z) == (count_terms_of_size(sig, "S", b - 41) > 0)
    report = check_expanding(sig)
    assert report.witness("S") == ("S", "s", "S")
    assert [count_terms_of_size(sig, "S", 1 + 41 * k) for k in range(5)] == [1] * 5
    _recheck_witness(sig, report.witness("S"))


def test_wide_lap_is_no_finite_image():
    # s holds 126 copies of U's one term, so each lap of S -> s -> S adds
    # 127: S's sizes below 128 are {1}, which once passed for its image
    sig = Signature(("U", "S"), (
        CtorDecl("one", "U"), CtorDecl("z", "S"),
        CtorDecl("s", "S", tuple((f"u{i}", "U") for i in range(126)) + (("p", "S"),)),
    ))
    assert size_image(sig, "S") == EPS(frozenset(), 0, 127, frozenset({1}))


PRIMES = (5, 7, 11, 13)


def _prime_laps(primes=PRIMES):
    """S = s(A5, A7, A11, A13), where each lap of A_p adds p: the lcm of the
    periods S reaches is 5005, though S's own image has period 1."""
    decls = [CtorDecl("one", "U"), CtorDecl("s", "S", tuple((f"f{p}", f"A{p}") for p in primes))]
    for p in primes:
        us = tuple((f"u{p}_{i}", "U") for i in range(p - 1))
        decls += [CtorDecl(f"a{p}", f"A{p}"),
                  CtorDecl(f"b{p}", f"A{p}", us + ((f"p{p}", f"A{p}"),))]
    return Signature(("U", *(f"A{p}" for p in primes), "S"), tuple(decls))


@pytest.mark.parametrize("primes, exceptions, threshold", [
    (PRIMES, {5, 10, 12}, 15),
    # the lcm of the periods is 17017
    ((7, 11, 13, 17), {5, 12, 16, 18, 19, 22, 23, 25, 26, 27}, 29),
], ids=["5-13", "7-17"])
def test_a_long_lcm_of_periods_leaves_the_image_small(primes, exceptions, threshold):
    # a sum of sets has a period dividing the lcm of theirs, and here 1
    sig = _prime_laps(primes)
    image = size_image(sig, "S")
    assert image == EPS(frozenset(exceptions), threshold, 1, frozenset({0}))
    for b in range(threshold + 5):
        assert (count_terms_of_size(sig, "S", b) > 0) == (b in image)


def test_an_image_past_schurs_bound_is_exact():
    # laps of 300, 301 and 302 give S the sizes 1 + the sums of those, every
    # size from 45 001 on (the Frobenius number of {300, 301, 302} is
    # 44 999); Schur's bound for the star, 89 700, lies past the widest set
    # `semilinear.MAX_BITS` holds
    laps = (300, 301, 302)
    decls = [CtorDecl("u", "U"), CtorDecl("z", "S")]
    decls += [CtorDecl(f"s{k}", "S", tuple((f"u{k}_{i}", "U") for i in range(k - 1))
                       + ((f"p{k}", "S"),)) for k in laps]
    sig = Signature(("U", "S"), tuple(decls))
    sums = [True] + [False] * 45_299
    for n in range(1, len(sums)):
        sums[n] = any(n >= k and sums[n - k] for k in laps)
    assert not sums[44_999] and all(sums[45_000:])
    exceptions = frozenset(1 + n for n in range(45_000) if sums[n])
    assert size_image(sig, "S") == EPS(exceptions, 45_001, 1, frozenset({0}))


def test_an_image_past_the_largest_window_is_a_resource_limit():
    # A16 has one term, of size 2 ** 17 - 1, so S's image has period 2 ** 17,
    # past the widest set `semilinear.MAX_BITS` holds
    sorts = tuple(f"A{i}" for i in range(17)) + ("S",)
    decls = [CtorDecl("one", "A0"), CtorDecl("z", "S"),
             CtorDecl("s", "S", (("h", "A16"), ("p", "S")))]
    decls += [CtorDecl(f"a{i}", f"A{i}", ((f"l{i}", f"A{i - 1}"), (f"r{i}", f"A{i - 1}")))
              for i in range(1, 17)]
    sig = Signature(sorts, tuple(decls))
    with pytest.raises(ResourceLimitError, match="size image of S"):
        size_image(sig, "S")
    # a sort that reads no set that wide keeps its image
    assert size_image(sig, "A3") == EPS(frozenset({15}), 16, 1, frozenset())


# -- counting and enumeration -----------------------------------------------------------

def test_count_examples(lists_sig, nat_sig):
    assert count_terms_of_size(lists_sig, "CList", 3) == 3
    assert count_terms_of_size(nat_sig, "Nat", 5) == 1
    assert count_terms_of_size(lists_sig, "Colour", 1) == 3


def test_count_cap(lists_sig):
    with pytest.raises(ResourceLimitError):
        count_terms_of_size(lists_sig, "CList", 10_000)


def test_enumerate_examples(lists_sig):
    assert [t.ctor for t in enumerate_terms(lists_sig, "Colour", 1)] == \
        ["red", "green", "blue"]
    assert [t.ctor for t in enumerate_terms(lists_sig, "CList", 1)] == ["nil"]
    got = list(enumerate_terms(lists_sig, "CList", 3))
    assert got == [
        Ctor("nil"),
        Ctor("cons", (Ctor("red"), Ctor("nil"))),
        Ctor("cons", (Ctor("green"), Ctor("nil"))),
        Ctor("cons", (Ctor("blue"), Ctor("nil"))),
    ]


def test_enumerate_no_duplicates_nondecreasing(lists_sig, two_cycle_sig):
    for sig, sort in ((lists_sig, "CList"), (two_cycle_sig, "S2")):
        seen = set()
        last = 0
        for t in enumerate_terms(sig, sort, 7):
            assert t not in seen
            seen.add(t)
            assert ground_size(t) >= last
            last = ground_size(t)
        assert len(seen) == sum(count_terms_of_size(sig, sort, b) for b in range(8))


def test_enumerate_cap(lists_sig):
    with pytest.raises(ResourceLimitError):
        list(enumerate_terms(lists_sig, "CList", 25, cap=100))


def test_enumerate_finite_sort_stops_after_its_last_term():
    # P3867_3 is a product sort with 9 terms, the largest of size 3
    sig = random_signature(random.Random(4))
    got = list(enumerate_terms(sig, "P3867_3", 2000))
    assert len(got) == cardinality(sig, "P3867_3") == 9
    largest = max(ground_size(t) for t in got)
    assert max(b for _, b in sig._cache["terms"]) <= largest


# -- expandingness --------------------------------------------------------------------------

def test_expanding_lists(lists_sig):
    report = check_expanding(lists_sig)
    assert report.is_expanding("Colour")
    assert report.is_expanding("CList")
    assert report.all_expanding


def test_expanding_nat(nat_sig):
    report = check_expanding(nat_sig)
    assert report.witness("Nat") == ("Nat", "succ", "Nat")
    assert not report.all_expanding


def test_expanding_two_cycle(two_cycle_sig):
    report = check_expanding(two_cycle_sig)
    assert report.witness("S1") == ("S1", "f1", "S2", "f2", "S1")
    assert not report.is_expanding("S2")
    assert report.is_expanding("CList")


def test_expanding_three_cycle(three_cycle_sig):
    report = check_expanding(three_cycle_sig)
    assert report.all_expanding


def test_mixed_signature_lists_only_nat(mixed_sig):
    report = check_expanding(mixed_sig)
    assert report.non_expanding_sorts == ["Nat"]


def test_singleton_elimination():
    # U has one term; S is Nat-like once the U argument folds away
    sig = Signature(("U", "S"), (
        CtorDecl("u", "U"),
        CtorDecl("base", "S"),
        CtorDecl("step", "S", (("prev", "S"), ("pad", "U"))),
    ))
    report = check_expanding(sig)
    assert report.witness("S") == ("S", "step", "S")


def _recheck_witness(sig, cycle):
    """Independent re-check of the three conditions on a reported cycle, on
    explicit sets of sizes below a limit."""
    sorts = cycle[0::2][:-1]
    ctors = cycle[1::2]
    assert sorts[0] == cycle[-1]
    # condition 2: unary up to singleton-domain arguments, which add their
    # one term's size to the step's weight
    weights = []
    for c in ctors:
        args = [a for _, a in sig.ctor(c).args]
        single = [a for a in args if cardinality(sig, a) == 1]
        assert len(args) - len(single) == 1
        weights.append(1 + sum(ground_size(minimal_term(sig, a)) for a in single))
    # offsets[i]: the size the cycle adds before step i; offsets[-1] is a lap
    offsets = list(itertools.accumulate(weights, initial=0))
    lap = offsets[-1]
    limit = 40 + 14 * lap
    # leaving the cycle at step i: a term of sort_i not headed by ctor_i
    leave = {offsets[i] + m for i, (s, c) in enumerate(zip(sorts, ctors))
             for m in range(limit) if m in relativized_size_image(sig, s, c)}
    image = {m for m in range(limit) if m in size_image(sig, sorts[0])}

    def laps(k):
        return {m + j * lap for m in leave for j in range(k + 1)} & set(range(limit))

    # condition 1: every term of the sort runs around the cycle, then leaves
    assert laps(limit) == image
    # condition 3: no bounded number of laps reaches every size
    for k in range(13):
        assert laps(k) != image


def test_witnesses_satisfy_cycle_conditions(nat_sig, two_cycle_sig):
    for sig in (nat_sig, two_cycle_sig, *RANDOM_SIGS, *WEIGHTED_SIGS):
        report = check_expanding(sig)
        for sort in report.non_expanding_sorts:
            _recheck_witness(sig, report.witness(sort))


# U has one term, so s weighs 2; a term of S leaves the cycle S -> s -> S
# through a(P) at size 2 or at an odd size
WEIGHTED = Signature(("U", "T", "T2", "P", "S"), (
    CtorDecl("one", "U"),
    CtorDecl("l", "T"), CtorDecl("n", "T", (("n1", "T"), ("n2", "T"))),
    CtorDecl("m2", "T2", (("m21", "T"), ("m22", "T"))),
    CtorDecl("pz", "P"), CtorDecl("pc", "P", (("pc1", "T2"),)),
    CtorDecl("s", "S", (("s1", "U"), ("s2", "S"))), CtorDecl("a", "S", (("a1", "P"),)),
))


def _small(*ctors):
    """A signature over sorts S0.. from (name, sort, argument sorts) triples."""
    decls = tuple(CtorDecl(c, s, tuple((f"{c}_{i}", a) for i, a in enumerate(args)))
                  for c, s, args in ctors)
    return Signature(tuple(sorted({d.sort for d in decls})), decls)


# small signatures with a singleton sort (S1) on which the cycle weights
# change the verdict
# S4 -> c8 -> S4 weighs 2: S4 has one term of each size 3 + 2k
ODD_TAIL = _small(("c0", "S0", ()), ("c1", "S0", ()), ("c2", "S0", ("S3", "S0")),
                  ("c3", "S1", ()), ("c4", "S2", ("S3",)), ("c5", "S2", ("S0", "S0")),
                  ("c6", "S3", ()), ("c7", "S4", ("S2",)), ("c8", "S4", ("S3", "S4")))
# S3 -> c7 -> S3 weighs 2: S3 has one term of each size 1 + 2k
ODD_ALL = _small(("c0", "S0", ()), ("c1", "S0", ("S0", "S4")), ("c2", "S0", ()),
                 ("c3", "S1", ()), ("c4", "S1", ("S4",)), ("c5", "S2", ()),
                 ("c6", "S3", ("S0",)), ("c7", "S3", ("S3", "S2")), ("c8", "S3", ()),
                 ("c9", "S4", ()), ("c10", "S4", ("S0", "S0")))
# S0 -> c1 -> S2 -> c4 -> S0 weighs 1 + 2 = 3, and the terms that leave it
# have sizes 1, 3 and every even size from 4 on: gcd(3, 2) = 1, so every
# residue class of the sizes keeps growing in count
GROWING = _small(("c0", "S0", ()), ("c1", "S0", ("S2",)), ("c2", "S0", ("S1", "S1")),
                 ("c3", "S1", ()), ("c4", "S2", ("S1", "S0")), ("c5", "S2", ("S3", "S3")),
                 ("c6", "S3", ("S1", "S3")), ("c7", "S3", ()))
WEIGHTED_SIGS = [WEIGHTED, ODD_TAIL, ODD_ALL, GROWING]


@pytest.mark.parametrize("sig, sort, witness, start, lap", [
    (WEIGHTED, "S", ("S", "s", "S"), 2, 2),
    (ODD_TAIL, "S4", ("S4", "c8", "S4"), 3, 2),
    (ODD_ALL, "S3", ("S3", "c7", "S3"), 1, 2),
], ids=["weighted", "odd-tail", "odd-all"])
def test_weighted_cycle_is_non_expanding(sig, sort, witness, start, lap):
    assert check_expanding(sig).witness(sort) == witness
    assert [count_terms_of_size(sig, sort, start + lap * k) for k in range(12)] == [1] * 12


def test_weighted_cycle_can_be_expanding():
    report = check_expanding(GROWING)
    assert report.is_expanding("S0") and report.is_expanding("S2")
    assert report.non_expanding_sorts == ["S3"]
    image = size_image(GROWING, "S0")

    def min_count(lo):
        return min(count_terms_of_size(GROWING, "S0", b)
                   for b in range(lo, lo + 6) if b in image)

    assert min_count(5) < min_count(15) < min_count(25) < min_count(35)


def test_counting_characterization(nat_sig, two_cycle_sig, lists_sig, three_cycle_sig):
    # non-expanding sorts: some residue class keeps a bounded count forever
    for sig, sort, stride, offset in ((nat_sig, "Nat", 1, 1),
                                      (two_cycle_sig, "S1", 2, 2)):
        counts = [count_terms_of_size(sig, sort, offset + i * stride)
                  for i in range(12)]
        assert all(0 < c <= 1 for c in counts)
    # expanding sorts: minimum realized count grows along the sampled range
    for sig, sort in ((lists_sig, "CList"), (three_cycle_sig, "S1")):
        image = size_image(sig, sort)

        def min_count(lo):
            return min(count_terms_of_size(sig, sort, b)
                       for b in range(lo, lo + 14) if b in image)

        assert min_count(2) <= min_count(12) <= min_count(22)
        assert min_count(22) > min_count(2)
