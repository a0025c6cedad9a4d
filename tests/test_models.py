import random

import pytest
from hypothesis import given

from adtsolve import backend, models
from adtsolve.errors import InternalError, UnboundVariableError
from adtsolve.models import ReconstructionStats, check_model, reconstruct
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_script
from adtsolve.reduce import reduce, simplify
from adtsolve.terms import ground_size
from adtsolve.sizesolve import decide
from adtsolve.terms import AdtModel, Ctor, Tester, Var
from tests.test_semantics import formulas


def pipeline(sig, phi, opt=True, use_simplify=False):
    """The reduct of `phi` and the solver's result on it, or on its
    simplification, whose model is then completed to one of the reduct."""
    r = reduce(flatten(to_nnf(phi), sig), sig, "depth", opt)
    if not use_simplify:
        return r, backend.solve(r)
    q = simplify(r)
    res = backend.solve(q)
    if res.status == "sat":
        res.model = backend.complete_model(q, res.model)
    return r, res


def test_example_model_checks(lists_sig, fml):
    phi = fml("(and ((_ is cons) x) (not (= y blue)) "
              "(or (= (head x) red) (= x (cons y nil))))")
    q, res = pipeline(lists_sig, phi)
    assert res.status == "sat"
    model = reconstruct(q, res.model)
    ok, diag = check_model(lists_sig, model, phi)
    assert ok and diag is None
    assert model.adt["x"].ctor == "cons"
    assert model.adt["y"] != Ctor("blue")


def test_disequality_forces_distinct_terms(lists_sig, fml):
    phi = fml("(not (= x z))")
    q, res = pipeline(lists_sig, phi)
    assert res.status == "sat"
    model = reconstruct(q, res.model)
    assert model.adt["x"] != model.adt["z"]
    assert check_model(lists_sig, model, phi)[0]


def test_disequality_from_a_deep_numeral(nat_sig):
    # the fresh term is looked up among equal deep terms that are distinct
    # objects: `==` and `ground_size` on them run under the default
    # recursion limit
    from adtsolve.terms import Eq, Not
    numeral = Ctor("one")
    for _ in range(1000):
        numeral = Ctor("succ", (numeral,))
    x = Var("x", "Nat")
    res = decide(Not(Eq(x, numeral)), nat_sig)
    assert res.status == "sat"
    assert res.model.adt["x"] != numeral
    assert ground_size(res.model.adt["x"]) == 1002


def test_disequality_from_a_numeral_past_the_old_enumeration_cap(nat_sig):
    # the range holds every numeral up to 2001 symbols, past the 2000 that
    # fresh terms were once enumerated to; the fresh term is the next one
    from adtsolve.terms import Eq, Not
    numeral = Ctor("one")
    for _ in range(2000):
        numeral = Ctor("succ", (numeral,))
    res = decide(Not(Eq(Var("x", "Nat"), numeral)), nat_sig)
    assert res.status == "sat"
    assert res.model.adt["x"] != numeral
    assert ground_size(res.model.adt["x"]) == 2002


def test_three_distinct_colours_use_all_of_them(lists_sig):
    from adtsolve.terms import And, Eq, Not
    a, b, c = (Var(n, "Colour") for n in ("a", "b", "c"))
    phi = And((Not(Eq(a, b)), Not(Eq(b, c)), Not(Eq(a, c))))
    q, res = pipeline(lists_sig, phi)
    assert res.status == "sat"
    model = reconstruct(q, res.model)
    assert {model.adt["a"], model.adt["b"], model.adt["c"]} == \
        {Ctor("red"), Ctor("green"), Ctor("blue")}


def test_check_model_diagnostic(lists_sig):
    model = AdtModel({"x": Ctor("nil")})
    ok, diag = check_model(lists_sig, model, Tester("cons", Var("x", "CList")))
    assert not ok
    assert diag == "((_ is cons) x)"


def test_check_model_unbound(lists_sig):
    with pytest.raises(UnboundVariableError):
        check_model(lists_sig, AdtModel(), Tester("cons", Var("x", "CList")))


def test_check_model_size(lists_sig, fml):
    model = AdtModel({"x": Ctor("cons", (Ctor("blue"), Ctor("nil")))})
    ok, _ = check_model(lists_sig, model, fml("(= (adt.size x) 3)"))
    assert ok


def test_unguarded_selector_value_forced(lists_sig, fml):
    # head(nil) must take the value green in the reconstructed interpretation
    phi = fml("(and ((_ is nil) x) (= (head x) y) (= y green))")
    q, res = pipeline(lists_sig, phi)
    assert res.status == "sat"
    model = reconstruct(q, res.model)
    ok, diag = check_model(lists_sig, model, phi)
    assert ok, diag
    assert model.selector_overrides.get(("cons", 0, Ctor("nil"))) == Ctor("green")


def test_case2_preferred_and_injectivity(lists_sig, fml):
    phi = fml("(and (= x (cons y z)) (not (= z l)))")
    q, res = pipeline(lists_sig, phi)
    stats = ReconstructionStats()
    model = reconstruct(q, res.model, stats)
    assert check_model(lists_sig, model, phi)[0]
    assert stats.injectivity_checks > 0
    # the constructed pair for x is resolved by case 2
    assert stats.case2_pairs


@given(formulas(allow_size=False))
def test_roundtrip_with_simplification(lists_sig, phi):
    q, res = pipeline(lists_sig, phi, use_simplify=True)
    if res.status != "sat":
        return
    model = reconstruct(q, res.model)
    ok, diag = check_model(lists_sig, model, phi)
    assert ok, diag


@given(formulas(allow_size=False))
def test_roundtrip_without_optimizations(lists_sig, phi):
    q, res = pipeline(lists_sig, phi, opt=False, use_simplify=True)
    if res.status != "sat":
        return
    model = reconstruct(q, res.model)
    ok, diag = check_model(lists_sig, model, phi)
    assert ok, diag


# -- term building in dependency order against the loop it replaced ------------

def _reference_build_terms(sig, pairs, dep, enum_sorts, stats):
    """The loop that `models._build_terms` replaced, kept as its reference:
    after each assignment it sorts the remaining pairs again and takes the
    first one whose children are all built (case 2), else gives a fresh
    term to the least unconstrained pair (case 3)."""
    gamma, used = {}, {}

    def gamma_term(pair):
        if pair[1] in enum_sorts:
            return models._enum_term(sig, *pair)
        return gamma[pair]

    def assign(p, t):
        stats.injectivity_checks += 1
        if t in used.setdefault(p[1], set()):
            raise InternalError("injectivity violated during reconstruction")
        used[p[1]].add(t)
        gamma[p] = t

    remaining = set(pairs)
    while remaining:
        progressed = False
        for p in sorted(remaining, key=lambda q: (q[1], q[0])):
            if p in dep:
                head, children = dep[p]
                if all(c[1] in enum_sorts or c in gamma for c in children):
                    assign(p, Ctor(head, tuple(gamma_term(c) for c in children)))
                    stats.case2_pairs.append(p)
                    remaining.discard(p)
                    progressed = True
                    break
        if progressed:
            continue
        candidates = [p for p in remaining if p not in dep]
        if not candidates:
            raise InternalError("cyclic dependency in model reconstruction")
        best = None
        for p in sorted(candidates, key=lambda q: (q[1], q[0])):
            t = models._next_fresh(sig, p[1], used)
            key = (ground_size(t), p[1], p[0])
            if best is None or key < best[0]:
                best = (key, p, t)
        _, p, t = best
        assign(p, t)
        stats.case3_pairs.append(p)
        remaining.discard(p)
    return gamma


@pytest.fixture
def against_reference(monkeypatch):
    """Every `_build_terms` call also runs the reference loop and must give
    the same terms, the same case-3 choices in the same order and the same
    case-2 pairs; yields the per-call counts of case-2 and case-3 pairs."""
    build = models._build_terms
    calls = []

    def both(sig, pairs, dep, enum_sorts, stats):
        ref_stats, new_stats = ReconstructionStats(), ReconstructionStats()
        ref = _reference_build_terms(sig, pairs, dep, enum_sorts, ref_stats)
        gamma = build(sig, pairs, dep, enum_sorts, new_stats)
        assert gamma == ref
        assert new_stats.case3_pairs == ref_stats.case3_pairs
        assert sorted(new_stats.case2_pairs) == sorted(ref_stats.case2_pairs)
        assert new_stats.injectivity_checks == ref_stats.injectivity_checks
        calls.append((len(new_stats.case2_pairs), len(new_stats.case3_pairs)))
        return build(sig, pairs, dep, enum_sorts, stats)

    monkeypatch.setattr(models, "_build_terms", both)
    return calls


def _sat_chain(n):
    """x_{i+1} = tail x_i, every x_i a cons and adjacent heads distinct."""
    x = [f"x{i}" for i in range(n + 1)]
    lines = ["(declare-datatypes ((Colour 0) (CList 0)) (((red) (green) (blue)) "
             "((nil) (cons (head Colour) (tail CList)))))"]
    lines += [f"(declare-const {v} CList)" for v in x]
    for i in range(n):
        lines += [f"(assert ((_ is cons) {x[i]}))", f"(assert (= {x[i + 1]} (tail {x[i]})))",
                  f"(assert (not (= (head {x[i]}) (head {x[i + 1]}))))"]
    return parse_script("\n".join(lines))


@pytest.mark.parametrize("n", [1, 5, 30])
def test_worklist_builds_the_reference_terms_on_chains(against_reference, n):
    script = _sat_chain(n)
    assert decide(script.formula(), script.sig).status == "sat"
    (case2, case3), = against_reference
    assert case2 >= n


@given(formulas())
def test_worklist_builds_the_reference_terms_on_lists(lists_sig, against_reference, phi):
    decide(phi, lists_sig, fuel=10)


def test_worklist_builds_the_reference_terms_on_random_signatures(against_reference):
    from adtsolve.corpus import GenConfig, random_formula, random_signature

    rng = random.Random(11)
    for _ in range(60):
        sig = random_signature(rng)
        for size_atoms in (False, True):
            phi = random_formula(rng, sig, GenConfig(size_atoms=size_atoms))
            decide(phi, sig, fuel=20)
    assert sum(c2 for c2, _ in against_reference) > 100
    assert sum(c3 for _, c3 in against_reference) > 40
