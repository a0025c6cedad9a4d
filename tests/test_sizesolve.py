import pytest

from adtsolve import backend
from adtsolve.errors import InternalError
from adtsolve.models import check_model
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_formula, parse_script
from adtsolve.reduce import RTRUE, SIZE_MODE, RVar, _top_conjuncts
from adtsolve.sizesolve import (
    AlreadyUnfoldedError, UnknownVariableError, completeness_report, decide,
    make_state, run_loop, unfold_step,
)
from adtsolve.semantics import evaluate
from adtsolve.signature import enumerate_terms
from adtsolve.terms import AdtModel, Ctor, Eq, Or, Var


def nat_formula(nat_sig, text):
    return parse_formula(text, nat_sig, {"x": "Nat", "y": "Nat", "k": "Int"})


def size_mode(phi, sig, fuel, opt=True):
    """Decide `phi` in size mode, also when it has no size atom."""
    return run_loop(make_state([("A", flatten(to_nnf(phi), sig))], sig, fuel=fuel),
                    SIZE_MODE, opt=opt)


# -- unfold_step ---------------------------------------------------------------

def test_unfold_nat_schema(nat_sig, fml):
    phi = nat_formula(nat_sig, "(= x y)")
    state = make_state([("A", flatten(to_nnf(phi), nat_sig))], nat_sig)
    unfold_step(state, "x")
    tag, disj = state.conjuncts[-1]
    assert isinstance(disj, Or)
    one_arm, succ_arm = disj.args
    assert one_arm == Eq(Ctor("one"), Var("x", "Nat"))
    assert succ_arm.lhs.ctor == "succ"
    assert isinstance(succ_arm.lhs.args[0], Var)
    assert state.unfolded == {"x"}


def test_unfold_clist_schema(lists_sig, fml):
    phi = fml("(= x z)")
    state = make_state([("A", flatten(to_nnf(phi), lists_sig))], lists_sig)
    unfold_step(state, "x")
    _, disj = state.conjuncts[-1]
    nil_arm, cons_arm = disj.args
    assert nil_arm == Eq(Ctor("nil"), Var("x", "CList"))
    assert cons_arm.lhs.ctor == "cons"
    assert len(cons_arm.lhs.args) == 2


def test_unfold_twice_rejected(nat_sig):
    phi = nat_formula(nat_sig, "(= x y)")
    state = make_state([("A", flatten(to_nnf(phi), nat_sig))], nat_sig)
    unfold_step(state, "x")
    with pytest.raises(AlreadyUnfoldedError):
        unfold_step(state, "x")
    with pytest.raises(UnknownVariableError):
        unfold_step(state, "w")


# -- the size loop ----------------------------------------------------------------

def test_unique_model_of_size_three(lists_sig, fml):
    phi = fml("(and (= (adt.size x) 3) (not (= (head x) red)) "
              "(not (= (head x) green)))")
    # oracle: enumerate all lists of size <= 3 and evaluate
    witnesses = [t for t in enumerate_terms(lists_sig, "CList", 3)
                 if evaluate(lists_sig, AdtModel({"x": t}), phi)]
    assert witnesses == [Ctor("cons", (Ctor("blue"), Ctor("nil")))]
    res = decide(phi, lists_sig)
    assert res.status == "sat"
    assert res.model.adt["x"] == witnesses[0]
    ok, diag = check_model(lists_sig, res.model, phi)
    assert ok, diag


def test_enumeration_sort_variables_are_never_unfolded(lists_sig, fml):
    # the heads are Colour variables, pinned to constructor indices by the
    # reduct: only the lists need unfolding (the acceptance test once asked
    # for the heads too, and took 5 rounds)
    phi = fml("(and (= (adt.size x) 3) (not (= (head x) red)) "
              "(not (= (head x) green)))")
    res = decide(phi, lists_sig)
    assert (res.status, res.rounds) == ("sat", 2)
    assert {res.state.var_sorts[v] for v in res.state.unfolded} == {"CList"}
    assert res.model.adt["x"] == Ctor("cons", (Ctor("blue"), Ctor("nil")))
    # without the enumeration rule a head is an ADT value like any other
    res = decide(phi, lists_sig, opt=False)
    assert res.status == "sat"
    assert "Colour" in {res.state.var_sorts[v] for v in res.state.unfolded}


@pytest.mark.parametrize("text", [
    "(not (= y c))",  # depth mode
    "(and (not (= y c)) (= (adt.size y) 1))",  # size mode, accepted in round 0
])
def test_a_search_model_that_fails_the_reduct_is_caught(lists_sig, fml, monkeypatch, text):
    # the backend returns the search's model unchecked: the one whole-reduct
    # check of a returned model is `reconstruct`'s walk
    search = backend._Search.search

    def corrupted(self, *args):
        model = search(self, *args)
        values = dict(model.values)
        values["c"] = values["y"]  # fails the reduct's row y - c != 0
        return backend.IntModel(values, model.funcs, model.defaults)

    monkeypatch.setattr(backend._Search, "search", corrupted)
    with pytest.raises(InternalError, match="does not satisfy the unsimplified reduct"):
        decide(fml(text), lists_sig)


def test_even_size_unsat_without_unfolding(lists_sig, fml):
    phi = fml("(= (adt.size x) (* 2 k))")
    res = decide(phi, lists_sig)
    assert res.status == "unsat"
    assert res.rounds == 0


def test_nat_disequal_same_size_bounded(nat_sig):
    phi = nat_formula(nat_sig, "(and (not (= x y)) "
                               "(= (adt.size x) (adt.size y)) "
                               "(<= (adt.size x) 3))")
    # oracle: no pair of distinct Nat terms shares a size <= 3
    terms = list(enumerate_terms(nat_sig, "Nat", 3))
    from adtsolve.terms import ground_size
    assert len({ground_size(t) for t in terms}) == len(terms)
    res = decide(phi, nat_sig)
    assert res.status == "unsat"
    per_root = {}
    for v in res.state.unfolded:
        r = res.state.root_of(v)
        per_root[r] = per_root.get(r, 0) + 1
    assert set(per_root) == {"x", "y"}
    assert all(n <= 3 for n in per_root.values())


def test_nat_disequal_same_size_unbounded_unknown(nat_sig):
    phi = nat_formula(nat_sig, "(and (not (= x y)) "
                               "(= (adt.size x) (adt.size y)))")
    res = decide(phi, nat_sig, fuel=20)
    assert res.status == "unknown"
    assert res.rounds == 20
    assert "non-expanding" in res.diagnosis.text
    assert "Nat -> succ -> Nat" in res.diagnosis.text
    assert res.diagnosis.report is not None
    assert res.diagnosis.mismatches


def test_weighted_cycle_unknown_names_the_cycle():
    # S's cycle weighs 2, so S has one term of each even size: unsat, but the
    # loop cannot prove it, and the diagnosis must not call S expanding
    script = parse_script("""
(declare-datatypes ((U 0) (T 0) (T2 0) (P 0) (S 0))
  (((one)) ((l) (n (n1 T) (n2 T))) ((m2 (m21 T) (m22 T))) ((pz) (pc (pc1 T2)))
   ((s (s1 U) (s2 S)) (a (a1 P)))))
(declare-const x S)
(declare-const y S)
(declare-const k Int)
(assert (distinct x y))
(assert (= (adt.size x) (adt.size y)))
(assert (= (adt.size x) (* 2 k)))
""")
    res = decide(script.formula(), script.sig, fuel=8)
    assert res.status == "unknown" and res.rounds == 8
    assert "S: non-expanding (cycle: S -> s -> S)" in res.diagnosis.text
    assert "all sorts expanding" not in res.diagnosis.text


def test_sat_models_are_validated(lists_sig, fml):
    phi = fml("(and (>= (adt.size x) 5) ((_ is cons) x) (not (= z x)) "
              "(= (adt.size z) (adt.size x)))")
    res = decide(phi, lists_sig)
    assert res.status == "sat"
    ok, diag = check_model(lists_sig, res.model, phi)
    assert ok, diag
    from adtsolve.terms import ground_size
    assert ground_size(res.model.adt["x"]) >= 5
    assert res.model.adt["x"] != res.model.adt["z"]


def test_unfolding_terminates_on_expanding_signature(lists_sig, fml):
    # expanding signature: generous fuel is never exhausted
    phi = fml("(and (not (= x z)) (not (= x l)) (not (= z l)) "
              "(= (adt.size x) (adt.size z)) (= (adt.size z) (adt.size l)) "
              "(>= (adt.size x) 3))")
    res = decide(phi, lists_sig, fuel=10_000)
    assert res.status == "sat"
    ok, diag = check_model(lists_sig, res.model, phi)
    assert ok, diag


def test_decide_dispatch(lists_sig, fml):
    assert decide(fml("((_ is cons) x)"), lists_sig).status == "sat"
    assert decide(fml("(and ((_ is cons) x) ((_ is nil) x))"), lists_sig).status \
        == "unsat"
    assert decide(fml("(= (adt.size x) 2)"), lists_sig).status == "unsat"


def test_counting_completeness(lists_sig):
    # only three list terms of size 3 exist
    vars_ = {v: "CList" for v in "xyzw"}

    def distinct(names):
        return " ".join(f"(not (= {a} {b}))"
                        for i, a in enumerate(names) for b in names[i + 1:])

    def sized(names):
        return " ".join(f"(= (adt.size {v}) 3)" for v in names)

    four = parse_formula(f"(and {distinct('xyzw')} {sized('xyzw')})",
                         lists_sig, vars_)
    assert decide(four, lists_sig, fuel=60).status == "unsat"
    three = parse_formula(f"(and {distinct('xyz')} {sized('xyz')})",
                          lists_sig, vars_)
    res = decide(three, lists_sig, fuel=60)
    assert res.status == "sat"
    assert {res.model.adt[v] for v in "xyz"} == set(enumerate_terms(lists_sig, "CList", 3)) - {Ctor("nil")}


def test_random_size_corpus_sound_both_ways(lists_sig):
    import random
    from adtsolve.corpus import GenConfig, oracle_sat_within_bound, random_formula

    rng = random.Random(5)
    decided = {"sat": 0, "unsat": 0}
    for _ in range(60):
        phi = random_formula(rng, lists_sig,
                             GenConfig(n_vars=2, size_atoms=True, size_const_max=5))
        res = size_mode(phi, lists_sig, fuel=40)
        assert res.status in ("sat", "unsat")  # lists signature is expanding
        decided[res.status] += 1
        oracle = oracle_sat_within_bound(lists_sig, phi, bound=5)
        if res.status == "unsat":
            assert oracle is None
        else:
            ok, diag = check_model(lists_sig, res.model, phi)
            assert ok, diag
        if oracle is not None:
            assert res.status == "sat"
    assert decided["sat"] and decided["unsat"]


def test_selection_serves_starved_variables(nat_sig):
    from adtsolve.backend import IntModel
    from adtsolve.reduce import reduce as do_reduce
    from adtsolve.sizesolve import _STARVATION_AGE, _select_variable

    phi = nat_formula(nat_sig, "(= x y)")
    state = make_state([("A", flatten(to_nnf(phi), nat_sig))], nat_sig)
    reduct = do_reduce(state.flat(), nat_sig, "size")
    sz = reduct.table.size_fun("Nat")
    # y always reports a smaller size, so the plain heuristic would pick it
    # forever; the age safeguard has to serve x eventually
    model = IntModel(values={"x": 10, "y": 20},
                     funcs={sz: {(10,): 9, (20,): 1}})
    picks = []
    for _ in range(_STARVATION_AGE + 1):
        picks.append(_select_variable(state, ["x", "y"], model, reduct))
    assert picks[0] == "y"
    assert "x" in picks


# -- completeness report -----------------------------------------------------------

def test_report_lists_complete(lists_sig):
    text = completeness_report(lists_sig)
    assert text.startswith("decision procedure complete")


def test_report_nat_incomplete(nat_sig):
    text = completeness_report(nat_sig)
    assert "incomplete" in text
    assert "Nat: non-expanding (cycle: Nat -> succ -> Nat)" in text


def test_report_mixed_lists_only_nat_cycle(mixed_sig):
    text = completeness_report(mixed_sig)
    assert "incomplete" in text
    assert text.count("non-expanding") == 1
    assert "Nat" in text


def test_tree_size_corpus_decides(lists_sig):
    # binary trees: 2-ary unfoldings; the signature expands, so the loop must
    # decide every instance within generous fuel
    import random
    from adtsolve.corpus import GenConfig, oracle_sat_within_bound, random_formula
    from adtsolve.signature import CtorDecl, Signature, check_expanding

    tree = Signature(("E", "T"), (
        CtorDecl("e0", "E"), CtorDecl("e1", "E"),
        CtorDecl("leaf", "T", (("val", "E"),)),
        CtorDecl("node", "T", (("lhs", "T"), ("rhs", "T"))),
    ))
    assert check_expanding(tree).all_expanding
    rng = random.Random(4)
    decided = {"sat": 0, "unsat": 0}
    for _ in range(30):
        phi = random_formula(rng, tree, GenConfig(n_vars=2, depth=2,
                                                  size_atoms=True, size_const_max=7))
        res = size_mode(phi, tree, fuel=60)
        assert res.status in decided
        decided[res.status] += 1
        if res.status == "sat":
            ok, diag = check_model(tree, res.model, phi)
            assert ok, diag
        else:
            assert oracle_sat_within_bound(tree, phi, bound=5) is None
    assert decided["sat"]


# Instance 329 of the seeded random corpus.  Its loop repoints v1's flattening
# variable at an unfolded value in the acceptance test; the repointed integer
# model then satisfies the reduct only through a selector application the
# solver never saw (s2 of nl), evaluated at the graph's default value.
CORPUS_329 = """
(declare-datatypes ((E9052_0 0) (P9052_1 0) (L9052_2 0) (T9052_3 0))
  (((e9052_0) (e9052_1)) ((mk9052_0 (sl9052_0 E9052_0) (sl9052_1 E9052_0)))
   ((nl9052_1) (cs9052_1 (sl9052_2 P9052_1) (sl9052_3 L9052_2)))
   ((lf9052_2 (sl9052_4 L9052_2)) (nd9052_2 (sl9052_5 T9052_3) (sl9052_6 T9052_3)))))
(declare-const v0 L9052_2)
(declare-const v1 P9052_1)
(assert (and (or (not (= v1 (mk9052_0 e9052_0 e9052_1))) (>= (adt.size v0) 7)
                 (= (sl9052_2 (sl9052_3 v0)) v1))
             (and (= (sl9052_3 v0) v0) (= (sl9052_1 v1) e9052_1) (>= (adt.size v0) 1))))
(check-sat)
"""


def test_repointed_model_reconstructs():
    script = parse_script(CORPUS_329)
    phi = script.formula()
    res = decide(phi, script.sig)
    assert res.status == "sat"
    assert check_model(script.sig, res.model, phi) == (True, None)


def test_depth_and_size_mode_agree():
    # on size-free formulas the unfolding loop must reach the depth-mode
    # verdict, unsat included, or give up with unknown
    import random
    from adtsolve.corpus import GenConfig, random_formula, random_signature
    rng = random.Random(7)
    sigs = [random_signature(rng) for _ in range(5)]
    for i in range(300):
        sig = sigs[i % len(sigs)]
        phi = random_formula(rng, sig, GenConfig(n_vars=rng.randint(1, 3)))
        depth = decide(phi, sig)
        size = size_mode(phi, sig, fuel=30)
        assert depth.status in ("sat", "unsat"), i
        assert size.status in (depth.status, "unknown"), i


def test_forest_depth_corpus_sound(forest_sig):
    # Tree and Forest form one component, whose depth rows must refute every
    # cycle through both sorts; pinning each variable to its sort's recursive
    # constructor makes the selector chains of the formulas close such cycles
    import random
    from adtsolve.corpus import GenConfig, oracle_sat_within_bound, random_formula
    from adtsolve.terms import And, Tester, free_vars

    recursive = {"Tree": "node", "Forest": "fcons"}
    rng = random.Random(1)
    decided = {"sat": 0, "unsat": 0}
    for _ in range(200):
        phi = random_formula(rng, forest_sig, GenConfig(n_vars=3, depth=3))
        pinned = And((phi,) + tuple(Tester(recursive[v.sort], v) for v in
                                    sorted(free_vars(phi).adt, key=lambda v: v.name)))
        for psi in (phi, pinned):
            res = decide(psi, forest_sig)
            assert res.status in decided
            decided[res.status] += 1
            if res.status == "unsat":
                assert oracle_sat_within_bound(forest_sig, psi) is None
    assert decided["sat"] and decided["unsat"]


# -- the live search across rounds -------------------------------------------------

def _round_log(monkeypatch):
    """Wrap backend.solve so that every round solved on a session is also
    searched afresh, and the two verdicts and models must match; returns the
    log of (reduct, result, whether the session's search went on) per
    round."""
    from adtsolve import backend

    solve = backend.solve
    log = []

    def checked(reduct, session=None):
        went_on = session is not None and \
            session.added(_top_conjuncts(reduct.formula)) is not None
        got = solve(reduct, session=session)
        fresh = solve(reduct)
        assert (got.status, got.model) == (fresh.status, fresh.model)
        log.append((reduct, got, went_on))
        return got

    monkeypatch.setattr(backend, "solve", checked)
    return log


def _clist_distinct(n: int, k: int) -> str:
    names = [f"d{i}" for i in range(n)]
    lines = ["(declare-datatypes ((Colour 0) (CList 0)) (((red) (green) (blue))"
             " ((nil) (cons (head Colour) (tail CList)))))"]
    lines += [f"(declare-const {v} CList)" for v in names]
    lines += [f"(assert (not (= {a} {b})))" for i, a in enumerate(names)
              for b in names[i + 1:]]
    lines += [f"(assert (<= (adt.size {v}) {k}))" for v in names]
    return "\n".join(lines)


NAT_NE_SAME_SIZE = """
(declare-datatypes ((Nat 0)) (((one) (succ (pred Nat)))))
(declare-const x Nat)
(declare-const y Nat)
(assert (not (= x y)))
(assert (= (adt.size x) (adt.size y)))
"""


@pytest.mark.parametrize("text, fuel", [
    (_clist_distinct(2, 3), 100), (_clist_distinct(3, 4), 100),
    (_clist_distinct(4, 3), 100), (_clist_distinct(3, 2), 100),
    (_clist_distinct(2, 1), 100), (NAT_NE_SAME_SIZE, 10), (NAT_NE_SAME_SIZE, 14),
], ids=["distinct-2-3", "distinct-3-4", "distinct-4-3", "distinct-3-2",
        "distinct-2-1", "nat-10", "nat-14"])
def test_resumed_search_equals_fresh(monkeypatch, text, fuel):
    script = parse_script(text)
    log = _round_log(monkeypatch)
    res = decide(script.formula(), script.sig, fuel=fuel)
    assert res.rounds == len(log) - 1 > 0
    # the first round starts the session's search, and every later round's
    # reduct extends its predecessor's, so the search goes on
    assert [went_on for _, _, went_on in log] == [False] + [True] * res.rounds


def test_resumed_search_equals_fresh_on_random_signatures(monkeypatch):
    # random_signature's one-constructor product sorts hit the guard case
    import random
    from adtsolve.corpus import GenConfig, random_formula, random_signature

    log = _round_log(monkeypatch)
    rng = random.Random(11)
    for _ in range(4):
        sigs = [random_signature(rng) for _ in range(3)]
        for i in range(40):
            phi = random_formula(rng, sigs[i % 3], GenConfig(n_vars=rng.randint(1, 3),
                                                             size_atoms=True))
            log.append(None)  # a new instance
            decide(phi, sigs[i % 3], fuel=20)
    later = [b for a, b in zip(log, log[1:]) if a and b]
    assert sum(1 for _, _, went_on in later if went_on) > 50
    # the guard case dropped a disjunction, and those rounds searched afresh
    assert any(not went_on for _, _, went_on in later)


def test_resumed_search_visits_fewer_nodes(monkeypatch):
    # Nat x != y with |x| = |y|: the live search asserts each round's new
    # literals and the literals of the arms it tries, so the assertions grow
    # about linearly with the rounds (126 at fuel 10, 246 at fuel 20); a
    # search that re-asserts the path to the last model every round makes
    # them grow quadratically (401 and 1296)
    from adtsolve import backend

    assert_lit = backend._Search.assert_lit
    calls = []

    def counted(self, lit):
        calls.append(lit)
        return assert_lit(self, lit)

    monkeypatch.setattr(backend._Search, "assert_lit", counted)
    script = parse_script(NAT_NE_SAME_SIZE)
    counts = []
    for fuel in (10, 20):
        calls.clear()
        res = decide(script.formula(), script.sig, fuel=fuel)
        assert (res.status, res.rounds) == ("unknown", fuel)
        counts.append(len(calls))
    assert counts[1] < 2.5 * counts[0]


# A one-constructor sort P whose argument sort M has two sizes.  Once v0's
# head is unfolded into mk(_u, _u'), the selector literal over it is guarded
# and drops the membership disjunction of its Skolem's size, so round k's
# disjunctions are no longer a prefix of round k+1's.
GUARD_DROPS_DISJUNCTION = """
(declare-datatypes ((E 0) (M 0) (P 0) (L 0))
  (((e0) (e1)) ((m0) (m1 (me E))) ((mk (pa M) (pb M)))
   ((nl) (cs (hd P) (tl L)))))
(declare-const v0 L)
(declare-const v1 M)
(assert (or (= (pb (hd v0)) v1) (<= (adt.size v1) 9)))
"""


def test_guard_case_that_drops_a_disjunction_searches_afresh(monkeypatch):
    from adtsolve.reduce import ROr

    # every round's model equals a fresh search's, also after the restart
    log = _round_log(monkeypatch)
    script = parse_script(GUARD_DROPS_DISJUNCTION)
    res = decide(script.formula(), script.sig)
    assert res.status == "sat"
    restarts = [(prev, cur) for prev, cur in zip(log, log[1:]) if not cur[2]]
    assert restarts
    (prev, _, _), (reduct, _, _) = restarts[0]
    prev_top, top = _top_conjuncts(prev.formula), _top_conjuncts(reduct.formula)
    assert [f for f in prev_top if isinstance(f, ROr)] != \
        [f for f in top if isinstance(f, ROr)][:sum(isinstance(f, ROr) for f in prev_top)]


def _top_guards(phi):
    """The variables guarded by the top-level conjuncts of `phi`, nested
    conjunctions opened."""
    from adtsolve.reduce import _guard_vars
    from adtsolve.terms import And

    if isinstance(phi, And):
        return frozenset().union(*map(_top_guards, phi.args))
    return frozenset(_guard_vars(phi))


def _reduct_log(monkeypatch):
    """Wrap the loop's reduce so that every round's reduct must hold, as a
    multiset, the top-level conjuncts that a walk of the whole flat formula
    builds on the same reducer under its top-level guard set: its reduction,
    then the range rows of every variable; and must begin with the last
    round's top-level conjuncts unless a new guard changed the reduction of
    an old conjunct.  Returns the log of (top-level conjuncts, guard set,
    whether they begin with the last round's) per round."""
    from collections import Counter

    from adtsolve import sizesolve
    from adtsolve.reduce import rand

    reduce = sizesolve.reduce
    log = []

    def checked(flat, sig, mode, opt, reducer):
        got = reduce(flat, sig, mode, opt, reducer)
        guards = _top_guards(flat.formula)
        ranges = [reducer.in_range(RVar(name), sort) for name, sort in flat.var_sorts.items()]
        walk = rand([reducer.reduce_formula(flat.formula, guards)] + ranges)
        top = _top_conjuncts(got.formula)
        assert Counter(top) == Counter(_top_conjuncts(walk))
        prefix = None
        if log:
            last_top, last_guards, _ = log[-1]
            prefix = top[:len(last_top)] == last_top
            if not prefix:
                assert guards != last_guards and Counter(last_top) - Counter(top)
        log.append((top, guards, prefix))
        return got

    monkeypatch.setattr(sizesolve, "reduce", checked)
    return log


@pytest.mark.parametrize("text, fuel, prefixes", [
    (GUARD_DROPS_DISJUNCTION, 100, [True, True, False]),
    (NAT_NE_SAME_SIZE, 20, [True] * 20),
    (_clist_distinct(3, 4), 100, [True] * 5),
], ids=["guard", "nat", "distinct-3-4"])
def test_each_round_reduces_to_the_whole_walk(monkeypatch, text, fuel, prefixes):
    # a round's reduct extends the last one by a suffix, except in the
    # round whose clause guards a variable and drops a disjunction
    log = _reduct_log(monkeypatch)
    script = parse_script(text)
    res = decide(script.formula(), script.sig, fuel=fuel)
    assert len(log) == res.rounds + 1 > 2
    assert [prefix for _, _, prefix in log[1:]] == prefixes


def test_each_round_reduces_to_the_whole_walk_on_random_signatures(monkeypatch):
    import random
    from adtsolve.corpus import GenConfig, random_formula, random_signature

    log = _reduct_log(monkeypatch)
    rng = random.Random(11)
    guard_changes = prefixes = 0
    for _ in range(3):
        sig = random_signature(rng)
        for _ in range(30):
            phi = random_formula(rng, sig, GenConfig(n_vars=rng.randint(1, 3), size_atoms=True))
            log.clear()
            decide(phi, sig, fuel=20)
            guard_changes += len({guards for _, guards, _ in log}) > 1
            prefixes += sum(prefix is True for _, _, prefix in log)
    assert guard_changes and prefixes


def test_rounds_reduce_only_what_they_add(monkeypatch):
    # Nat x != y with |x| = |y|: each round reduces only its new case
    # clause, so the reduce_formula calls grow linearly with the rounds (69
    # at fuel 20, 129 at fuel 40); a walk of the whole formula every round
    # makes them grow quadratically (755 and 2705)
    from adtsolve.reduce import Reducer

    reduce_formula = Reducer.reduce_formula
    calls = []

    def counted(self, phi, guards=frozenset()):
        calls.append(phi)
        return reduce_formula(self, phi, guards)

    monkeypatch.setattr(Reducer, "reduce_formula", counted)
    script = parse_script(NAT_NE_SAME_SIZE)
    counts = []
    for fuel in (20, 40):
        calls.clear()
        res = decide(script.formula(), script.sig, fuel=fuel)
        assert (res.status, res.rounds) == ("unknown", fuel)
        counts.append(len(calls))
    assert counts[1] < 2.5 * counts[0]


@pytest.mark.parametrize("text", [GUARD_DROPS_DISJUNCTION, NAT_NE_SAME_SIZE,
                                  _clist_distinct(3, 4)], ids=["guard", "nat", "distinct-3-4"])
def test_session_index_matches_the_reduct(monkeypatch, text):
    # the acceptance test's index, kept for the life of the session and fed
    # only each round's new conjuncts, indexes exactly the solved reduct's
    # conjuncts, also after the session restarts
    from adtsolve import sizesolve
    from adtsolve.reduce import _var_occurrences

    mismatched = sizesolve._mismatched
    checked = []

    def wrapped(state, model, reduct, index):
        out = mismatched(state, model, reduct, index)
        if index.top is not None:
            want: dict = {}
            for f in _top_conjuncts(reduct.formula):
                names: dict = {}
                _var_occurrences(f, names)
                for name in names:
                    want.setdefault(name, set()).add(f)
            assert {v: set(fs) for v, fs in index.of(reduct).items()} == want
            checked.append(index.seen)
        return out

    monkeypatch.setattr(sizesolve, "_mismatched", wrapped)
    script = parse_script(text)
    decide(script.formula(), script.sig, fuel=14)
    assert len(checked) > 1


def test_new_clause_refuted_below_the_leaf(lists_sig):
    # round 0 takes arms x = 0 and y = 0; round 1 adds x >= 1, which no arm
    # below that leaf satisfies, so the search backtracks above it, and only
    # re-asserting x >= 1 there keeps it from the model x = 0, y = 1
    from adtsolve import backend
    from adtsolve.reduce import lin, rand, ror
    from tests.test_backend import wrap

    x, y = RVar("x"), RVar("y")
    arms = [ror([lin("eq", [(1, v)], -c) for c in (0, 1)]) for v in (x, y)]
    round0 = wrap(rand(arms), lists_sig)
    round1 = wrap(rand(arms + [lin("le", [(-1, x)], 1)]), lists_sig)
    session = backend.Session()
    assert backend.solve(round0, session=session).model.values == {"x": 0, "y": 0}
    got = backend.solve(round1, session=session)
    assert got.model.values == {"x": 1, "y": 0}
    assert session.search is not None and session.top[-1] == lin("le", [(-1, x)], 1)
    assert (got.status, got.model) == (backend.solve(round1).status,
                                       backend.solve(round1).model)
    # a third round whose new disjunction fails under both x arms is unsat,
    # and ends the session
    round2 = wrap(rand(arms + [lin("le", [(-1, x)], 1),
                               ror([lin("le", [(1, x)], 0), lin("le", [(-1, x)], 2)])]),
                  lists_sig)
    assert backend.solve(round2, session=session).status == "unsat"
    assert session.search is None


# v0 takes the first arm of the disjunction, whose literals say v0 =
# cs(_s1, _s2); the acceptance test repoints v0 at an unfolded value, and the
# disjunction stays true by its second arm.  v3 keeps the loop going.
REPOINTS_A_PATH_VARIABLE = """
(declare-datatypes ((E 0) (L 0)) (((e0) (e1)) ((nl) (cs (hd E) (tl L)))))
(declare-const v0 L)
(declare-const v1 L)
(declare-const v2 E)
(declare-const v3 L)
(assert (or (and (<= (adt.size v1) 8) (not ((_ is nl) v0))) (= v2 e0)))
(assert (= (adt.size v3) 5))
"""


def test_repointing_leaves_the_next_witness_alone(monkeypatch):
    # the model the search keeps for the node the next round adds below
    # its leaf must still satisfy every literal on the leaf's path after the
    # acceptance test repoints the values of the model it handed out
    from adtsolve import backend, sizesolve
    from tests.test_backend import path_literals, track_paths

    paths = track_paths(monkeypatch)
    mismatched = sizesolve._mismatched
    repointed = []

    def recorded(state, model, reduct, index):
        before = dict(model.values)
        out = mismatched(state, model, reduct, index)
        mentioned = index.session.search.leaf_model.values
        repointed.extend(v for v, w in model.values.items() if v in mentioned and before[v] != w)
        return out

    extend = backend._Search.extend
    extended = []

    def checked(self, added):
        lits = path_literals(paths, self)
        assert all(backend.eval_reduced(lit, self.leaf_model) for lit in lits)
        extended.append(len(lits))
        return extend(self, added)

    monkeypatch.setattr(sizesolve, "_mismatched", recorded)
    monkeypatch.setattr(backend._Search, "extend", checked)
    script = parse_script(REPOINTS_A_PATH_VARIABLE)
    res = decide(script.formula(), script.sig)
    assert res.status == "sat" and res.rounds > 2
    # the first round's search is an extension of the empty formula too
    assert "v0" in repointed and len(extended) == res.rounds + 1


def test_resource_limit_leaves_no_session(lists_sig):
    # a round that runs out of splits ends the session; the next round
    # starts a new search and gets a fresh search's answer
    from adtsolve import backend
    from tests.test_backend import two_colour_chain, wrap

    chain = two_colour_chain(6)
    session = backend.Session()
    assert backend.solve(wrap(RTRUE, lists_sig), session=session).status == "sat"
    assert session.search is not None
    got = backend.solve(chain, session=session, split_cap=20)
    assert (got.status, got.reason) == ("unknown", "split cap exhausted")
    assert session.search is None
    assert session.added(_top_conjuncts(chain.formula)) is None
    assert backend.solve(chain, session=session).status == "unsat"


def test_size_mode_sound_on_random_signatures():
    # the oracle differential of the list and tree corpora, on several
    # random signatures; unknown verdicts (non-expanding sorts) are skipped
    import random
    from adtsolve.corpus import (
        GenConfig, oracle_sat_within_bound, random_formula, random_signature,
    )

    rng = random.Random(23)
    decided = {"sat": 0, "unsat": 0, "unknown": 0}
    for _ in range(10):
        sig = random_signature(rng)
        for _ in range(20):
            phi = random_formula(rng, sig, GenConfig(n_vars=2, size_atoms=True,
                                                     size_const_max=5))
            res = size_mode(phi, sig, fuel=30)
            decided[res.status] += 1
            if res.status == "unknown":
                continue
            oracle = oracle_sat_within_bound(sig, phi, bound=5)
            if res.status == "unsat":
                assert oracle is None
            else:
                ok, diag = check_model(sig, res.model, phi)
                assert ok, diag
            if oracle is not None:
                assert res.status == "sat"
    print(f"size-mode random signatures: {decided}")
    assert decided["sat"] and decided["unsat"]


@pytest.mark.parametrize("seed", [11, 12])
def test_size_mode_differential(seed):
    # size mode against itself without the reduction options, against the
    # bounded oracle, and against depth mode on size-free formulas; an
    # unknown verdict (a non-expanding sort, fuel out) is compared with nothing
    import random
    from adtsolve.corpus import (
        GenConfig, oracle_sat_within_bound, random_formula, random_signature,
    )

    rng = random.Random(seed)
    sigs = [random_signature(rng) for _ in range(5)]
    compared = {"options": 0, "depth": 0}
    for i in range(300):
        sig = sigs[i % len(sigs)]
        size_atoms = i % 2 == 0
        phi = random_formula(rng, sig, GenConfig(n_vars=rng.randint(1, 3),
                                                 size_atoms=size_atoms))
        res = size_mode(phi, sig, fuel=30)
        if size_atoms:
            other = size_mode(phi, sig, fuel=30, opt=False)
            kind = "options"
        else:
            other = decide(phi, sig)
            kind = "depth"
        for r in (res, other):
            if r.status == "sat":
                ok, diag = check_model(sig, r.model, phi)
                assert ok, (i, diag)
            elif r.status == "unsat":
                assert oracle_sat_within_bound(sig, phi, bound=5) is None, i
        if "unknown" not in (res.status, other.status):
            assert res.status == other.status, (i, kind)
            compared[kind] += 1
    assert compared["options"] > 100 and compared["depth"] > 100, compared
