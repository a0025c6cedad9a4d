import pytest

from adtsolve.models import check_model
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_formula, parse_script
from adtsolve.reduce import ReduceOptions
from adtsolve.sizesolve import (
    AlreadyUnfoldedError, UnknownVariableError, completeness_report, decide,
    make_state, solve_with_size, unfold_step,
)
from adtsolve.semantics import evaluate
from adtsolve.signature import enumerate_terms
from adtsolve.terms import AdtModel, Ctor, Eq, Or, Var


def nat_formula(nat_sig, text):
    return parse_formula(text, nat_sig, {"x": "Nat", "y": "Nat", "k": "Int"})


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


# -- solve_with_size ------------------------------------------------------------

def test_unique_model_of_size_three(lists_sig, fml):
    phi = fml("(and (= (adt.size x) 3) (not (= (head x) red)) "
              "(not (= (head x) green)))")
    # oracle: enumerate all lists of size <= 3 and evaluate
    witnesses = [t for t in enumerate_terms(lists_sig, "CList", 3)
                 if evaluate(lists_sig, AdtModel({"x": t}), phi)]
    assert witnesses == [Ctor("cons", (Ctor("blue"), Ctor("nil")))]
    res = solve_with_size(phi, lists_sig)
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
    res = solve_with_size(phi, lists_sig)
    assert (res.status, res.rounds) == ("sat", 2)
    assert {res.state.var_sorts[v] for v in res.state.unfolded} == {"CList"}
    assert res.model.adt["x"] == Ctor("cons", (Ctor("blue"), Ctor("nil")))
    # without the enumeration rule a head is an ADT value like any other
    res = solve_with_size(phi, lists_sig, opts=ReduceOptions.none())
    assert res.status == "sat"
    assert "Colour" in {res.state.var_sorts[v] for v in res.state.unfolded}


def test_even_size_unsat_without_unfolding(lists_sig, fml):
    phi = fml("(= (adt.size x) (* 2 k))")
    res = solve_with_size(phi, lists_sig)
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
    res = solve_with_size(phi, nat_sig)
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
    res = solve_with_size(phi, nat_sig, fuel=20)
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
    res = solve_with_size(phi, lists_sig)
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
    res = solve_with_size(phi, lists_sig, fuel=10_000)
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
    assert solve_with_size(four, lists_sig, fuel=60).status == "unsat"
    three = parse_formula(f"(and {distinct('xyz')} {sized('xyz')})",
                          lists_sig, vars_)
    res = solve_with_size(three, lists_sig, fuel=60)
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
        res = solve_with_size(phi, lists_sig, fuel=40)
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
        res = solve_with_size(phi, tree, fuel=60)
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
        size = solve_with_size(phi, sig, fuel=30)
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


# -- the resumed search across rounds ---------------------------------------------

def _round_log(monkeypatch):
    """Wrap backend.solve so that every round resumed from the previous
    round's path is also searched afresh, and the two models must match;
    returns the log of (reduct, result, resume) per round."""
    from adtsolve import backend

    solve = backend.solve
    log = []

    def checked(reduct, resume=()):
        got = solve(reduct, resume=resume)
        if resume:
            fresh = solve(reduct)
            assert (got.status, got.model, got.path) == \
                (fresh.status, fresh.model, fresh.path)
        log.append((reduct, got, resume))
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
    from adtsolve.sizesolve import _extends

    script = parse_script(text)
    log = _round_log(monkeypatch)
    res = decide(script.formula(), script.sig, fuel=fuel)
    assert res.rounds == len(log) - 1 > 0
    # every round's reduct extends its predecessor's, and the search resumes
    # from the predecessor's path
    for (prev, prev_result, _), (cur, _, resume) in zip(log, log[1:]):
        assert _extends(prev.formula, cur.formula)
        assert resume == prev_result.path


def test_resumed_search_equals_fresh_on_random_signatures(monkeypatch):
    # random_signature's one-constructor product sorts hit the guard case
    import random
    from adtsolve.corpus import GenConfig, random_formula, random_signature
    from adtsolve.sizesolve import _extends

    log = _round_log(monkeypatch)
    rng = random.Random(11)
    for _ in range(4):
        sigs = [random_signature(rng) for _ in range(3)]
        for i in range(40):
            phi = random_formula(rng, sigs[i % 3], GenConfig(n_vars=rng.randint(1, 3),
                                                             size_atoms=True))
            log.append(None)  # a new instance
            decide(phi, sigs[i % 3], fuel=20)
    pairs = [(a, b) for a, b in zip(log, log[1:]) if a and b]
    assert sum(1 for _, (_, _, resume) in pairs if resume) > 50
    # the guard case dropped a disjunction, and those rounds searched afresh
    assert any(not _extends(a[0].formula, b[0].formula) for a, b in pairs)


def test_resumed_search_visits_fewer_nodes(monkeypatch):
    # Nat x != y with |x| = |y| at fuel 10: 166 search nodes over all rounds
    # when every round searches from the root
    from adtsolve import backend

    calls = []
    search = backend._Search.search

    def counted(self, pending, resume=()):
        calls.append(resume)
        return search(self, pending, resume)

    monkeypatch.setattr(backend._Search, "search", counted)
    script = parse_script(NAT_NE_SAME_SIZE)
    res = decide(script.formula(), script.sig, fuel=10)
    assert (res.status, res.rounds) == ("unknown", 10)
    assert len(calls) == 86


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
    from adtsolve import backend
    from adtsolve.sizesolve import _extends

    solve = backend.solve
    log = _round_log(monkeypatch)
    script = parse_script(GUARD_DROPS_DISJUNCTION)
    res = decide(script.formula(), script.sig)
    assert res.status == "sat"
    broken = [(prev, cur) for prev, cur in zip(log, log[1:])
              if not _extends(prev[0].formula, cur[0].formula)]
    assert broken
    for (_, prev_result, _), (reduct, result, resume) in broken:
        assert resume == ()
    # resuming there anyway would not return the fresh search's model
    (_, prev_result, _), (reduct, result, _) = broken[0]
    forced = solve(reduct, resume=prev_result.path)
    assert forced.model != result.model


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
            res = solve_with_size(phi, sig, fuel=30)
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
