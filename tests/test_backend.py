import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from adtsolve import backend
from adtsolve.errors import ProtocolError, SpawnError
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_script
from adtsolve.reduce import (
    RApp, RConst, REq, RLin, RVar, rand, reduce, rne, ror, simplify,
)
from tests.test_semantics import formulas

FAKES = os.path.join(os.path.dirname(__file__), "fakes")


def wrap(formula, lists_sig):
    """Package a bare reduced formula for the solver."""
    flat = flatten(to_nnf(__import__("adtsolve.terms", fromlist=["TRUE"]).TRUE),
                   lists_sig)
    from adtsolve.reduce import SymbolTable, ReducedFormula
    table = SymbolTable(lists_sig)
    return ReducedFormula(formula, table, flat)


def ex1_reduct(lists_sig, fml):
    phi = fml("(and ((_ is cons) x) (not (= y blue)) "
              "(or (= (head x) red) (= x (cons y nil))))")
    return reduce(flatten(to_nnf(phi), lists_sig), lists_sig, "depth")


def test_example_reduct_sat(lists_sig, fml):
    res = backend.solve(ex1_reduct(lists_sig, fml))
    assert res.status == "sat"
    assert backend.eval_reduced(ex1_reduct(lists_sig, fml).formula, res.model)


def test_congruence_unsat(lists_sig):
    f = rand([
        REq(RApp("f", (RVar("a"),)), RVar("b")),
        REq(RVar("a"), RVar("c")),
        rne(RApp("f", (RVar("c"),)), RVar("b")),
    ])
    assert backend.solve(wrap(f, lists_sig)).status == "unsat"


def test_contradiction_unsat(lists_sig):
    f = rand([REq(RVar("x"), RVar("y")), rne(RVar("x"), RVar("y"))])
    assert backend.solve(wrap(f, lists_sig)).status == "unsat"


def test_arith_with_functions(lists_sig):
    # f(x) < f(y) forces x != y
    f = rand([
        RLin("le", ((1, RApp("f", (RVar("x"),))), (-1, RApp("f", (RVar("y"),)))), 1),
        REq(RVar("x"), RVar("y")),
    ])
    assert backend.solve(wrap(f, lists_sig)).status == "unsat"


def test_determinism(lists_sig, fml):
    r = ex1_reduct(lists_sig, fml)
    a = backend.solve(r)
    b = backend.solve(r)
    assert a.status == b.status == "sat"
    assert a.model.values == b.model.values
    assert a.model.funcs == b.model.funcs


@given(formulas(allow_size=False))
def test_every_sat_model_reevaluates(lists_sig, phi):
    r = reduce(flatten(to_nnf(phi), lists_sig), lists_sig, "depth")
    res = backend.solve(r)
    if res.status == "sat":
        assert backend.eval_reduced(r.formula, res.model)


# -- emission ---------------------------------------------------------------------

def test_emit_reparses(lists_sig, fml):
    r = ex1_reduct(lists_sig, fml)
    script = backend.emit_smtlib(r)
    reparsed = parse_script(script)
    assert len(reparsed.asserts) == 1
    assert reparsed.commands == ["check-sat", "get-model"]


def test_emit_declares_source_arities(lists_sig, fml):
    r = ex1_reduct(lists_sig, fml)
    script = backend.emit_smtlib(r)
    assert "(declare-fun cons (Int Int) Int)" in script
    assert "(declare-fun head (Int) Int)" in script
    assert "(declare-fun ctorId_CList (Int) Int)" in script
    assert "(declare-fun depth_CList (Int) Int)" in script


def test_emit_deterministic(lists_sig, fml):
    assert backend.emit_smtlib(ex1_reduct(lists_sig, fml)) == \
        backend.emit_smtlib(ex1_reduct(lists_sig, fml))


# -- external client ---------------------------------------------------------------

def _fake(name):
    return f"{sys.executable} {os.path.join(FAKES, name)}"


def test_external_sat_with_model(lists_sig):
    # the fake answers x = 3 and f(3) = 7, a model of x = 3 and f(x) = 7
    x = RVar("x")
    f = rand([RLin("eq", ((1, x),), -3), REq(RApp("f", (x,)), RConst(7))])
    res = backend.solve_external(wrap(f, lists_sig), _fake("smt_sat.py"))
    assert res.status == "sat"
    assert res.model.values["x"] == 3
    assert res.model.funcs["f"] == {(3,): 7}
    assert res.model.defaults["f"] == 0


def test_model_response_of_top_level_define_funs():
    model = backend.parse_model_response(
        "(define-fun a () Int 3)\n(define-fun f ((x Int)) Int (ite (= x 1) 2 0))")
    assert model.values == {"a": 3}
    assert model.funcs == {"f": {(1,): 2}}


def test_external_unsat(lists_sig, fml):
    res = backend.solve_external(ex1_reduct(lists_sig, fml), _fake("smt_unsat.py"))
    assert res.status == "unsat"


def test_external_unknown(lists_sig, fml):
    res = backend.solve_external(ex1_reduct(lists_sig, fml), _fake("smt_unknown.py"))
    assert res.status == "unknown"


def test_external_protocol_error(lists_sig, fml):
    with pytest.raises(ProtocolError) as e:
        backend.solve_external(ex1_reduct(lists_sig, fml), _fake("smt_garbage.py"))
    assert "flurble" in e.value.raw or "flurble" in str(e.value)


def test_external_spawn_error(lists_sig, fml):
    with pytest.raises(SpawnError):
        backend.solve_external(ex1_reduct(lists_sig, fml), "/nonexistent/solver-xyz")


EXTERNAL = os.environ.get("ADTSOLVE_EXTERNAL_CMD")


@pytest.mark.skipif(not EXTERNAL, reason="no external SMT solver configured")
def test_external_agrees_with_builtin(lists_sig, fml):
    r = ex1_reduct(lists_sig, fml)
    ours = backend.solve(r)
    theirs = backend.solve_external(r, EXTERNAL)
    assert ours.status == theirs.status == "sat"
    assert backend.eval_reduced(r.formula, theirs.model)


def test_general_disequality_split(lists_sig):
    # x + y != 3 with x + y pushed onto 3 by bounds: must still find a model
    f = rand([
        RLin("ne", ((1, RVar("x")), (1, RVar("y"))), -3),
        RLin("le", ((-1, RVar("x")),), 1),   # x >= 1
        RLin("le", ((1, RVar("x")),), -2),   # x <= 2
        RLin("le", ((-1, RVar("y")),), 1),   # y >= 1
        RLin("le", ((1, RVar("y")),), -2),   # y <= 2
    ])
    res = backend.solve(wrap(f, lists_sig))
    assert res.status == "sat"
    assert res.model.value("x") + res.model.value("y") != 3
    # pinning both sides to 3 makes it unsat
    g = rand([
        RLin("ne", ((1, RVar("x")), (1, RVar("y"))), -3),
        RLin("eq", ((1, RVar("x")),), -1),
        RLin("eq", ((1, RVar("y")),), -2),
    ])
    assert backend.solve(wrap(g, lists_sig)).status == "unsat"


def test_pure_integer_formula_through_pipeline(lists_sig):
    from adtsolve.parser import parse_script
    from adtsolve.sizesolve import decide
    script = parse_script("""
(declare-datatypes ((Colour 0) (CList 0))
  (((red) (green) (blue)) ((nil) (cons (head Colour) (tail CList)))))
(declare-const n Int)
(declare-const m Int)
(assert (< n m))
(assert (< m n))
""")
    assert decide(script.formula(), script.sig).status == "unsat"
    script2 = parse_script("""
(declare-datatypes ((E 0)) (((a) (b))))
(declare-const n Int)
(assert (< 3 n))
(assert (< n 5))
""")
    res = decide(script2.formula(), script2.sig)
    assert res.status == "sat"
    assert res.model.ints["n"] == 4


# -- one LIA system along the search ------------------------------------------------

def _le(const, *pairs):
    """sum(c * var) + const <= 0 over integer variables."""
    return RLin("le", tuple((c, RVar(v)) for c, v in pairs), const)


A_LE_5 = _le(-5, (1, "a"))          # a <= 5
B_GE_7 = _le(7, (-1, "b"))          # b >= 7
B_GE_3 = _le(3, (-1, "b"))          # b >= 3


@pytest.mark.parametrize("lits, status", [
    # a row over a's class, then a's class merged into b's: the union must
    # carry a <= 5 over to the rows over b
    ([A_LE_5, REq(RVar("a"), RVar("b")), B_GE_7], "unsat"),
    ([A_LE_5, REq(RVar("a"), RVar("b")), B_GE_3], "sat"),
    ([REq(RVar("a"), RVar("b")), A_LE_5, B_GE_7], "unsat"),
    ([REq(RVar("a"), RVar("b")), A_LE_5, B_GE_3], "sat"),
    # a's class merged with a constant's class
    ([A_LE_5, REq(RVar("a"), RConst(7))], "unsat"),
    ([A_LE_5, REq(RVar("a"), RConst(3))], "sat"),
    ([REq(RVar("a"), RConst(7)), A_LE_5], "unsat"),
    ([REq(RVar("a"), RConst(3)), A_LE_5], "sat"),
    # a's class is the larger one, so the constant's class is merged into it
    ([REq(RVar("a"), RVar("c")), A_LE_5, REq(RVar("c"), RConst(7))], "unsat"),
    ([REq(RVar("a"), RVar("c")), A_LE_5, REq(RVar("c"), RConst(3))], "sat"),
    # the merge happens in a disjunction's arm and is popped for the next arm
    ([A_LE_5, B_GE_3, ror([REq(RVar("a"), RConst(7)), REq(RVar("a"), RVar("b"))])],
     "sat"),
    ([A_LE_5, B_GE_7, ror([REq(RVar("a"), RConst(7)), REq(RVar("a"), RVar("b"))])],
     "unsat"),
    # a disequality over one class, whichever literal comes first, and an
    # `ne` row of other coefficients whose two sides the union puts in one class
    ([REq(RVar("a"), RVar("b")), rne(RVar("a"), RVar("b"))], "unsat"),
    ([rne(RVar("a"), RVar("b")), REq(RVar("a"), RVar("b"))], "unsat"),
    ([REq(RVar("a"), RVar("b")), RLin("ne", ((2, RVar("a")), (-2, RVar("b"))), 0)],
     "unsat"),
])
def test_class_merges_reach_the_lia_rows(lists_sig, lits, status):
    f = rand(lits)
    res = backend.solve(wrap(f, lists_sig))
    assert res.status == status
    if status == "sat":
        assert backend.eval_reduced(f, res.model)


def test_one_lia_system_per_solve(lists_sig, monkeypatch):
    built = []

    class Counted(backend.lia.System):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(backend.lia, "System", Counted)
    # functional-consistency and disequality splits, and exhausted arms
    assert backend.solve(two_colour_chain(4)).status == "unsat"
    assert len(built) == 1
    f = rand([
        RLin("ne", ((1, RVar("x")), (1, RVar("y"))), -3),
        _le(1, (-1, "x")), _le(-2, (1, "x")), _le(1, (-1, "y")), _le(-2, (1, "y")),
    ])
    assert backend.solve(wrap(f, lists_sig)).status == "sat"
    assert len(built) == 2


def _spent(monkeypatch, reduct):
    """Solve, and return the verdict with the splits and branches spent."""
    budgets = []

    class Recorded(backend._Budget):
        def __init__(self, splits):
            super().__init__(splits)
            budgets.append((self, splits))

    monkeypatch.setattr(backend, "_Budget", Recorded)
    status = backend.solve(reduct).status
    (budget, splits), = budgets
    return status, splits - budget.splits, budget.branches


def test_search_tree_size_is_pinned(lists_sig, monkeypatch):
    # the split and branch counts of the DFS with fail-first `ne` splits; a
    # search change that prunes (or grows) the tree shows up here
    assert _spent(monkeypatch, two_colour_chain(4)) == ("unsat", 106, 11)
    # f(x) = 1, f(y) = 2 with x, y in [0, 1]: the candidate x = y = 0 breaks
    # functional consistency; its split's arm x != y is split into x < y
    fx, fy = RApp("f", (RVar("x"),)), RApp("f", (RVar("y"),))
    f = rand([REq(fx, RConst(1)), REq(fy, RConst(2)),
              _le(0, (-1, "x")), _le(-1, (1, "x")), _le(0, (-1, "y")), _le(-1, (1, "y"))])
    assert _spent(monkeypatch, wrap(f, lists_sig)) == ("sat", 6, 0)


def test_loose_disequality_of_two_variables_needs_no_candidate(monkeypatch):
    # x != y over two free classes is a loose row, added before the violated
    # z != w (z = w = 0 at their upper bounds): the candidate gives x and y
    # distinct values, so the probe splits z != w without building it
    calls = []
    candidate = backend._Search.candidate

    def counted(self, model_map):
        calls.append(model_map)
        return candidate(self, model_map)

    monkeypatch.setattr(backend._Search, "candidate", counted)
    search = backend._Search(backend._Budget(100))
    x, y, z, w = (RVar(v) for v in "xyzw")
    search.assert_lit(rne(x, y))
    search.assert_lit(_le(0, (1, "z")))
    search.assert_lit(_le(0, (1, "w")))
    search.assert_lit(rne(z, w))
    best, loose = search.lia.violated()
    assert [sorted(a for _, a in row.coeffs) for row in loose] == [[-1, 1]]
    arms = search.decide()
    assert [arm.coeffs for arm in arms] == [
        tuple((v, s * a) for v, a in best.coeffs) for s in (1, -1)]
    assert calls == []


# -- backtrackable congruence closure ---------------------------------------------

def _cc_state(cc):
    return ([cc.find(i) for i in range(len(cc.terms))],
            [list(u) for u in cc.uses], dict(cc.ids), dict(cc.sigs))


def test_cc_pop_restores_pre_push_state():
    cc = backend._CC()
    a, b, c = RVar("a"), RVar("b"), RVar("c")
    fa = cc.add(RApp("f", (a,)))
    cc.merge(cc.add(b), cc.add(RConst(1)))
    before = _cc_state(cc)
    cc.push()
    cc.merge(cc.ids[a], cc.ids[b])
    cc.merge(cc.add(RApp("g", (a, c))), fa)
    cc.merge(cc.ids[c], cc.add(RApp("f", (b,))))
    assert cc.find(cc.ids[c]) == cc.find(fa)
    cc.pop()
    assert _cc_state(cc) == before
    assert len(cc.terms) == 4


def test_cc_congruence_through_nested_applications():
    cc = backend._CC()
    a, b = RVar("a"), RVar("b")
    fga = cc.add(RApp("f", (RApp("g", (a,)),)))
    fgb = cc.add(RApp("f", (RApp("g", (b,)),)))
    assert cc.find(fga) != cc.find(fgb)
    cc.push()
    cc.merge(cc.ids[a], cc.ids[b])
    assert cc.find(fga) == cc.find(fgb)
    cc.pop()
    assert cc.find(fga) != cc.find(fgb)
    # an application added after the merge joins its congruent class at once
    cc.merge(cc.ids[a], cc.ids[b])
    h = cc.add(RApp("h", (b,)))
    assert cc.find(cc.add(RApp("h", (a,)))) == cc.find(h)


def has_model(lits):
    """Whether a fresh search finds a model of the conjunction of `lits`:
    a complete decision, where one `decide` may return a split instead."""
    budget = backend._Budget(backend.DEFAULT_SPLIT_CAP)
    return backend._Search(budget).search(list(lits)) is not None


def test_search_constant_clash_undone_by_pop():
    """Constants live in the LIA system only: x = 1 and y = 2 pin two class
    variables, so x = y and x != 1 are infeasible rows there, and a pop
    restores the consistent state below them."""
    search = backend._Search(backend._Budget(100))
    x, y = RVar("x"), RVar("y")
    search.assert_lit(REq(x, RConst(1)))
    search.assert_lit(REq(y, RConst(2)))
    before = (_cc_state(search.cc), dict(search.mentioned), search.decide())
    assert before[2].values == {"x": 1, "y": 2}
    for clash in (REq(x, y), rne(x, RConst(1))):
        search.push()
        fx, fy = RApp("f", (x,)), RApp("f", (y,))
        search.assert_lit(REq(RVar("z"), fx))
        # f(x) = f(y) is fine; the clash is not
        search.assert_lit(REq(fx, fy))
        assert has_model([REq(x, RConst(1)), REq(y, RConst(2)), REq(RVar("z"), fx), REq(fx, fy)])
        search.assert_lit(clash)
        assert search.lia.model() is None
        assert search.decide() is None
        search.pop()
        assert (_cc_state(search.cc), dict(search.mentioned), search.decide()) == before


def test_cc_matches_naive_closure():
    """Random equalities, some under push/pop, against a fixpoint closure."""
    rng = random.Random(7)

    def term(d):
        if d == 0 or rng.random() < 0.3:
            return RVar(rng.choice("abcd"))
        fn = rng.choice("fg")
        return RApp(fn, tuple(term(d - 1) for _ in range(1 if fn == "f" else 2)))

    def naive(terms, eqs):
        cls = {t: t for t in terms}

        def find(t):
            while cls[t] != t:
                t = cls[t]
            return t
        for s, t in eqs:
            cls[find(s)] = find(t)
        changed = True
        while changed:
            changed = False
            for s in terms:
                for t in terms:
                    if (isinstance(s, RApp) and isinstance(t, RApp) and s.fn == t.fn
                            and find(s) != find(t)
                            and all(find(x) == find(y) for x, y in zip(s.args, t.args))):
                        cls[find(s)] = find(t)
                        changed = True
        return find

    for _ in range(150):
        cc = backend._CC()
        kept = [(term(3), term(3)) for _ in range(rng.randint(0, 3))]
        for s, t in kept:
            cc.merge(cc.add(s), cc.add(t))
        before = _cc_state(cc)
        cc.push()
        scoped = [(term(3), term(3)) for _ in range(rng.randint(1, 3))]
        for s, t in scoped:
            cc.merge(cc.add(s), cc.add(t))
        cc.add(term(3))
        find = naive(cc.terms, kept + scoped)
        for i, s in enumerate(cc.terms):
            for j, t in enumerate(cc.terms):
                assert (cc.find(i) == cc.find(j)) == (find(s) == find(t))
        cc.pop()
        assert _cc_state(cc) == before


@st.composite
def _int_rows(draw):
    """A conjunction of `ne` and `le` rows over three or four integer
    variables, each variable boxed in [-1, 1]; returns the rows with the
    variable names."""
    names = ["a", "b", "c", "d"][:draw(st.integers(3, 4))]
    rows = []
    for _ in range(draw(st.integers(2, 10))):
        used = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        terms = tuple((draw(st.sampled_from([-2, -1, 1, 2])), RVar(v)) for v in used)
        rows.append(RLin(draw(st.sampled_from(["ne", "ne", "le"])), terms,
                         draw(st.integers(-2, 2))))
    for v in names:
        rows += [_le(-1, (1, v)), _le(-1, (-1, v))]
    return rows, names


@given(_int_rows())
def test_ne_and_le_rows_against_brute_force(lists_sig, case):
    """The verdict on `ne` and `le` rows equals brute force over the box,
    whichever order the search splits the `ne` rows in."""
    rows, names = case
    f = rand(rows)
    expected = any(backend.eval_reduced(f, backend.IntModel(dict(zip(names, p))))
                   for p in itertools.product(range(-1, 2), repeat=len(names)))
    res = backend.solve(wrap(f, lists_sig))
    assert res.status == ("sat" if expected else "unsat")
    if expected:
        assert backend.eval_reduced(f, res.model)


# -- resource caps ----------------------------------------------------------------

def chain_text(n, two=True):
    """x_{i+1} = tail x_i, adjacent heads differ: sat.  With `two`, heads
    are also in {red, green} and head x_0 != head x_2: unsat, and the search
    must be exhausted to say so."""
    x = [f"x{i}" for i in range(n + 1)]
    lines = ["(declare-datatypes ((Colour 0) (CList 0)) (((red) (green) (blue)) "
             "((nil) (cons (head Colour) (tail CList)))))"]
    lines += [f"(declare-const {v} CList)" for v in x]
    for i in range(n):
        lines.append(f"(assert ((_ is cons) {x[i]}))")
        lines.append(f"(assert (= {x[i + 1]} (tail {x[i]})))")
        lines.append(f"(assert (not (= (head {x[i]}) (head {x[i + 1]}))))")
    if two:
        for v in x:
            lines.append(f"(assert (or (= (head {v}) red) (= (head {v}) green)))")
        lines.append(f"(assert (not (= (head {x[0]}) (head {x[2]}))))")
    return "\n".join(lines)


def two_colour_chain(n):
    """The reduct of the two-colour chain of `chain_text`."""
    script = parse_script(chain_text(n))
    return simplify(reduce(flatten(to_nnf(script.formula()), script.sig), script.sig,
                           "depth"))


def test_two_colour_chain_unsat_within_default_caps():
    assert backend.solve(two_colour_chain(4)).status == "unsat"


DEEP_CHAINS = """
import sys
from adtsolve import decide, parse_script, print_model
sys.setrecursionlimit(250)
for path in sys.argv[1:]:
    script = parse_script(open(path).read())
    res = decide(script.formula(), script.sig)
    print(res.status)
    if res.status == "sat":
        print(print_model(script.sig, res.model, script.var_sorts).splitlines()[0][:40])
"""


def test_chains_decide_deeper_than_the_recursion_limit(tmp_path):
    # a case split is a frame of the search, not a level of Python's stack:
    # 150 nested `ne` splits decide under a limit of 250 frames
    paths = []
    for two in (True, False):
        paths.append(tmp_path / f"chain-{two}.smt2")
        paths[-1].write_text(chain_text(150, two))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", DEEP_CHAINS, *map(str, paths)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["unsat", "sat", "(define-fun x0 () CList (cons red (cons "]


def test_two_colour_chain_splits_grow_linearly(monkeypatch):
    # splitting the violated `ne` row with the fewest variables first fails
    # a pinned head at once instead of exploring the heads' orderings below it
    spent = {}
    for n in (10, 18, 24, 40):
        status, spent[n], _ = _spent(monkeypatch, two_colour_chain(n))
        assert status == "unsat", n
    assert spent[40] <= 5 * spent[10]


@pytest.mark.parametrize("caps, reason", [
    ({"split_cap": 20}, "split cap exhausted"),
])
def test_caps_give_unknown(caps, reason):
    res = backend.solve(two_colour_chain(6), **caps)
    assert res.status == "unknown"
    assert res.reason == reason


# -- the evaluator against its recursive reference ------------------------------

def _ref_eval_rterm(t, model):
    """The recursive evaluator that `backend.eval_rterm` replaced, kept as
    its reference."""
    if isinstance(t, RVar):
        return model.value(t.name)
    if isinstance(t, RConst):
        return t.value
    return model.app(t.fn, tuple(_ref_eval_rterm(a, model) for a in t.args))


def _ref_eval_reduced(f, model):
    from adtsolve.reduce import RAnd, RFalseF, ROr, RTrueF

    if isinstance(f, RTrueF):
        return True
    if isinstance(f, RFalseF):
        return False
    if isinstance(f, REq):
        return _ref_eval_rterm(f.lhs, model) == _ref_eval_rterm(f.rhs, model)
    if isinstance(f, RLin):
        total = f.const + sum(c * _ref_eval_rterm(t, model) for c, t in f.terms)
        return {"le": total <= 0, "eq": total == 0, "ne": total != 0}[f.op]
    if isinstance(f, RAnd):
        return all(_ref_eval_reduced(a, model) for a in f.args)
    if isinstance(f, ROr):
        return any(_ref_eval_reduced(a, model) for a in f.args)
    raise AssertionError(f)


def _nodes(f, formulas, terms):
    """Every subformula and every term of a reduced formula."""
    def term(t):
        terms.append(t)
        for a in getattr(t, "args", ()):
            term(a)

    formulas.append(f)
    if isinstance(f, REq):
        term(f.lhs)
        term(f.rhs)
    elif isinstance(f, RLin):
        for _, t in f.terms:
            term(t)
    else:
        for a in getattr(f, "args", ()):
            _nodes(a, formulas, terms)


def test_evaluator_matches_recursive_reference():
    # corpus reducts in both modes, plus nested applications of a declared
    # function, under random models whose small value range makes graph
    # hits, recorded defaults and the default 0 all occur
    from adtsolve.corpus import GenConfig, random_formula, random_signature
    from adtsolve.sizesolve import reduction_mode

    rng = random.Random(7)
    reducts = []
    for _ in range(6):
        sig = random_signature(rng)
        for size_atoms in (False, True):
            phi = random_formula(rng, sig, GenConfig(size_atoms=size_atoms))
            reducts.append(reduce(flatten(to_nnf(phi), sig), sig, reduction_mode(phi)))
    script = parse_script("(declare-fun f (Int Int) Int) (declare-fun g (Int) Int)"
                          "(declare-const a Int) (assert (or (= (f (g a) (- 1)) 2)"
                          " (distinct (g (f a (g 3))) a)))")
    reducts.append(reduce(flatten(to_nnf(script.formula()), script.sig), script.sig))
    hits = fell_through = checked = 0
    for reduct in reducts:
        formulas, terms = [], []
        _nodes(reduct.formula, formulas, terms)
        funs = reduct.table.funs
        for _ in range(20):
            model = backend.IntModel(
                {name: rng.randint(-2, 2) for name in reduct.table.int_vars
                 if rng.random() < 0.8})
            for fn, (arity, _) in funs.items():
                if rng.random() < 0.8:
                    model.funcs[fn] = {tuple(rng.randint(-2, 2) for _ in range(arity)):
                                       rng.randint(-2, 2) for _ in range(3)}
                if rng.random() < 0.5:
                    model.defaults[fn] = rng.randint(-2, 2)
            for t in terms:
                assert backend.eval_rterm(t, model) == _ref_eval_rterm(t, model), t
                if isinstance(t, RApp):
                    args = tuple(_ref_eval_rterm(a, model) for a in t.args)
                    hit = args in model.funcs.get(t.fn, {})
                    hits, fell_through = hits + hit, fell_through + (not hit)
            for f in formulas:
                assert backend.eval_reduced(f, model) == _ref_eval_reduced(f, model), f
                checked += 1
    assert hits > 100 and fell_through > 100 and checked > 2000


# -- inner nodes settled by their parent's model ----------------------------------

def pigeonhole_or(n):
    """n independent two-arm disjunctions, then three constants of a
    two-constructor sort under `distinct`: unsat, and only deciding the root
    prunes the 2^n leaves below it."""
    lines = ["(declare-datatypes ((C 0)) (((c0) (c1))))"]
    lines += [f"(declare-const a{i} C)" for i in range(n)]
    lines += [f"(declare-const {v} C)" for v in "xyz"]
    lines += [f"(assert (or (= a{i} c0) (= a{i} c1)))" for i in range(n)]
    lines.append("(assert (distinct x y z))")
    script = parse_script("\n".join(lines))
    return reduce(flatten(to_nnf(script.formula()), script.sig), script.sig, "depth")


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_root_conflict_prunes_every_disjunction(n):
    assert backend.solve(pigeonhole_or(n)).status == "unsat"


def _deciding_every_node(fn, *args, **kwargs):
    """Call fn under the reference node rule, which decides every node of
    the search and settles none by its witness."""
    settles = backend._Search._settles
    backend._Search._settles = lambda self, witness, lits: False
    try:
        return fn(*args, **kwargs)
    finally:
        backend._Search._settles = settles


def _count_node_decides(monkeypatch):
    """Count the `decide` calls of the search's nodes, not those of the
    arms of case splits, which run while the top frame is the split's
    (model None); returns the one-element counter."""
    decide = backend._Search.decide
    count = [0]

    def counted(self):
        count[0] += not (self.frames and self.frames[-1][2] is None)
        return decide(self)

    monkeypatch.setattr(backend._Search, "decide", counted)
    return count


def track_paths(monkeypatch):
    """Record the literals each search has asserted in the scopes still
    open; returns the map from search to that list."""
    paths = {}
    push, pop, assert_lit = backend._Search.push, backend._Search.pop, backend._Search.assert_lit

    def pushed(self):
        push(self)
        paths.setdefault(self, []).append(None)

    def popped(self):
        pop(self)
        path = paths[self]
        del path[len(path) - path[::-1].index(None) - 1:]

    def asserted(self, lit):
        assert_lit(self, lit)
        paths.setdefault(self, []).append(lit)

    monkeypatch.setattr(backend._Search, "push", pushed)
    monkeypatch.setattr(backend._Search, "pop", popped)
    monkeypatch.setattr(backend._Search, "assert_lit", asserted)
    return paths


def path_literals(paths, search):
    """The formula literals asserted along the search's current path."""
    return [lit for lit in paths.get(search, ()) if lit is not None
            and not isinstance(lit, backend.lia.LinCon)]


def _check_settled_nodes(monkeypatch):
    """Check at every node settled by its witness that the witness satisfies
    every literal on the node's path, and that a fresh search of those
    literals finds a model; returns the list of settled nodes."""
    settles = backend._Search._settles
    paths = track_paths(monkeypatch)
    settled = []

    def checked(self, witness, lits):
        out = settles(self, witness, lits)
        if out:
            path = path_literals(paths, self)
            assert all(backend.eval_reduced(lit, witness) for lit in path)
            assert has_model(path), lits
            settled.append(lits)
        return out

    monkeypatch.setattr(backend._Search, "_settles", checked)
    return settled


def _stateless_reducts():
    """Corpus reducts in both modes, two-colour chains and pigeonholes."""
    from adtsolve.corpus import GenConfig, random_formula, random_signature
    from adtsolve.sizesolve import reduction_mode

    rng = random.Random(3)
    reducts = []
    for _ in range(20):
        sig = random_signature(rng)
        for size_atoms in (False, True):
            for _ in range(5):
                phi = random_formula(rng, sig, GenConfig(n_vars=rng.randint(1, 3),
                                                         size_atoms=size_atoms))
                reducts.append(reduce(flatten(to_nnf(phi), sig), sig, reduction_mode(phi)))
    return reducts + [two_colour_chain(n) for n in (3, 4, 6)] + [pigeonhole_or(4)]


SESSION_FIXTURES = ["nat-20", "distinct-3-4", "guard"]


def _session_fixture(name):
    from tests.test_sizesolve import (
        GUARD_DROPS_DISJUNCTION, NAT_NE_SAME_SIZE, _clist_distinct,
    )
    text, fuel = {"nat-20": (NAT_NE_SAME_SIZE, 20), "distinct-3-4": (_clist_distinct(3, 4), 100),
                  "guard": (GUARD_DROPS_DISJUNCTION, 100)}[name]
    return parse_script(text), fuel


def test_search_matches_the_reference_rule(monkeypatch):
    # same status and model as deciding every node, with no more node decides
    count = _count_node_decides(monkeypatch)
    fewer = 0
    for reduct in _stateless_reducts():
        count[0] = 0
        got = backend.solve(reduct)
        spent = count[0]
        count[0] = 0
        want = _deciding_every_node(backend.solve, reduct)
        assert (got.status, got.model) == (want.status, want.model)
        assert spent <= count[0]
        fewer += spent < count[0]
    assert fewer


@pytest.mark.parametrize("name", SESSION_FIXTURES)
def test_session_search_matches_the_reference_rule(monkeypatch, name):
    # every round's solve on the live session against a second session
    # that decides every node, solve by solve
    from adtsolve.sizesolve import decide

    solve = backend.solve
    count = _count_node_decides(monkeypatch)
    references, spent = {}, [0, 0]

    def paired(reduct, session=None, **caps):
        count[0] = 0
        got = solve(reduct, session=session, **caps)
        spent[0] += count[0]
        count[0] = 0
        reference = references.setdefault(session, backend.Session())
        want = _deciding_every_node(solve, reduct, session=reference, **caps)
        spent[1] += count[0]
        assert (got.status, got.model) == (want.status, want.model)
        return got

    monkeypatch.setattr(backend, "solve", paired)
    script, fuel = _session_fixture(name)
    res = decide(script.formula(), script.sig, fuel=fuel)
    assert res.rounds > 1
    assert spent[0] <= spent[1]
    if name == "nat-20":
        assert spent[0] < spent[1]


def test_settled_nodes_could_not_be_pruned(monkeypatch):
    # at every node the witness settles, `decide` finds a model too
    from adtsolve.sizesolve import decide

    settled = _check_settled_nodes(monkeypatch)
    for reduct in _stateless_reducts():
        backend.solve(reduct)
    stateless = len(settled)
    assert stateless
    for name in SESSION_FIXTURES:
        script, fuel = _session_fixture(name)
        decide(script.formula(), script.sig, fuel=fuel)
    assert len(settled) > stateless


def _bound(v, op, k):
    """v = k, v != k, v <= k or v >= k."""
    if op == "eq":
        return RLin("eq", ((1, RVar(v)),), -k)
    if op == "ne":
        return rne(RVar(v), RConst(k))
    return _le(-k, (1, v)) if op == "le" else _le(k, (-1, v))


_bounds = st.builds(_bound, st.sampled_from("abc"), st.sampled_from(["eq", "ne", "le", "ge"]),
                    st.integers(0, 3))


@given(st.lists(st.one_of(_bounds, st.lists(_bounds, min_size=2, max_size=3).map(ror)),
                min_size=1, max_size=4))
# the last round backtracks above the leaf and re-asserts a = 2 at the node
# of the second disjunction, whose third arm must then be judged by the
# node's new model, not by the one it had before a = 2 joined it
@example([ror([_bound("b", "eq", 1), _bound("c", "le", 2), _bound("b", "ge", 0)]),
          ror([_bound("c", "le", 0), _bound("a", "ge", 1), _bound("c", "le", 0)]),
          _bound("a", "eq", 2),
          ror([_bound("b", "le", 0), _bound("a", "eq", 3)])])
def test_session_rounds_match_the_reference_rule(lists_sig, added):
    """Rounds that each add one conjunct, on a live session and on one that
    decides every node: the same verdict and model every round, and every
    node settled by its witness could not have been pruned."""
    with pytest.MonkeyPatch.context() as mp:
        _check_settled_nodes(mp)
        # a node that gets a model drops the split frames above it, so none
        # is left open when a search or an extension returns
        for name in ("search", "extend"):
            def no_split_frame_left(self, *args, method=getattr(backend._Search, name)):
                out = method(self, *args)
                assert all(frame[2] is not None for frame in self.frames)
                return out

            mp.setattr(backend._Search, name, no_split_frame_left)
        session, reference = backend.Session(), backend.Session()
        conj = [_bound(v, "ge", 0) for v in "abc"]
        for f in added:
            conj.append(f)
            reduct = wrap(rand(conj), lists_sig)
            got = backend.solve(reduct, session=session)
            want = _deciding_every_node(backend.solve, reduct, session=reference)
            assert (got.status, got.model) == (want.status, want.model)


def test_restored_node_keeps_a_model_that_satisfies_it(lists_sig, monkeypatch):
    """Round 1 takes the arm a = 1 below a root whose model has a = 0, and
    round 2 adds a <= 0: the arm fails, the pop re-asserts a <= 0 at the
    root, and the root's model satisfies it, so the root is not re-entered
    to be decided again: every step to a next arm carries a witness.  The
    model is still the reference rule's."""
    restored, steps = [], []
    restore, next_arm = backend._Search._restore, backend._Search._next_arm

    def recorded_restore(self):
        restored.append(restore(self))
        return restored[-1]

    def recorded_next_arm(self):
        steps.append(next_arm(self))
        return steps[-1]

    monkeypatch.setattr(backend._Search, "_restore", recorded_restore)
    monkeypatch.setattr(backend._Search, "_next_arm", recorded_next_arm)
    session, reference = backend.Session(), backend.Session()
    conj = [_bound(v, "ge", 0) for v in "abc"]
    for f in (ror([_bound("a", "eq", 1), _bound("c", "ge", 0)]), _bound("a", "le", 0)):
        conj.append(f)
        reduct = wrap(rand(conj), lists_sig)
        restored.clear()
        steps.clear()
        got = backend.solve(reduct, session=session)
        assert steps and all(step is None or step[2] is not None for step in steps)
        live_restores = list(restored)
        want = _deciding_every_node(backend.solve, reduct, session=reference)
        assert (got.status, got.model) == (want.status, want.model)
    assert got.status == "sat" and got.model.value("a") == 0
    assert [_bound("a", "le", 0)] in live_restores
