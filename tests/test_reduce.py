import random

import pytest
from hypothesis import given

from adtsolve.errors import InternalError, ModeMismatchError
from adtsolve.normalize import flatten, to_nnf
from adtsolve.reduce import (
    DEPTH_MODE, RAnd, RApp, RConst, REq, RFALSE, RLin, ROr, RVar, Reducer, SymbolTable, is_utvpi, iter_literals, reduce, rformula_nodes, simplify,
)
from adtsolve import backend
from adtsolve.corpus import random_signature, signature_size
from adtsolve.terms import formula_nodes
from tests.test_semantics import formulas

EX1 = ("(and ((_ is cons) x) (not (= y blue)) "
       "(or (= (head x) red) (= x (cons y nil))))")


def _reduce(sig, fml, text, mode="depth", opt=True):
    return reduce(flatten(to_nnf(fml(text)), sig), sig, mode, opt)


def lits(reduct):
    return list(iter_literals(reduct.formula))


def apps(reduct, fn):
    return [l for l in lits(reduct) if isinstance(l, REq)
            and isinstance(l.lhs, RApp) and l.lhs.fn == fn]


def fns(reduct):
    """The function symbols of every application in the reduct."""
    out = set()

    def walk(t):
        if isinstance(t, RApp):
            out.add(t.fn)
            for a in t.args:
                walk(a)

    for l in lits(reduct):
        for t in [l.lhs, l.rhs] if isinstance(l, REq) else [t for _, t in l.terms]:
            walk(t)
    return out


def test_example_encoding(lists_sig, fml):
    r = _reduce(lists_sig, fml, EX1)
    # constructor application, head index, selectors, Skolems, ranges, depths
    assert apps(r, "cons")
    cid = apps(r, "ctorId_CList")
    assert REq(RApp("ctorId_CList", (RVar("x"),)), RConst(1)) in cid
    assert apps(r, "head") and apps(r, "tail")
    assert "_s1" in r.table.int_vars and "_s2" in r.table.int_vars
    assert r.table.int_vars["_s1"] == ("skolem", "Colour")
    # depth strictly decreases to children
    depth_atoms = [l for l in lits(r) if isinstance(l, RLin)
                   and any(isinstance(t, RApp) and t.fn.startswith("depth_")
                           for _, t in l.terms)]
    assert depth_atoms
    # but not to the head: Colour does not reach CList
    assert "depth_Colour" not in fns(r)
    # enumeration optimization: blue = _t1 becomes _t1 = 2, red = _t2 becomes 0
    assert REq(RVar("_t1"), RConst(2)) in lits(r)
    assert REq(RVar("_t2"), RConst(0)) in lits(r)
    # range constraints for the Colour variables: 0 <= y < 3
    assert RLin("le", ((-1, RVar("y")),), 0) in lits(r)
    assert RLin("le", ((1, RVar("y")),), -2) in lits(r)


def test_variable_equation_over_infinite_sort(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(= x z)")
    assert r.formula == REq(RVar("x"), RVar("z"))  # In constraints vacuous


def test_negated_equation(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(not (= x z))")
    assert r.formula == RLin("ne", ((1, RVar("x")), (-1, RVar("z"))), 0)


def test_size_mode_rule7(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(= (adt.size x) n)", mode="size")
    size_eq = apps(r, "size_CList")
    assert size_eq, "size function application missing"
    # membership in the odd size image: y = 1 + 2k with k >= 0
    membership = [l for l in lits(r) if isinstance(l, RLin) and l.op == "eq"
                  and any(c == -2 for c, _ in l.terms)]
    assert membership, "size-image membership constraint missing"


def test_size_atom_in_depth_mode_rejected(lists_sig, fml):
    with pytest.raises(ModeMismatchError):
        _reduce(lists_sig, fml, "(= (adt.size x) 3)", mode="depth")


def test_unknown_mode_rejected_with_a_given_table(lists_sig):
    # with a table of its own, the reducer still checks its mode
    with pytest.raises(InternalError, match="unknown mode"):
        Reducer(lists_sig, "dpeth", table=SymbolTable(lists_sig))


def test_rule7_membership_for_every_size_literal(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(and (= (adt.size x) n) (= (adt.size z) 5))",
                mode="size")
    size_defs = [l for l in apps(r, "size_CList")]
    assert len(size_defs) == 2


# -- guarded optimization -----------------------------------------------------------

def test_guarded_selector_drops_disjunction(lists_sig, fml):
    r = _reduce(lists_sig, fml, EX1)
    # the source has one disjunction; no further ones were introduced
    ors = [l for l in _subformulas(r.formula) if isinstance(l, ROr)]
    assert len(ors) == 1
    # Skolems only from the tester, not from the selector
    assert set(r.table.skolem_names()) == {"_s1", "_s2"}


def test_unguarded_selector_keeps_full_rule(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(= (head x) y)")
    ors = [l for l in _subformulas(r.formula) if isinstance(l, ROr)]
    assert len(ors) == 1  # the head-case disjunction
    assert len(ors[0].args) == 2  # nil case and cons case


def test_tester_guards_selector(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(and ((_ is cons) x) (= (head x) y))")
    skolems = set(r.table.skolem_names())
    assert len(skolems) == 2  # only the tester's ExCtorSpec
    r2 = _reduce(lists_sig, fml, "(and ((_ is cons) x) (= (head x) y))",
                 opt=False)
    assert len(set(r2.table.skolem_names())) > 2


def test_guard_does_not_cross_disjuncts(lists_sig, fml):
    # tester in one disjunct must not license (2') in the other
    r = _reduce(lists_sig, fml, "(or ((_ is cons) x) (= (head x) y))")
    (top,) = [f for f in [r.formula] if True]
    ors = [l for l in _subformulas(r.formula) if isinstance(l, ROr)]
    # outer disjunction plus the full-rule disjunction inside the selector arm
    assert len(ors) >= 2


def _subformulas(f):
    yield f
    if isinstance(f, (RAnd, ROr)):
        for a in f.args:
            yield from _subformulas(a)


# -- enumeration optimization ----------------------------------------------------------

def test_enum_literal(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(= y red)")
    assert REq(RVar("y"), RConst(0)) in lits(r)
    assert not r.table.funs  # no uninterpreted symbols for the enum sort


def test_enum_tester(lists_sig, fml):
    r = _reduce(lists_sig, fml, "((_ is blue) y)")
    assert REq(RVar("y"), RConst(2)) in lits(r)
    rneg = _reduce(lists_sig, fml, "(not ((_ is blue) y))")
    assert RLin("ne", ((1, RVar("y")),), -2) in lits(rneg)


def test_enum_opt_off_uses_ctorid(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(= y red)", opt=False)
    assert apps(r, "ctorId_Colour")


def test_non_enum_sort_unchanged(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(= x nil)")
    assert apps(r, "ctorId_CList")


# -- simplify ---------------------------------------------------------------------------

def test_simplify_constant_conflict(lists_sig, fml):
    r = _reduce(lists_sig, fml, "(and (= y red) (= y z2) (not (= z2 red)))"
                .replace("z2", "c"))
    s = simplify(r)
    assert s.formula == RFALSE


def test_simplify_removes_dead_fresh_definitions(lists_sig, fml):
    # nil = _t names a subterm never used elsewhere after propagation
    r = _reduce(lists_sig, fml, "(and (= x z) (= z nil))")
    s = simplify(r)
    assert rformula_nodes(s.formula) <= rformula_nodes(r.formula)


def test_simplify_idempotent(lists_sig, fml):
    # the fourth: both arms of the or dedup to the conjunction already
    # present; the last: dropping the definition of (tail x) collapses a
    # conjunction into an or that repeats a sibling disjunct
    for text in [EX1, "(= x z)", "(or (= y red) (= y green))",
                 "(and (and ((_ is nil) nil) ((_ is nil) nil)) "
                 "(or ((_ is nil) nil) ((_ is nil) nil)))",
                 "(not (and (not (= (tail x) (tail x))) (not (= nil x)) "
                 "((_ is nil) nil)))"]:
        s = simplify(_reduce(lists_sig, fml, text))
        assert simplify(s).formula == s.formula


@given(formulas(allow_size=False))
def test_simplify_idempotent_random(lists_sig, phi):
    r = reduce(flatten(to_nnf(phi), lists_sig), lists_sig, "depth")
    s = simplify(r)
    assert simplify(s).formula == s.formula


@given(formulas(allow_size=False))
def test_simplify_preserves_verdict(lists_sig, phi):
    r = reduce(flatten(to_nnf(phi), lists_sig), lists_sig, "depth")
    assert backend.solve(r).status == backend.solve(simplify(r)).status


# -- structural properties ------------------------------------------------------------------

@given(formulas(allow_size=False))
def test_depth_mode_utvpi(lists_sig, phi):
    r = reduce(flatten(to_nnf(phi), lists_sig), lists_sig, "depth")
    assert is_utvpi(r)
    assert is_utvpi(reduce(r.flat, lists_sig, "depth", False))


@given(formulas(allow_size=False))
def test_blowup_linear_in_signature(lists_sig, phi):
    flat = flatten(to_nnf(phi), lists_sig)
    r = reduce(flat, lists_sig, "depth", False)
    bound = 4.0 * signature_size(lists_sig) * max(1, formula_nodes(flat.formula))
    assert rformula_nodes(r.formula) <= bound


def test_literal_memoization_shares_skolems(lists_sig, fml):
    # the same tester twice yields one Skolem pair
    r = _reduce(lists_sig, fml, "(or (and ((_ is cons) x) (= y red)) "
                                "(and ((_ is cons) x) (= y green)))")
    assert set(r.table.skolem_names()) == {"_s1", "_s2"}


def test_literals_of_one_conjunction_share_one_guard_set(monkeypatch):
    # every literal of a 50-link chain is reduced under the one guard set of
    # the top-level conjunction, not a copy per literal
    from tests.test_models import _sat_chain

    seen = []
    reduce_literal = Reducer.reduce_literal

    def recorded(self, lit, guards):
        seen.append(guards)  # kept, so no set's id is reused
        return reduce_literal(self, lit, guards)

    monkeypatch.setattr(Reducer, "reduce_literal", recorded)
    script = _sat_chain(50)
    reduce(flatten(to_nnf(script.formula()), script.sig), script.sig)
    assert len(seen) >= 150
    assert all(g is seen[0] for g in seen)
    assert len(seen[0]) == 50  # x0 .. x49 are tested to be a cons


# -- depth rows -------------------------------------------------------------------------

def _closure(sig):
    """sort -> the sorts reachable from it in one or more steps, by
    iterating the one-step successors to a fixpoint."""
    reach = {s: {a for c in sig.ctors_of(s) for _, a in c.args} for s in sig.sorts}
    changed = True
    while changed:
        changed = False
        for s in sig.sorts:
            more = set().union(*(reach[a] for a in reach[s])) - reach[s]
            if more:
                reach[s] |= more
                changed = True
    return reach


def test_depth_rows_exactly_inside_components(forest_sig):
    """Every depth row of a constructor literal joins two sorts of one
    component, and every argument inside its result sort's component gets
    one."""
    for sig in [forest_sig] + [random_signature(random.Random(seed)) for seed in range(200)]:
        reach = _closure(sig)
        table = SymbolTable(sig)
        red = Reducer(sig, DEPTH_MODE, True, table, "_s")
        for c in sig.ctors:
            args = [RVar(f"a{j}") for j in range(c.arity)]
            rows = {}  # argument position -> its sort, read off the row
            for l in iter_literals(red.ctor_spec(c.name, RVar("x"), args)):
                if isinstance(l, RLin):
                    (_, d0), (_, dj) = sorted(l.terms, key=lambda p: p[0])
                    assert d0.args == (RVar("x"),)
                    assert table.origin_of_fun(d0.fn) == ("depth", c.sort)
                    rows[args.index(dj.args[0])] = table.origin_of_fun(dj.fn)[1]
            for sort in rows.values():
                assert c.sort in reach[sort] and sort in reach[c.sort]
            assert rows == {j: a for j, (_, a) in enumerate(c.args) if c.sort in reach[a]}


def test_reducer_starts_anew_on_a_formula_that_does_not_extend_the_last(lists_sig):
    # the second formula's conjuncts do not begin with the first's, so the
    # kept reducer drops its parts and reduces it as a fresh one does
    from adtsolve.parser import parse_formula

    def flat(text):
        phi = parse_formula(text, lists_sig, {"x": "CList", "y": "CList"})
        return flatten(to_nnf(phi), lists_sig)

    kept = Reducer(lists_sig, DEPTH_MODE)
    kept.reduce_flat(flat("((_ is cons) x)"))
    again = kept.reduce_flat(flat("(= y (cons red nil))"))
    fresh = Reducer(lists_sig, DEPTH_MODE).reduce_flat(flat("(= y (cons red nil))"))
    assert backend.rformula_text(again.formula) == backend.rformula_text(fresh.formula)
    assert backend.solve(again).status == backend.solve(fresh).status == "sat"
