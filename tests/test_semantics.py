import pytest
from hypothesis import given, strategies as st

from adtsolve.errors import UnboundVariableError
from adtsolve.parser import parse_formula
from adtsolve.semantics import evaluate, eval_term, print_formula, print_model
from adtsolve.signature import CtorDecl, Signature
from adtsolve.terms import (
    AdtModel, And, Ctor, Eq, IntConst, Not, Or, Sel, SizeAtom, SizeOf, Tester,
    Var, free_vars, ground_size,
)

RED = Ctor("red")
GREEN = Ctor("green")
BLUE = Ctor("blue")
NIL = Ctor("nil")


def cons(h, t):
    return Ctor("cons", (h, t))


def test_example_formula_satisfied(lists_sig, fml):
    phi = fml("(and ((_ is cons) x) (not (= y blue)) "
              "(or (= (head x) red) (= x (cons y nil))))")
    model = AdtModel({"x": cons(RED, NIL), "y": GREEN})
    assert evaluate(lists_sig, model, phi)
    assert not evaluate(lists_sig, AdtModel({"x": NIL, "y": GREEN}), phi)


def test_tester(lists_sig):
    assert evaluate(lists_sig, AdtModel(), Tester("nil", NIL))
    assert not evaluate(lists_sig, AdtModel(), Tester("cons", NIL))


def test_size_of_counts_constructors(lists_sig):
    phi = SizeAtom("eq", SizeOf(cons(BLUE, NIL)), IntConst(3))
    assert evaluate(lists_sig, AdtModel(), phi)
    assert ground_size(cons(BLUE, cons(RED, NIL))) == 5


@given(st.integers(0, 3))
def test_size_is_one_plus_children(depth):
    t = NIL
    for _ in range(depth):
        t = cons(RED, t)
    if isinstance(t, Ctor) and t.args:
        assert ground_size(t) == 1 + sum(ground_size(a) for a in t.args)


def test_selector_on_right_head(lists_sig):
    t = Sel("cons", 0, Var("x", "CList"))
    model = AdtModel({"x": cons(BLUE, NIL)})
    assert eval_term(lists_sig, model, t) == BLUE


def test_selector_default_witness(lists_sig):
    # head of nil: first Colour term in enumeration order
    t = Sel("cons", 0, NIL)
    assert eval_term(lists_sig, AdtModel(), t) == RED
    # tail of nil: first CList term
    assert eval_term(lists_sig, AdtModel(), Sel("cons", 1, NIL)) == NIL


def test_selector_override(lists_sig):
    model = AdtModel(selector_overrides={("cons", 0, NIL): GREEN})
    assert eval_term(lists_sig, model, Sel("cons", 0, NIL)) == GREEN


def test_unbound_variable(lists_sig):
    with pytest.raises(UnboundVariableError):
        evaluate(lists_sig, AdtModel(), Tester("nil", Var("w", "CList")))


def test_free_vars(fml):
    phi = fml("(and ((_ is cons) x) (not (= y blue)) "
              "(or (= (head x) red) (= x (cons y nil))))")
    fv = free_vars(phi)
    assert fv.adt == frozenset({Var("x", "CList"), Var("y", "Colour")})
    assert fv.ints == frozenset()
    fv2 = free_vars(fml("(= (adt.size x) (+ k 1))"))
    assert fv2.adt == frozenset({Var("x", "CList")})
    assert fv2.ints == frozenset({"k"})


def test_print_model(lists_sig):
    model = AdtModel({"x": cons(RED, NIL)}, {"n": -2})
    text = print_model(lists_sig, model, {"x": "CList", "n": "Int"})
    assert "(define-fun x () CList (cons red nil))" in text
    assert "(define-fun n () Int (- 2))" in text


def test_print_model_of_a_deep_chain(lists_sig):
    # the model of the chain of 1000 links nests 1001 conses, deeper than
    # Python's default recursion limit, and prints all the same
    names = ["red", "green", "blue"]
    terms = [NIL]
    for i in reversed(range(1001)):
        terms.append(cons(Ctor(names[i % 3]), terms[-1]))
    terms.reverse()
    model = AdtModel({f"x{i}": t for i, t in enumerate(terms[:-1])}, {})
    lines = print_model(lists_sig, model, {f"x{i}": "CList" for i in range(1001)}).splitlines()
    assert len(lines) == 1001
    assert lines[0] == ("(define-fun x0 () CList "
                        + "".join(f"(cons {names[i % 3]} " for i in range(1001))
                        + "nil" + ")" * 1001 + ")")
    assert lines[1000] == "(define-fun x1000 () CList (cons green nil))"


def test_terms_nested_10_000_deep_evaluate(nat_sig):
    # a numeral, a selector chain and a numeral over a selector, each nested
    # 10 000 deep, evaluate under Python's default recursion limit
    from adtsolve.models import check_model

    def succ(t, n):
        for _ in range(n):
            t = Ctor("succ", (t,))
        return t

    def pred(t, n):
        for _ in range(n):
            t = Sel("succ", 0, t)
        return t

    n = 10_000
    x = Var("x", "Nat")
    model = AdtModel({"x": succ(Ctor("one"), n)})
    phi = And((Eq(x, succ(Ctor("one"), n)),
               Eq(pred(x, n), Ctor("one")),
               Eq(succ(pred(x, 1), n), succ(Ctor("one"), 2 * n - 1)),
               Not(Eq(pred(x, n), x)),
               SizeAtom("eq", SizeOf(pred(succ(x, n), n)), IntConst(n + 1))))
    assert check_model(nat_sig, model, phi) == (True, None)
    assert eval_term(nat_sig, model, pred(x, n + 1)) == Ctor("one")  # default witness


def test_deep_terms_hash_under_the_recursion_limit():
    # a term's hash is taken when it is built, from its arguments' hashes,
    # so the first hash of a term nested 10 000 deep does not recurse
    n = 10_000
    t = Ctor("z")
    for _ in range(n):
        t = Ctor("b", (t,))
    assert hash(Ctor("a", (t,))) == hash(("a", (t,)))
    chain = Var("x", "T")
    for _ in range(n):
        chain = Sel("b", 0, chain)
    assert hash(chain) == hash(("b", 0, chain.arg))
    # a wrong-headed selector looks its argument's value up among the
    # model's selector overrides, which hashes it
    sig = Signature(("T",), (CtorDecl("z", "T"), CtorDecl("a", "T", (("pa", "T"),)),
                             CtorDecl("b", "T", (("pb", "T"),))))
    model = AdtModel({"x": Ctor("a", (t,))})
    assert eval_term(sig, model, Sel("b", 0, Var("x", "T"))) == Ctor("z")


def test_print_parse_golden(lists_sig, fml):
    for text in [
        "(and ((_ is cons) x) (not (= y blue)))",
        "(or (= (head x) red) (= x (cons y nil)))",
        "(= (adt.size x) 3)",
        "(distinct (adt.size x) (adt.size z))",
        "(<= (+ (adt.size x) (* 2 k)) 7)",
    ]:
        phi = fml(text)
        assert print_formula(lists_sig, phi) == text


# -- random round-trip --------------------------------------------------------------

@st.composite
def formulas(draw, allow_size=True):
    colour_terms = st.sampled_from([RED, GREEN, BLUE, Var("y", "Colour"),
                                    Sel("cons", 0, Var("x", "CList"))])
    clist_terms = st.sampled_from([NIL, Var("x", "CList"), Var("z", "CList"),
                                   cons(RED, NIL), Sel("cons", 1, Var("x", "CList"))])

    def literal():
        kind = draw(st.integers(0, 4 if allow_size else 3))
        if kind == 0:
            return Tester(draw(st.sampled_from(["nil", "cons"])), draw(clist_terms))
        if kind == 1:
            return Eq(draw(colour_terms), draw(colour_terms))
        if kind == 2:
            return Eq(draw(clist_terms), draw(clist_terms))
        if kind == 3:
            return Not(Eq(draw(clist_terms), draw(clist_terms)))
        return SizeAtom(draw(st.sampled_from(["eq", "le", "lt", "ge", "gt"])),
                        SizeOf(draw(clist_terms)),
                        IntConst(draw(st.integers(0, 9))))

    def tree(depth):
        if depth == 0:
            return literal()
        kids = tuple(tree(depth - 1) for _ in range(draw(st.integers(2, 3))))
        return draw(st.sampled_from([And(kids), Or(kids), Not(And(kids))]))

    return tree(draw(st.integers(0, 2)))


@given(formulas())
def test_parse_print_roundtrip(lists_sig, phi):
    text = print_formula(lists_sig, phi)
    vars_ = {"x": "CList", "y": "Colour", "z": "CList"}
    again = parse_formula(text, lists_sig, vars_)
    assert again == phi
