import glob
import os
import subprocess
import sys

import pytest

from adtsolve.errors import InputError, TypeCheckError, UnknownSymbolError
from adtsolve.parser import parse_script, read_sexprs
from adtsolve.terms import (
    TRUE, And, Ctor, Eq, IntConst, Not, Sel, SizeAtom, SizeOf, Tester, Var,
)

LISTS = """
(declare-datatypes ((Colour 0) (CList 0))
  (((red) (green) (blue))
   ((nil) (cons (head Colour) (tail CList)))))
(declare-const x CList)
(declare-const y Colour)
(declare-const n Int)
"""


def test_parse_constructor_equation():
    script = parse_script(LISTS + "(assert (= x (cons y nil)))")
    assert script.asserts == [
        Eq(Var("x", "CList"), Ctor("cons", (Var("y", "Colour"), Ctor("nil")))),
    ]


def test_parse_tester():
    script = parse_script(LISTS + "(assert ((_ is cons) x))")
    assert script.asserts == [Tester("cons", Var("x", "CList"))]


def test_parse_size_atom():
    script = parse_script(LISTS + "(assert (= (adt.size x) 3))")
    assert script.asserts == [
        SizeAtom("eq", SizeOf(Var("x", "CList")), IntConst(3)),
    ]


def test_parse_records_asserts_before_each_check_sat():
    a, b = "(assert ((_ is cons) x))", "(assert (= y red))"
    script = parse_script(LISTS + "(check-sat)" + a + "(check-sat)" + b + "(check-sat)" + a)
    assert script.check_sats == [0, 1, 2]
    first, second = script.asserts[:2]
    assert script.queries() == [TRUE, first, And((first, second))]
    assert script.formula() == And(tuple(script.asserts))
    # without a check-sat the one query is the conjunction of all assertions
    assert parse_script(LISTS + a + b).queries() == [And((first, second))]


def test_parse_records_get_models_and_declarations_per_check_sat():
    script = parse_script(LISTS + "(check-sat) (get-model) (declare-fun f (Int) Int)"
                          "(declare-const z CList) (check-sat) (check-sat) (get-model)")
    assert script.get_models == [1, 3]
    assert script.declared == [(3, 0), (4, 1), (4, 1)]
    everything = (script.var_sorts, script.ufuns)
    assert script.shown_models() == [({"x": "CList", "y": "Colour", "n": "Int"}, {}),
                                     None, everything]


def test_parse_commands_and_sig():
    script = parse_script(LISTS + "(check-sat)\n(get-model)")
    assert script.commands == ["check-sat", "get-model"]
    assert script.sig.sorts == ("Colour", "CList")
    assert [c.name for c in script.sig.ctors] == ["red", "green", "blue", "nil", "cons"]
    assert script.var_sorts == {"x": "CList", "y": "Colour", "n": "Int"}


def test_implication_and_distinct():
    script = parse_script(LISTS + "(assert (=> ((_ is cons) x) (distinct y red)))")
    (phi,) = script.asserts
    # => becomes (or (not a) b)
    from adtsolve.terms import Or
    assert isinstance(phi, Or)
    assert phi.args[0] == Not(Tester("cons", Var("x", "CList")))
    assert phi.args[1] == Not(Eq(Var("y", "Colour"), Ctor("red")))


def test_arithmetic_chain():
    script = parse_script(LISTS + "(assert (< 1 n 5))")
    from adtsolve.terms import And
    (phi,) = script.asserts
    assert isinstance(phi, And) and len(phi.args) == 2


def test_negated_numeral_is_a_numeral():
    # SMT-LIB 2.6 writes -2 as (- 2), also as a coefficient of a product;
    # the printer writes it back the same way
    from adtsolve.semantics import print_formula
    from adtsolve.sizesolve import decide
    from adtsolve.terms import IntMul, IntVar
    text = "(<= (+ (* (- 2) n) (- 3)) 0)"
    script = parse_script(LISTS + f"(assert {text})")
    (phi,) = script.asserts
    assert phi.lhs.args == (IntMul(-2, IntVar("n")), IntConst(-3))
    assert print_formula(script.sig, phi) == text
    res = decide(script.formula(), script.sig)
    assert res.status == "sat" and -2 * res.model.ints["n"] - 3 <= 0


def test_syntax_error_position():
    with pytest.raises(InputError) as e:
        parse_script("(assert (= x")
    assert e.value.line >= 1


@pytest.mark.parametrize("command, error, message, line, col", [
    ("(assert true))", InputError, "unexpected ')'", 8, 14),
    # a list left open reports the end of input, on a later line
    ("(assert (and true\n  (= y red)\n", InputError, "unbalanced parenthesis", 10, 1),
    # a tab and a carriage return count one column each
    ("(assert\t\r(= x y))", TypeCheckError,
     "type error in (= x y): expected CList, found Colour", 8, 10),
    ("(assert (= x (cons\tred\rred)))", TypeCheckError,
     "type error in red: expected CList, found Colour", 8, 24),
    ("(assert (not (= y red) (= y blue)))", InputError, "not takes one argument", 8, 9),
    ("(assert (= x (cons red (cons y (cons red red)))))", TypeCheckError,
     "type error in red: expected CList, found Colour", 8, 42),
    ("(assert (let ((c red) c) (= y c)))", InputError,
     "expected (name term) let binding", 8, 23),
    ("(declare-fun f (Colour) Int)", InputError,
     "uninterpreted functions must range over Int", 8, 17),
])
def test_error_positions_are_exact(command, error, message, line, col):
    with pytest.raises(InputError) as e:
        parse_script(LISTS + command)
    assert (type(e.value), str(e.value), e.value.line, e.value.col) == \
        (error, f"{line}:{col}: {message}", line, col)


def test_end_of_input_after_a_trailing_comment():
    # the comment runs to column 25, so the input ends at column 26
    with pytest.raises(InputError) as e:
        read_sexprs("(assert (= x y) ; comment")
    assert (str(e.value), e.value.line, e.value.col) == ("1:26: unbalanced parenthesis", 1, 26)


NAT = "(declare-datatypes ((Nat 0)) (((z) (s (p Nat)))))\n(declare-const x Nat)\n"


def test_numeral_deeper_than_the_recursion_limit_parses():
    depth = 10_000
    assert depth > 5 * sys.getrecursionlimit()
    numeral = f"{'(s ' * depth}z{')' * depth}"
    script = parse_script(NAT + f"(assert (= x {numeral}))")
    (phi,) = script.asserts
    # the first hash of so deep a term still recurses: walk it in a loop
    t, n = phi.rhs, 0
    while t.args:
        assert t.ctor == "s" and len(t.args) == 1
        t, n = t.args[0], n + 1
    assert (t.ctor, n) == ("z", depth)
    # a type error prints the whole term
    with pytest.raises(TypeCheckError) as e:
        parse_script(NAT + f"(assert {numeral})")
    assert str(e.value).endswith(f"(s z{')' * depth}: expected Bool, found Nat")


def test_bundled_inputs_parse_under_a_low_recursion_limit():
    """The parser does not recurse: every bundled input parses under a
    limit of 200 frames to the scripts it gives under the default limit."""
    inputs = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                           "scripts", "inputs", "*.smt2")))
    code = ("import sys\n"
            "from adtsolve.parser import parse_script\n"
            "texts = [open(f).read() for f in sys.argv[1:]]\n"
            "limit = sys.getrecursionlimit()\n"
            "sys.setrecursionlimit(200)\n"
            "scripts = [parse_script(t) for t in texts]\n"
            "sys.setrecursionlimit(limit)\n"
            "for s in scripts:\n"
            "    print(repr(s))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code, *inputs], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    assert proc.returncode == 0, proc.stderr
    want = []
    for f in inputs:
        with open(f) as text:
            want.append(repr(parse_script(text.read())))
    assert len(want) >= 15 and proc.stdout.splitlines() == want


def test_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        parse_script(LISTS + "(assert ((_ is snoc) x))")
    with pytest.raises(UnknownSymbolError):
        parse_script(LISTS + "(assert (= x w))")


def test_type_error():
    with pytest.raises(TypeCheckError):
        parse_script(LISTS + "(assert (= x y))")
    with pytest.raises(TypeCheckError):
        parse_script(LISTS + "(assert (= (head y) red))")
    with pytest.raises(TypeCheckError):
        parse_script(LISTS + "(assert (adt.size n))")


def test_duplicate_declaration():
    with pytest.raises(InputError):
        parse_script(LISTS + "(declare-const x Colour)")


def test_invalid_datatype_rejected():
    with pytest.raises(InputError) as e:
        parse_script("(declare-datatypes ((S 0)) (((f (s S)))))")
    assert "empty-sort" in str(e.value)


def test_declare_fun_roundtrip():
    text = LISTS + """
(declare-fun g (Int Int) Int)
(assert (= (g n 1) 2))
"""
    script = parse_script(text)
    assert script.ufuns["g"] == (("Int", "Int"), "Int")


def test_parametric_rejected():
    with pytest.raises(InputError):
        parse_script("(declare-datatypes ((L 1)) (((nil))))")


def test_let_binds_in_parallel():
    # x in the second binding is the declared x, not the first binding's value
    script = parse_script(LISTS + "(assert (let ((x (head x)) (z x)) "
                          "(and (= x red) ((_ is cons) z))))")
    x = Var("x", "CList")
    assert script.asserts == [And((Eq(Sel("cons", 0, x), Ctor("red")),
                                   Tester("cons", x)))]


def test_let_shadows_and_nests():
    # the inner binding shadows the outer one; bodies may be Boolean
    script = parse_script(LISTS + "(assert (let ((p (= y red))) "
                          "(let ((y green) (q p)) (and q (= y y)))))")
    assert script.asserts == [And((Eq(Var("y", "Colour"), Ctor("red")),
                                   Eq(Ctor("green"), Ctor("green"))))]
    # a binding is not visible outside its body
    with pytest.raises(UnknownSymbolError):
        parse_script(LISTS + "(assert (and (let ((c red)) (= y c)) (= y c)))")


@pytest.mark.parametrize("body", [
    "(let)", "(let ((c red)))", "(let c (= y c))", "(let () true)",
    "(let ((c)) true)", "(let (((c) red)) true)", "(let ((c red) (c blue)) true)",
    "(let ((c red)) (= y c) true)",
])
def test_malformed_let_is_an_input_error(body):
    with pytest.raises(InputError):
        parse_script(LISTS + f"(assert {body})")
