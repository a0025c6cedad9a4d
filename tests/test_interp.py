import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from adtsolve.errors import ProtocolError, UntranslatableError
from adtsolve.interp import (
    InterpolatingBackend, InterpolationProblem, back_translate, interpolate,
    interpolation_script, parse_reduced, validate_interpolant,
)
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_formula
from adtsolve.backend import IntModel, eval_reduced, rformula_text
from adtsolve.corpus import GenConfig, random_formula, random_signature
from adtsolve.reduce import (
    DEPTH_MODE, SIZE_MODE, RAnd, RApp, RConst, REq, RLin, ROr, RVar,
    SymbolTable, reduce, reduce_partitions, rne,
)
from adtsolve.semantics import print_formula
from adtsolve.signature import CtorDecl, Signature
from adtsolve.sizesolve import decide, run_loop
from adtsolve.terms import And, Ctor, Eq, FALSE, Not, Sel, Tester, Var

FAKES = os.path.join(os.path.dirname(__file__), "fakes")
VARS = {"x": "CList", "y": "CList", "z": "CList", "c": "Colour"}


def _fake(name):
    return f"{sys.executable} {os.path.join(FAKES, name)}"


def section_five_problem(sig):
    # one reconstruction of the partially elided source problem: the A side
    # links z to the tail of x
    a = parse_formula("(and (= z (tail x)) ((_ is cons) z) "
                      "(not (= (head x) (head z))))", sig, VARS)
    b = parse_formula("(= x (cons c (cons c y)))", sig, VARS)
    return InterpolationProblem(a, b, sig)


def reference_interpolant(sig):
    return parse_formula("(not (= (head x) (head (tail x))))", sig, VARS)


# -- validate_interpolant -------------------------------------------------------

def test_reference_interpolant_validates(lists_sig):
    prob = section_five_problem(lists_sig)
    i = reference_interpolant(lists_sig)
    assert decide(And((prob.b, i)), lists_sig).status == "unsat"
    assert decide(And((prob.a, Not(i))), lists_sig).status == "unsat"
    assert validate_interpolant(i, prob)


def test_vocabulary_violation_rejected(lists_sig):
    prob = section_five_problem(lists_sig)
    leaky = parse_formula("(= z nil)", lists_sig, VARS)
    assert not validate_interpolant(leaky, prob)


def test_false_is_not_an_interpolant_of_satisfiable_a(lists_sig):
    prob = section_five_problem(lists_sig)
    assert not validate_interpolant(FALSE, prob)


# -- back-translation --------------------------------------------------------------

def make_table(sig):
    table = SymbolTable(sig, enum_sorts=frozenset({"Colour"}))
    table.adt_var("x", "CList")
    table.adt_var("y", "Colour")
    return table


def test_back_translate_head_index(lists_sig):
    table = make_table(lists_sig)
    cid = table.ctorid_fun("CList")
    out = back_translate(REq(RApp(cid, (RVar("x"),)), RConst(1)), table)
    assert out == Tester("cons", Var("x", "CList"))
    neg = back_translate(rne(RApp(cid, (RVar("x"),)), RConst(1)), table)
    assert neg == Not(Tester("cons", Var("x", "CList")))


def test_back_translate_enum_constant(lists_sig):
    table = make_table(lists_sig)
    out = back_translate(REq(RVar("y"), RConst(2)), table)
    assert out == Eq(Var("y", "Colour"), Ctor("blue"))


def test_back_translate_size(lists_sig):
    table = make_table(lists_sig)
    sz = table.size_fun("CList")
    out = back_translate(RLin("le", ((-1, RApp(sz, (RVar("x"),))),), 3), table)
    # -|x| + 3 <= 0
    assert "adt.size" in print_formula(lists_sig, out)
    model_term = Ctor("cons", (Ctor("red"), Ctor("cons", (Ctor("red"), Ctor("nil")))))
    from adtsolve.semantics import evaluate
    from adtsolve.terms import AdtModel
    assert evaluate(lists_sig, AdtModel({"x": model_term}), out)  # size 5 >= 3
    small = AdtModel({"x": Ctor("nil")})
    assert not evaluate(lists_sig, small, out)


def test_back_translate_applications(lists_sig):
    table = make_table(lists_sig)
    hd, tl = table.sel_fun("cons", 0), table.sel_fun("cons", 1)
    f = rne(RApp(hd, (RVar("x"),)), RApp(hd, (RApp(tl, (RVar("x"),)),)))
    out = back_translate(f, table)
    assert out == Not(Eq(Sel("cons", 0, Var("x", "CList")),
                         Sel("cons", 0, Sel("cons", 1, Var("x", "CList")))))


def test_back_translate_depth_fails(lists_sig):
    table = make_table(lists_sig)
    dep = table.depth_fun("CList")
    with pytest.raises(UntranslatableError):
        back_translate(RLin("le", ((1, RApp(dep, (RVar("x"),))),), 0), table)


def test_back_translate_arithmetic_on_infinite_sort_fails(lists_sig):
    table = make_table(lists_sig)
    with pytest.raises(UntranslatableError):
        back_translate(RLin("le", ((1, RVar("x")),), -3), table)


def test_back_translate_bad_head_index_fails(lists_sig):
    table = make_table(lists_sig)
    cid = table.ctorid_fun("CList")
    with pytest.raises(UntranslatableError):
        back_translate(REq(RApp(cid, (RVar("x"),)), RConst(9)), table)


def test_enum_tester_roundtrip(lists_sig):
    # reduce a tester literal, translate the reduct back: logically the same
    from adtsolve.reduce import reduce
    phi = parse_formula("((_ is blue) c)", lists_sig, VARS)
    flat = flatten(to_nnf(phi), lists_sig)
    r = reduce(flat, lists_sig, "size")
    body = [l for l in (r.formula.args if hasattr(r.formula, "args") else [r.formula])]
    eqs = [l for l in body if isinstance(l, REq)]
    out = back_translate(eqs[0], r.table)
    assert out == Eq(Var("c", "Colour"), Ctor("blue"))


# -- pipeline with fake backends -------------------------------------------------------

def test_pipeline_smtinterpol_dialect(lists_sig):
    prob = section_five_problem(lists_sig)
    backend = InterpolatingBackend(_fake("itp_smtinterpol.py"), dialect="smtinterpol")
    out = interpolate(prob, backend)
    assert out.kind == "interpolant"
    assert out.interpolant == reference_interpolant(lists_sig)


def test_pipeline_cvc5_dialect(lists_sig):
    prob = section_five_problem(lists_sig)
    backend = InterpolatingBackend(_fake("itp_cvc5.py"), dialect="cvc5")
    out = interpolate(prob, backend)
    assert out.kind == "interpolant"
    assert out.interpolant == reference_interpolant(lists_sig)


def test_pipeline_not_unsat(lists_sig):
    a = parse_formula("((_ is cons) x)", lists_sig, VARS)
    b = parse_formula("(= (head x) red)", lists_sig, VARS)
    backend = InterpolatingBackend(_fake("itp_smtinterpol.py"))
    out = interpolate(InterpolationProblem(a, b, lists_sig), backend)
    assert out.kind == "not-unsat"
    assert out.model is not None


def test_pipeline_untranslatable(lists_sig):
    prob = section_five_problem(lists_sig)
    backend = InterpolatingBackend(_fake("itp_depth.py"))
    out = interpolate(prob, backend)
    assert out.kind == "untranslatable"
    assert out.raw


def test_pipeline_failed_verification_is_a_protocol_error(lists_sig):
    # the fake answers (= x (cons 2 nil)), which A does not imply
    backend = InterpolatingBackend(_fake("itp_term.py"))
    with pytest.raises(ProtocolError) as info:
        interpolate(section_five_problem(lists_sig), backend)
    assert info.value.raw == "(= x (cons 2 nil))"


def test_partition_locality_of_skolems(lists_sig):
    prob = section_five_problem(lists_sig)
    fa = flatten(to_nnf(prob.a), lists_sig, prefix="_ta")
    fb = flatten(to_nnf(prob.b), lists_sig, prefix="_tb")
    ra, rb = reduce_partitions([("A", fa), ("B", fb)], lists_sig)
    assert ra.table is rb.table
    script = interpolation_script(ra, rb, "smtinterpol")
    (a_line,) = [l for l in script.splitlines() if ":named partA" in l]
    (b_line,) = [l for l in script.splitlines() if ":named partB" in l]
    assert "_sb" not in a_line and "_tb" not in a_line
    assert "_sa" not in b_line and "_ta" not in b_line
    # interpolation always uses size mode: no depth functions anywhere
    assert "depth_" not in script
    assert "size_CList" in script


def test_parse_reduced_with_let(lists_sig):
    table = make_table(lists_sig)
    hd = table.sel_fun("cons", 0)
    text = f"(let ((a ({hd} x))) (not (= a 0)))"
    out = parse_reduced(text, table)
    assert isinstance(out, RLin)


def test_parse_reduced_plain_equations_stay_equations(lists_sig):
    # back_translate reads equations between plain terms, and disequality
    # rows 1*a - 1*b != 0 between them, as ADT equations and disequalities
    table = make_table(lists_sig)
    hd, tl = table.sel_fun("cons", 0), table.sel_fun("cons", 1)
    x, y = RVar("x"), RVar("y")
    assert parse_reduced(f"(not (= ({hd} x) ({hd} ({tl} x))))", table) == \
        RLin("ne", ((1, RApp(hd, (x,))), (-1, RApp(hd, (RApp(tl, (x,)),)))), 0)
    assert parse_reduced("(distinct x 1 y)", table) == RAnd((
        RLin("ne", ((1, x),), -1), RLin("ne", ((1, x), (-1, y)), 0),
        RLin("ne", ((-1, y),), 1)))
    # anything else is linear
    assert parse_reduced(f"(=> (< x 3) (= ({hd} x) (+ y 1)))", table) == ROr((
        RLin("le", ((-1, x),), 3), RLin("eq", ((1, RApp(hd, (x,))), (-1, RVar("y"))), -1)))


@pytest.mark.parametrize("text,symbol", [
    ("(= x w)", "w"), ("w", "w"), ("(<= (depth_CList x) 4)", "depth_CList"),
])
def test_parse_reduced_symbol_outside_table(lists_sig, text, symbol):
    with pytest.raises(UntranslatableError) as info:
        parse_reduced(text, make_table(lists_sig))
    assert repr(symbol) in str(info.value)
    assert info.value.raw == text


@pytest.mark.parametrize("text", [
    "(and", "(let ((a x) a) true)", "(= (head (+ x 1)) y)", "(* x y)", "x y",
])
def test_parse_reduced_malformed_is_untranslatable(lists_sig, text):
    with pytest.raises(UntranslatableError):
        parse_reduced(text, make_table(lists_sig))


def test_pipeline_interpolant_outside_table(lists_sig, monkeypatch):
    import adtsolve.interp as interp_mod
    monkeypatch.setattr(interp_mod, "_query_interpolant", lambda *args: "(= x w)")
    out = interpolate(section_five_problem(lists_sig),
                      InterpolatingBackend(_fake("itp_smtinterpol.py")))
    assert out.kind == "untranslatable"
    assert out.raw == "(= x w)"
    assert "unknown symbol 'w'" in out.diagnosis


class _RandomFunctions(IntModel):
    """An integer model whose functions take a random value at each new
    argument tuple, remembered for later applications."""

    def __init__(self, rng, values):
        super().__init__(values=values)
        self.rng = rng

    def app(self, fn, args):
        return self.funcs.setdefault(fn, {}).setdefault(args, self.rng.randint(-2, 2))


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32), mode=st.sampled_from([DEPTH_MODE, SIZE_MODE]))
def test_parse_reduced_round_trip(seed, mode):
    # the printed reduct, read back, holds in exactly the same integer models
    rng = random.Random(seed)
    sig = random_signature(rng)
    phi = random_formula(rng, sig, GenConfig(size_atoms=mode == SIZE_MODE))
    r = reduce(flatten(to_nnf(phi), sig), sig, mode)
    back = parse_reduced(rformula_text(r.formula), r.table)
    for _ in range(8):
        model = _RandomFunctions(rng, {v: rng.randint(-2, 2) for v in r.table.int_vars})
        assert eval_reduced(back, model) == eval_reduced(r.formula, model)


EXTERNAL_ITP = os.environ.get("ADTSOLVE_INTERPOLATOR_CMD")
EXTERNAL_DIALECT = os.environ.get("ADTSOLVE_INTERPOLATOR_DIALECT", "smtinterpol")


@pytest.mark.skipif(not EXTERNAL_ITP, reason="no external interpolating solver configured")
def test_pipeline_real_backend(lists_sig):
    prob = section_five_problem(lists_sig)
    backend = InterpolatingBackend(EXTERNAL_ITP, dialect=EXTERNAL_DIALECT)
    out = interpolate(prob, backend)
    assert out.kind == "interpolant"
    fv = __import__("adtsolve.terms", fromlist=["free_vars"]).free_vars(out.interpolant)
    assert {v.name for v in fv.adt} <= {"x"}


def test_pipeline_with_unfolding_and_term_interpolant(lists_sig):
    # A pins x to the unique size-3 list with a blue head; B denies exactly
    # that term; joint unsat needs the unfolding loop before interpolation
    a = parse_formula("(and (<= (adt.size x) 3) ((_ is cons) x) "
                      "(not (= (head x) red)) (not (= (head x) green)))",
                      lists_sig, VARS)
    b = parse_formula("(not (= x (cons blue nil)))", lists_sig, VARS)
    prob = InterpolationProblem(a, b, lists_sig)
    backend = InterpolatingBackend(_fake("itp_term.py"))
    out = interpolate(prob, backend)
    assert out.kind == "interpolant"
    assert out.interpolant == Eq(Var("x", "CList"),
                                 Ctor("cons", (Ctor("blue"), Ctor("nil"))))


# -- pinned outputs ---------------------------------------------------------------

# the reduced partitions of section_five_problem as sent to the backend: one
# declaration block over the shared table, partition-local `_sa`/`_sb` symbols
SECTION_FIVE_DECLS = "\n".join(
    f"(declare-fun {name} () Int)" for name in (
        "z", "x", "_sa1", "_sa2", "_sak1", "_sa3", "_sa4", "_sak2", "_ta1",
        "_sa5", "_sa6", "_sak3", "_ta2", "_tb1", "c", "y", "_sbk1", "_sbk2")
) + "\n" + "\n".join((
    "(declare-fun tail (Int) Int)",
    "(declare-fun nil () Int)",
    "(declare-fun ctorId_CList (Int) Int)",
    "(declare-fun size_CList (Int) Int)",
    "(declare-fun cons (Int Int) Int)",
    "(declare-fun head (Int) Int)",
    "(declare-fun size_Colour (Int) Int)"))
SECTION_FIVE_A = (
    '(and (= (tail x) z) (or (and (= nil x) (= (ctorId_CList x) 0) (= (+ '
    '(size_CList x) (- 1)) 0)) (and (<= (* (- 1) _sa1) 0) (<= (+ _sa1 (- '
    '2)) 0) (= (cons _sa1 _sa2) x) (= (ctorId_CList x) 1) (= (head x) '
    '_sa1) (= (+ (size_Colour _sa1) (- 1)) 0) (= (tail x) _sa2) (<= (* (- '
    '1) (size_CList _sa2)) 0) (= (+ (size_CList _sa2) (* (- 2) _sak1) (- '
    '1)) 0) (<= (* (- 1) _sak1) 0) (= (+ (size_CList x) (* (- 1) '
    '(size_Colour _sa1)) (* (- 1) (size_CList _sa2)) (- 1)) 0))) (<= (* (- '
    '1) _sa3) 0) (<= (+ _sa3 (- 2)) 0) (= (cons _sa3 _sa4) z) (= '
    '(ctorId_CList z) 1) (= (head z) _sa3) (= (+ (size_Colour _sa3) (- 1)) '
    '0) (= (tail z) _sa4) (<= (* (- 1) (size_CList _sa4)) 0) (= (+ '
    '(size_CList _sa4) (* (- 2) _sak2) (- 1)) 0) (<= (* (- 1) _sak2) 0) (= '
    '(+ (size_CList z) (* (- 1) (size_Colour _sa3)) (* (- 1) (size_CList '
    '_sa4)) (- 1)) 0) (= (head x) _ta1) (or (and (= nil x) (= '
    '(ctorId_CList x) 0) (= (+ (size_CList x) (- 1)) 0)) (and (<= (* (- 1) '
    '_sa5) 0) (<= (+ _sa5 (- 2)) 0) (= (cons _sa5 _sa6) x) (= '
    '(ctorId_CList x) 1) (= (head x) _sa5) (= (+ (size_Colour _sa5) (- 1)) '
    '0) (= (tail x) _sa6) (<= (* (- 1) (size_CList _sa6)) 0) (= (+ '
    '(size_CList _sa6) (* (- 2) _sak3) (- 1)) 0) (<= (* (- 1) _sak3) 0) (= '
    '(+ (size_CList x) (* (- 1) (size_Colour _sa5)) (* (- 1) (size_CList '
    '_sa6)) (- 1)) 0))) (= (head z) _ta2) (not (= _ta1 _ta2)) (<= (* (- 1) '
    '_ta1) 0) (<= (+ _ta1 (- 2)) 0) (<= (* (- 1) _ta2) 0) (<= (+ _ta2 (- '
    '2)) 0))')
SECTION_FIVE_B = (
    '(and (= (cons c y) _tb1) (= (ctorId_CList _tb1) 1) (= (head _tb1) c) '
    '(= (+ (size_Colour c) (- 1)) 0) (= (tail _tb1) y) (<= (* (- 1) '
    '(size_CList y)) 0) (= (+ (size_CList y) (* (- 2) _sbk1) (- 1)) 0) (<= '
    '(* (- 1) _sbk1) 0) (= (+ (size_CList _tb1) (* (- 1) (size_Colour c)) '
    '(* (- 1) (size_CList y)) (- 1)) 0) (= (cons c _tb1) x) (= '
    '(ctorId_CList x) 1) (= (head x) c) (= (+ (size_Colour c) (- 1)) 0) (= '
    '(tail x) _tb1) (<= (* (- 1) (size_CList _tb1)) 0) (= (+ (size_CList '
    '_tb1) (* (- 2) _sbk2) (- 1)) 0) (<= (* (- 1) _sbk2) 0) (= (+ '
    '(size_CList x) (* (- 1) (size_Colour c)) (* (- 1) (size_CList _tb1)) '
    '(- 1)) 0) (<= (* (- 1) c) 0) (<= (+ c (- 2)) 0))')
SECTION_FIVE_SCRIPTS = {
    "smtinterpol": (
        "(set-option :produce-interpolants true)\n(set-logic QF_UFLIA)\n"
        f"{SECTION_FIVE_DECLS}\n"
        f"(assert (! {SECTION_FIVE_A} :named partA))\n"
        f"(assert (! {SECTION_FIVE_B} :named partB))\n"
        "(check-sat)\n(get-interpolants partA partB)\n"),
    "cvc5": (
        "(set-logic QF_UFLIA)\n(set-option :produce-interpolants true)\n"
        f"{SECTION_FIVE_DECLS}\n"
        f"(assert {SECTION_FIVE_A})\n"
        f"(get-interpolant itp (not {SECTION_FIVE_B}))\n"),
}


@pytest.mark.parametrize("dialect,fake", [("smtinterpol", "itp_smtinterpol.py"),
                                          ("cvc5", "itp_cvc5.py")])
def test_interpolation_script_text(lists_sig, monkeypatch, dialect, fake):
    import adtsolve.interp as interp_mod
    sent = []

    def recording(part_a, part_b, d):
        sent.append(interpolation_script(part_a, part_b, d))
        return sent[-1]

    monkeypatch.setattr(interp_mod, "interpolation_script", recording)
    out = interpolate(section_five_problem(lists_sig),
                      InterpolatingBackend(_fake(fake), dialect=dialect))
    assert out.kind == "interpolant"
    assert sent == [SECTION_FIVE_SCRIPTS[dialect]]


def test_joint_state_attributes_shared_variables_to_a(lists_sig, monkeypatch):
    import adtsolve.interp as interp_mod
    states = []

    def recording(state, *args, **kwargs):
        states.append(state)
        return run_loop(state, *args, **kwargs)

    monkeypatch.setattr(interp_mod, "run_loop", recording)
    interpolate(section_five_problem(lists_sig),
                InterpolatingBackend(_fake("itp_smtinterpol.py")))
    (state,) = states
    # x occurs in both partitions and stays with A; B's own names follow
    assert state.var_partition == {"x": "A", "z": "A", "_ta1": "A", "_ta2": "A",
                                   "c": "B", "y": "B", "_tb1": "B"}
    assert list(state.var_sorts) == ["x", "z", "_ta1", "_ta2", "c", "y", "_tb1"]
    # one tag per top-level conjunct, A's before B's
    prob = section_five_problem(lists_sig)
    flat_a = flatten(to_nnf(prob.a), lists_sig, prefix="_ta").formula
    flat_b = flatten(to_nnf(prob.b), lists_sig, prefix="_tb").formula
    assert isinstance(flat_a, And) and isinstance(flat_b, And)
    assert state.conjuncts == ([("A", c) for c in flat_a.args]
                               + [("B", c) for c in flat_b.args])


BIT_SIG_CTORS = (CtorDecl("lo", "Bit"), CtorDecl("hi", "Bit"))
RANGE_ERR = "! head index compared to a value outside the constructor range"
ENUM_ERR = "! enumeration value outside the constructor range"
# one reduced atom per form, over a subject s and a constant k
INDEX_FORMS = {
    "REq": lambda s, k: REq(s, RConst(k)),
    "REq swapped": lambda s, k: REq(RConst(k), s),
    "RNot": lambda s, k: rne(s, RConst(k)),  # a disequality as the reducer builds it
    "RLin eq": lambda s, k: RLin("eq", ((1, s),), -k),
    "RLin eq -1": lambda s, k: RLin("eq", ((-1, s),), k),
    "RLin ne": lambda s, k: RLin("ne", ((1, s),), -k),
    "RLin le": lambda s, k: RLin("le", ((1, s),), -k),
    "RLin ge": lambda s, k: RLin("le", ((-1, s),), k),
}
# printed back-translation for k = -1 .. n (n constructors), "! message" for
# an UntranslatableError; head indices ctorId_S(x) and enumeration variables
# differ in their out-of-range rules and in the forms used for n - 1 indices
INDEX_TABLE = {
    ("ctorId_CList", "REq"): [RANGE_ERR, "((_ is nil) x)", "((_ is cons) x)", RANGE_ERR],
    ("ctorId_CList", "REq swapped"): [RANGE_ERR, "((_ is nil) x)", "((_ is cons) x)",
                                      RANGE_ERR],
    ("ctorId_CList", "RNot"): [RANGE_ERR, "(not ((_ is nil) x))",
                               "(not ((_ is cons) x))", RANGE_ERR],
    ("ctorId_CList", "RLin eq"): [RANGE_ERR, "((_ is nil) x)", "((_ is cons) x)",
                                  RANGE_ERR],
    ("ctorId_CList", "RLin eq -1"): [RANGE_ERR, "((_ is nil) x)", "((_ is cons) x)",
                                     RANGE_ERR],
    ("ctorId_CList", "RLin ne"): [RANGE_ERR, "(not ((_ is nil) x))",
                                  "(not ((_ is cons) x))", RANGE_ERR],
    ("ctorId_CList", "RLin le"): ["false", "(not ((_ is cons) x))", "true", "true"],
    ("ctorId_CList", "RLin ge"): ["true", "true", "(not ((_ is nil) x))", "false"],
    ("ctorId_Colour", "REq"): [RANGE_ERR, "((_ is red) y)", "((_ is green) y)",
                               "((_ is blue) y)", RANGE_ERR],
    ("ctorId_Colour", "REq swapped"): [RANGE_ERR, "((_ is red) y)", "((_ is green) y)",
                                       "((_ is blue) y)", RANGE_ERR],
    ("ctorId_Colour", "RNot"): [RANGE_ERR, "(not ((_ is red) y))",
                                "(not ((_ is green) y))", "(not ((_ is blue) y))",
                                RANGE_ERR],
    ("ctorId_Colour", "RLin eq"): [RANGE_ERR, "((_ is red) y)", "((_ is green) y)",
                                   "((_ is blue) y)", RANGE_ERR],
    ("ctorId_Colour", "RLin eq -1"): [RANGE_ERR, "((_ is red) y)", "((_ is green) y)",
                                      "((_ is blue) y)", RANGE_ERR],
    ("ctorId_Colour", "RLin ne"): [RANGE_ERR, "(not ((_ is red) y))",
                                   "(not ((_ is green) y))", "(not ((_ is blue) y))",
                                   RANGE_ERR],
    ("ctorId_Colour", "RLin le"): ["false", "((_ is red) y)", "(not ((_ is blue) y))",
                                   "true", "true"],
    ("ctorId_Colour", "RLin ge"): ["true", "true", "(not ((_ is red) y))",
                                   "((_ is blue) y)", "false"],
    ("y", "REq"): [ENUM_ERR, "(= y red)", "(= y green)", "(= y blue)", ENUM_ERR],
    ("y", "REq swapped"): [ENUM_ERR, "(= y red)", "(= y green)", "(= y blue)", ENUM_ERR],
    ("y", "RNot"): ["true", "(not (= y red))", "(not (= y green))",
                    "(not (= y blue))", "true"],
    ("y", "RLin eq"): ["false", "(= y red)", "(= y green)", "(= y blue)", "false"],
    ("y", "RLin eq -1"): ["false", "(= y red)", "(= y green)", "(= y blue)", "false"],
    ("y", "RLin ne"): ["true", "(not (= y red))", "(not (= y green))",
                       "(not (= y blue))", "true"],
    ("y", "RLin le"): ["false", "(= y red)", "(not (= y blue))", "true", "true"],
    ("y", "RLin ge"): ["true", "true", "(not (= y red))", "(= y blue)", "false"],
    ("b", "REq"): [ENUM_ERR, "(= b lo)", "(= b hi)", ENUM_ERR],
    ("b", "REq swapped"): [ENUM_ERR, "(= b lo)", "(= b hi)", ENUM_ERR],
    ("b", "RNot"): ["true", "(not (= b lo))", "(not (= b hi))", "true"],
    ("b", "RLin eq"): ["false", "(not (= b hi))", "(not (= b lo))", "false"],
    ("b", "RLin eq -1"): ["false", "(not (= b hi))", "(not (= b lo))", "false"],
    ("b", "RLin ne"): ["true", "(not (= b lo))", "(not (= b hi))", "true"],
    ("b", "RLin le"): ["false", "(not (= b hi))", "true", "true"],
    ("b", "RLin ge"): ["true", "true", "(not (= b lo))", "false"],
}


@pytest.mark.parametrize("subject,form", list(INDEX_TABLE))
def test_back_translate_index_atoms(subject, form):
    from tests.conftest import CLIST_CTORS, COLOUR_CTORS
    sig = Signature(("Colour", "CList", "Bit"),
                    COLOUR_CTORS + CLIST_CTORS + BIT_SIG_CTORS)
    head_index = subject.startswith("ctorId_")
    # enumeration sorts map to indices only when the table says so
    table = SymbolTable(sig, enum_sorts=frozenset()
                        if head_index else frozenset({"Colour", "Bit"}))
    names = {"CList": "x", "Colour": "y", "Bit": "b"}
    for sort, name in names.items():
        table.adt_var(name, sort)
    if head_index:
        sort = subject[len("ctorId_"):]
        s = RApp(table.ctorid_fun(sort), (RVar(names[sort]),))
    else:
        s = RVar(subject)
    got = []
    for k in range(-1, len(INDEX_TABLE[subject, form]) - 1):
        try:
            got.append(print_formula(sig, back_translate(INDEX_FORMS[form](s, k),
                                                         table)))
        except UntranslatableError as e:
            got.append(f"! {e}")
    assert got == INDEX_TABLE[subject, form]
