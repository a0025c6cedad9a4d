"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 7's external-backend half is skipped (not failed) unless
ADTSOLVE_INTERPOLATOR_CMD is configured.
"""

import os
import time

import pytest

from adtsolve import backend
from adtsolve.corpus import run_agreement
from adtsolve.interp import (
    InterpolatingBackend, InterpolationProblem, interpolate, validate_interpolant,
)
from adtsolve.models import check_model
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_formula
from adtsolve.reduce import reduce
from adtsolve.semilinear import EventuallyPeriodicSet as EPS
from adtsolve.signature import check_expanding, count_terms_of_size, size_image
from adtsolve.sizesolve import decide
from adtsolve.terms import And, Ctor, free_vars


def report(criterion, detail=""):
    print(f"criterion {criterion}: PASS" + (f" ({detail})" if detail else ""))


EX1_TEXT = ("(and ((_ is cons) x) (not (= y blue)) "
            "(or (= (head x) red) (= x (cons y nil))))")
LIST_VARS = {"x": "CList", "y": "Colour", "z": "CList", "c": "Colour",
             "r": "CList", "k": "Int", "n": "Int",
             "nx": "Int", "ny": "Int", "nr": "Int"}


def test_criterion_1_list_example_exact(lists_sig):
    started = time.perf_counter()
    phi = parse_formula(EX1_TEXT, lists_sig, LIST_VARS)
    result = decide(phi, lists_sig)
    assert result.status == "sat"
    ok, diag = check_model(lists_sig, result.model, phi)
    assert ok, diag
    # the known witness is itself a model
    from adtsolve.terms import AdtModel
    witness = AdtModel({"x": Ctor("cons", (Ctor("red"), Ctor("nil"))),
                        "y": Ctor("green")})
    assert check_model(lists_sig, witness, phi)[0]
    # the emitted reduct of the flattened form carries the expected structure
    flat = flatten(to_nnf(phi), lists_sig)
    emitted = backend.emit_smtlib(reduce(flat, lists_sig, "depth"))
    for needle in ("ctorId_CList", "depth_CList",
                   "(<= (* (- 1) _s1) 0)", "_s2", "(<= (+ y (- 2)) 0)"):
        assert needle in emitted, needle
    # Colour does not reach CList, so the head of a cons gets no depth row
    assert "depth_Colour" not in emitted
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"{elapsed * 1000:.0f} ms")


def test_criterion_2_optimization_behavior(lists_sig):
    phi = parse_formula(EX1_TEXT, lists_sig, LIST_VARS)
    flat = flatten(to_nnf(phi), lists_sig)
    with_opts = reduce(flat, lists_sig, "depth", True)
    without = reduce(flat, lists_sig, "depth", False)

    def count_ors(f):
        from adtsolve.reduce import RAnd, ROr
        if isinstance(f, (RAnd, ROr)):
            return (1 if isinstance(f, ROr) else 0) + sum(count_ors(a) for a in f.args)
        return 0

    # with optimizations the guarded selector keeps no head-case disjunction
    # and no dead Skolem pair appears
    assert count_ors(with_opts.formula) == 1          # only the source disjunction
    assert count_ors(without.formula) > 1
    assert len(with_opts.table.skolem_names()) == 2   # tester Skolems only
    assert len(without.table.skolem_names()) > 2
    # verdicts agree with and without optimizations across the corpus
    stats = run_agreement(11, count=120, n_sigs=4)
    assert not stats.failures, stats.failures[:3]
    report(2, f"{stats.instances} corpus instances, opt/no-opt verdicts agree")


def test_criterion_3_horn_model_checks(lists_sig):
    started = time.perf_counter()

    def C(x, y, r):
        return f"(or (= {r} {y}) (= (head {r}) (head {x})))"

    def Csz(x, y, r):
        return f"(= (+ (adt.size {x}) (adt.size {y})) (+ (adt.size {r}) 1))"

    def L(x, n):
        return f"(= (adt.size {x}) (+ (* 2 {n}) 1))"

    negations = [
        f"(not {C('nil', 'y2', 'y2')})".replace("y2", "z"),
        f"(and {C('x', 'z', 'r')} (not {C('(cons c x)', 'z', '(cons c r)')}))",
        f"(and (not (= r nil)) {C('x', 'z', 'r')} "
        f"(not (or (= (head r) (head x)) (= (head r) (head z)))))",
        f"(not {Csz('nil', 'z', 'z')})",
        f"(and {Csz('x', 'z', 'r')} (not {Csz('(cons c x)', 'z', '(cons c r)')}))",
        f"(not {L('nil', '0')})",
        f"(and {L('x', 'n')} (not {L('(cons c x)', '(+ n 1)')}))",
        f"(and {Csz('x', 'z', 'r')} {L('x', 'nx')} {L('z', 'ny')} {L('r', 'nr')} "
        f"(not (= nr (+ nx ny))))",
    ]
    for text in negations:
        phi = parse_formula(text, lists_sig, LIST_VARS)
        assert decide(phi, lists_sig).status == "unsat", text
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(3, f"8 clause negations unsat in {elapsed * 1000:.0f} ms")


def test_criterion_4_size_images(lists_sig, nat_sig, two_cycle_sig, three_cycle_sig):
    assert size_image(lists_sig, "CList") == EPS(frozenset(), 0, 2, frozenset({1}))
    assert size_image(lists_sig, "Colour") == EPS(frozenset({1}), 2, 1, frozenset())
    phi = parse_formula("(= (adt.size x) (* 2 k))", lists_sig, LIST_VARS)
    res = decide(phi, lists_sig)
    assert res.status == "unsat" and res.rounds == 0
    checked = 0
    for sig in (lists_sig, nat_sig, two_cycle_sig, three_cycle_sig):
        for sort in sig.sorts:
            image = size_image(sig, sort)
            for b in range(26):
                assert (count_terms_of_size(sig, sort, b) > 0) == (b in image)
                checked += 1
    report(4, f"counting oracle agreed on {checked} (sort, size) points")


def test_criterion_5_expandingness(lists_sig, nat_sig, two_cycle_sig, three_cycle_sig):
    assert check_expanding(nat_sig).witness("Nat") == ("Nat", "succ", "Nat")
    lists_report = check_expanding(lists_sig)
    assert lists_report.is_expanding("Colour") and lists_report.is_expanding("CList")
    assert check_expanding(two_cycle_sig).witness("S1") == \
        ("S1", "f1", "S2", "f2", "S1")
    assert check_expanding(three_cycle_sig).all_expanding
    report(5)


def test_criterion_6_unfolding_loop(nat_sig):
    vars_ = {"x": "Nat", "y": "Nat"}
    bounded = parse_formula("(and (not (= x y)) (= (adt.size x) (adt.size y)) "
                            "(<= (adt.size x) 3))", nat_sig, vars_)
    res = decide(bounded, nat_sig)
    assert res.status == "unsat"
    per_root = {}
    for v in res.state.unfolded:
        root = res.state.root_of(v)
        per_root[root] = per_root.get(root, 0) + 1
    assert all(n <= 3 for n in per_root.values()), per_root
    unbounded = parse_formula("(and (not (= x y)) (= (adt.size x) (adt.size y)))",
                              nat_sig, vars_)
    res2 = decide(unbounded, nat_sig, fuel=20)
    assert res2.status == "unknown"
    assert "Nat: non-expanding (cycle: Nat -> succ -> Nat)" in res2.diagnosis.text
    report(6, f"bounded unsat with {per_root} unfoldings; fuel-20 unknown diagnosed")


ITP_CMD = os.environ.get("ADTSOLVE_INTERPOLATOR_CMD")
ITP_DIALECT = os.environ.get("ADTSOLVE_INTERPOLATOR_DIALECT", "smtinterpol")


def _section_five_problem(sig):
    a = parse_formula("(and (= z (tail x)) ((_ is cons) z) "
                      "(not (= (head x) (head z))))", sig, LIST_VARS)
    b = parse_formula("(= x (cons c (cons c z2)))".replace("z2", "r"), sig, LIST_VARS)
    return InterpolationProblem(a, b, sig)


def test_criterion_7_interpolation_backend_independent(lists_sig):
    prob = _section_five_problem(lists_sig)
    i = parse_formula("(not (= (head x) (head (tail x))))", lists_sig, LIST_VARS)
    assert decide(And((prob.b, i)), lists_sig).status == "unsat"
    assert validate_interpolant(i, prob)
    report(7, "reference interpolant verified against the B side")


@pytest.mark.skipif(not ITP_CMD, reason="no external interpolating backend configured")
def test_criterion_7_interpolation_external(lists_sig):
    prob = _section_five_problem(lists_sig)
    out = interpolate(prob, InterpolatingBackend(ITP_CMD, dialect=ITP_DIALECT))
    assert out.kind == "interpolant"
    fv = free_vars(out.interpolant)
    assert {v.name for v in fv.adt} <= {"x"} and not fv.ints
    report(7, "external backend produced a verified interpolant over {x}")


BLOWUP_CONSTANT = 2.0  # corpus-measured maximum is ~0.9; pinned with headroom


def test_criterion_8_property_suite():
    stats = run_agreement(2026, count=500, n_sigs=5)
    assert stats.instances == 500
    assert not stats.failures, stats.failures[:5]
    assert stats.max_blowup() <= BLOWUP_CONSTANT
    report(8, f"500 instances over 5 signatures, sat {stats.sat} / unsat "
              f"{stats.unsat}, blow-up C = {stats.max_blowup():.3f}")


def test_criterion_9_model_roundtrip():
    stats = run_agreement(909, count=200, n_sigs=4)
    assert not stats.failures, stats.failures[:5]
    assert stats.roundtrips == stats.sat
    assert stats.sat > 0
    report(9, f"{stats.roundtrips} sat models reconstructed and re-checked; "
              "injectivity assertions never fired")
