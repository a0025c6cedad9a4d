import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from adtsolve.backend import emit_smtlib, parse_model_response
from adtsolve.cli import main
from adtsolve.errors import AdtSolveError
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_script
from adtsolve.reduce import reduce, rformula_nodes
from adtsolve.semantics import evaluate
from adtsolve.sizesolve import decide, reduction_mode
from adtsolve.terms import formula_nodes

LISTS = """
(declare-datatypes ((Colour 0) (CList 0))
  (((red) (green) (blue))
   ((nil) (cons (head Colour) (tail CList)))))
(declare-const x CList)
(declare-const y Colour)
"""

EX1 = LISTS + """
(assert ((_ is cons) x))
(assert (not (= y blue)))
(assert (or (= (head x) red) (= x (cons y nil))))
(check-sat)
(get-model)
"""

NAT = """
(declare-datatypes ((Nat 0)) (((one) (succ (pred Nat)))))
(declare-const x Nat)
(assert ((_ is succ) x))
(check-sat)
"""

FAKES = os.path.join(os.path.dirname(__file__), "fakes")
INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "inputs")


def run(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def builtin_backend(monkeypatch):
    # solve and interpolate run the solver ADTSOLVE_EXTERNAL_CMD names when
    # no --external-cmd is given; tests that want one set it themselves
    monkeypatch.delenv("ADTSOLVE_EXTERNAL_CMD", raising=False)


@pytest.fixture
def ex1_file(tmp_path):
    p = tmp_path / "ex1.smt2"
    p.write_text(EX1)
    return str(p)


@pytest.fixture
def nat_file(tmp_path):
    p = tmp_path / "nat.smt2"
    p.write_text(NAT)
    return str(p)


def test_solve_sat_with_model(ex1_file):
    code, out = run(["solve", ex1_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert any(l.startswith("(define-fun x () CList (cons") for l in lines)
    assert any(l.startswith("(define-fun y () Colour") for l in lines)


def test_solve_unsat(tmp_path):
    p = tmp_path / "u.smt2"
    p.write_text(LISTS + "(assert ((_ is cons) x)) (assert ((_ is nil) x))")
    code, out = run(["solve", str(p)])
    assert code == 0
    assert out.strip() == "unsat"


def test_solve_answers_each_check_sat(tmp_path):
    # each check-sat answers for the assertions before it, with its model
    code, out = run(["solve", os.path.join(INPUTS, "incremental.smt2")])
    assert (code, out.splitlines()) == (0, ["sat", "(define-fun x () Nat z)", "unsat"])
    # an assertion after the last check-sat is not answered for, and a
    # script without a check-sat has one answer for all its assertions
    p = tmp_path / "tail.smt2"
    text = ("(declare-datatypes ((Nat 0)) (((z) (s (p Nat)))))"
            "(declare-const x Nat) (assert (= x z))")
    p.write_text(text + "(check-sat) (get-model) (assert (= x (s z)))")
    assert run(["solve", str(p), "--stats"])[1].splitlines()[0::2] == [
        "sat", "nodes: input=3 reduced=8"]
    p.write_text(text + "(assert (= x (s z)))")
    assert run(["solve", str(p)])[1] == "unsat\n"


def test_solve_prints_a_model_only_where_get_model_asks(tmp_path):
    # a model follows only a check-sat with a get-model after it, before the
    # next check-sat, and lists only the constants declared before it
    p = tmp_path / "shown.smt2"
    text = ("(declare-datatypes ((Nat 0)) (((z) (s (p Nat)))))"
            "(declare-const x Nat) (assert (= x z)) (check-sat) {}"
            "(declare-const y Nat) (assert (= y (s x))) (check-sat) {}")
    p.write_text(text.format("", ""))
    assert run(["solve", str(p)]) == (0, "sat\nsat\n")
    p.write_text(text.format("(get-model)", ""))
    assert run(["solve", str(p)]) == (0, "sat\n(define-fun x () Nat z)\nsat\n")
    p.write_text(text.format("", "(get-model)"))
    assert run(["solve", str(p)]) == (
        0, "sat\nsat\n(define-fun x () Nat z)\n(define-fun y () Nat (s z))\n")
    # the one answer of a script without a check-sat shows no model
    p.write_text(text.split("(check-sat)")[0] + "(get-model)")
    assert run(["solve", str(p)]) == (0, "sat\n")


def test_solve_unknown_with_diagnosis(tmp_path):
    p = tmp_path / "n.smt2"
    p.write_text("""
(declare-datatypes ((Nat 0)) (((one) (succ (pred Nat)))))
(declare-const x Nat)
(declare-const y Nat)
(assert (not (= x y)))
(assert (= (adt.size x) (adt.size y)))
""")
    code, out = run(["solve", str(p), "--fuel", "5"])
    assert code == 0
    assert out.splitlines()[0] == "unknown"
    assert "non-expanding" in out


def test_analyze_nat(nat_file):
    code, out = run(["analyze", nat_file])
    assert code == 0
    assert "Nat: non-expanding (cycle: Nat -> succ -> Nat)" in out
    assert "Nat: cardinality infinite" in out


def test_analyze_weighted_cycle():
    # the cycle S -> s -> S weighs 2: S has one term of each even size
    code, out = run(["analyze", os.path.join(INPUTS, "weighted.smt2")])
    assert code == 0
    assert "S: non-expanding (cycle: S -> s -> S)\n" in out
    assert "P: expanding\n" in out
    assert "decision procedure incomplete" in out


def test_analyze_lists(ex1_file):
    code, out = run(["analyze", ex1_file])
    assert code == 0
    assert "Colour: cardinality 3" in out
    assert "Colour: size image {1}" in out
    assert "CList: expanding" in out
    assert "decision procedure complete" in out


# s holds 126 copies of U's one term, so each lap of S -> s -> S adds 127
WIDE_LAP = """
(declare-datatypes ((U 0) (S 0))
  (((one))
   ((z) (s """ + " ".join(f"(u{i} U)" for i in range(126)) + """ (p S)))))
(declare-const x S)
(assert (= (adt.size x) 128))
(check-sat)
"""


@pytest.mark.parametrize("text, image", [
    (Path(INPUTS, "gap.smt2").read_text(), "{n >= 0 : n mod 128 in {1}}"),
    (WIDE_LAP, "{n >= 0 : n mod 127 in {1}}"),
], ids=["tree", "wide"])
def test_lap_longer_than_the_first_window(tmp_path, text, image):
    """S's sizes below 128 are {1} alone; an image read off the bits below a
    window of 64 once passed for that finite set, and a size one lap on
    answered unsat."""
    p = tmp_path / "lap.smt2"
    p.write_text(text)
    code, out = run(["analyze", str(p)])
    assert code == 0
    assert f"S: size image {image}\n" in out
    script = parse_script(text)
    result = decide(script.formula(), script.sig)
    assert result.status == "sat"
    assert evaluate(script.sig, result.model, script.formula())


def test_emit_contains_reduction_symbols(ex1_file):
    code, out = run(["emit", ex1_file])
    assert code == 0
    assert "ctorId_CList" in out
    assert "depth_CList" in out
    assert "_s1" in out
    assert "(check-sat)" in out


def test_emit_no_opt_differs(ex1_file):
    _, with_opt = run(["emit", ex1_file])
    _, without = run(["emit", ex1_file, "--no-opt"])
    assert with_opt != without
    assert "ctorId_Colour" in without
    assert "ctorId_Colour" not in with_opt


def test_stats_line(ex1_file):
    code, out = run(["solve", ex1_file, "--stats"])
    assert code == 0
    assert "nodes: input=" in out


def test_stats_report_the_solved_round():
    # list_size.smt2 is decided after unfolding, so round 0's reduct is not it
    path = os.path.join(INPUTS, "list_size.smt2")
    code, out = run(["solve", path, "--stats"])
    assert code == 0
    with open(path) as f:
        script = parse_script(f.read())
    res = decide(script.formula(), script.sig)
    assert res.rounds > 0
    assert (f"nodes: input={formula_nodes(script.formula())} "
            f"reduced={rformula_nodes(res.reduct.formula)}\n") in out


@pytest.mark.parametrize("flags, opt", [([], True), (["--no-opt"], False)])
def test_emit_stats_name_each_figure(flags, opt):
    # reduced= is the round-0 reduct, as in solve --stats
    path = os.path.join(INPUTS, "list_size.smt2")
    code, out = run(["emit", path, "--stats"] + flags)
    assert code == 0
    with open(path) as f:
        script = parse_script(f.read())
    phi = script.formula()
    reduct = reduce(flatten(to_nnf(phi), script.sig), script.sig, reduction_mode(phi), opt)
    line = f"; nodes: input={formula_nodes(phi)} reduced={rformula_nodes(reduct.formula)}"
    assert out.splitlines()[-1] == line


@pytest.mark.parametrize("flags", [[], ["--no-opt"]])
def test_emit_prints_the_reduct_decide_solves(flags):
    # where decide settles an input in round 0, emit prints its reduct
    settled = 0
    for name in sorted(os.listdir(INPUTS)):
        with open(os.path.join(INPUTS, name)) as f:
            script = parse_script(f.read())
        result = decide(script.formula(), script.sig, opt=not flags)
        if result.rounds == 0:
            settled += 1
            code, out = run(["emit", os.path.join(INPUTS, name)] + flags)
            assert (code, out) == (0, emit_smtlib(result.reduct)), name
    assert settled >= 10  # of the 19 bundled inputs


@pytest.mark.parametrize("flags", [[], ["--no-opt"]])
def test_emit_writes_negative_numerals_as_smtlib(flags):
    # -1 is a symbol in SMT-LIB 2.6; a negative integer is written (- 1)
    for name in sorted(os.listdir(INPUTS)):
        code, out = run(["emit", os.path.join(INPUTS, name)] + flags)
        assert code == 0
        assert not re.search(r"[ (]-[0-9]", out), name


def test_solve_a_selector_chain_10_000_deep(tmp_path):
    # each selector's hash is taken when it is built, so the constructor over
    # the chain hashes it without recursing
    n = 10_000
    p = tmp_path / "deep.smt2"
    p.write_text("(declare-datatypes ((L 0)) (((nil) (cons (hd L) (tl L)))))\n"
                 "(declare-const x L)\n(declare-const y L)\n"
                 f"(assert (= y (cons {'(tl ' * n}x{')' * n} nil)))\n(check-sat)\n")
    assert run(["solve", str(p)]) == (0, "sat\n")


def test_deterministic_output(ex1_file):
    a = run(["solve", ex1_file, "--stats"])
    b = run(["solve", ex1_file, "--stats"])
    assert a == b
    c = run(["emit", ex1_file])
    d = run(["emit", ex1_file])
    assert c == d


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_seed_only_on_corpus(ex1_file, tmp_path):
    # --seed drives the corpus generator (test_corpus_subcommand); the other
    # subcommands have no use for it and reject it as a usage error
    other = tmp_path / "b.smt2"
    other.write_text(EX1)
    assert main(["solve", ex1_file, "--seed", "1"]) == 1
    assert main(["analyze", ex1_file, "--seed", "1"]) == 1
    assert main(["emit", ex1_file, "--seed", "1"]) == 1
    assert main(["interpolate", ex1_file, str(other), "--seed", "1"]) == 1


def test_flags_only_where_read(ex1_file, tmp_path):
    # solve reads --external-cmd --fuel --no-opt --stats, emit
    # --no-opt --stats, interpolate all but --stats; the rest read none
    other = tmp_path / "b.smt2"
    other.write_text(EX1)
    assert main(["analyze", ex1_file, "--fuel", "5"]) == 1
    assert main(["corpus", "--no-opt"]) == 1
    assert main(["emit", ex1_file, "--fuel", "5"]) == 1
    assert main(["interpolate", ex1_file, str(other), "--stats"]) == 1


def test_input_error_exit_code(tmp_path):
    p = tmp_path / "bad.smt2"
    p.write_text("(assert (= x")
    assert main(["solve", str(p)]) == 2
    p.write_text(LISTS + "(assert (= (-) 1))")
    assert main(["solve", str(p)]) == 2
    # functions must range over Int: not over a datatype, nor a list of sorts
    for decl in ("(declare-fun f (CList) Int)", "(declare-fun f ((Int)) Int)"):
        p.write_text(LISTS + decl)
        assert main(["solve", str(p)]) == 2
    missing = tmp_path / "missing.smt2"
    assert main(["solve", str(missing)]) == 2


@pytest.mark.parametrize("command", ["solve", "analyze", "emit", "interpolate"])
def test_unreadable_input_exit_code(tmp_path, capsys, command):
    # a directory, and bytes that are not UTF-8, are input errors
    binary = tmp_path / "binary.smt2"
    binary.write_bytes(b"\xff\xfe")
    for path in (str(tmp_path), str(binary)):
        args = [command, path] + ([path] if command == "interpolate" else [])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot read ") and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["solve", "x.smt2", "--fuel", "-1"],
    ["corpus", "--count", "-5"],
    ["corpus", "--sigs", "0"],
], ids=["fuel", "count", "sigs"])
def test_out_of_range_flags_are_usage_errors(capsys, args):
    assert main(args) == 1
    assert "must be at least" in capsys.readouterr().err


def test_let_script_is_decided():
    code, out = run(["solve", os.path.join(INPUTS, "let.smt2")])
    # the model is re-checked before it is printed; sequential bindings
    # would make the script unsat
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert lines[1].startswith("(define-fun x () CList (cons")


INTS = """
(declare-fun f (Int) Int)
(declare-const a Int)
(declare-const b Int)
"""


@pytest.mark.parametrize("body, verdict", [
    ("(assert (= a b))", "sat"),
    ("(assert (= a b)) (assert (distinct (f a) (f b)))", "unsat"),
    # compound arguments, and a model check that evaluates f through its graph
    ("(assert (= (f (+ a 1)) 2)) (assert (= (f (- 1)) (+ (f (* 2 b)) 1)))", "sat"),
], ids=["equal-constants", "congruence", "compound-arguments"])
def test_integer_script_verdicts(tmp_path, body, verdict):
    p = tmp_path / "ints.smt2"
    p.write_text(INTS + body)
    code, out = run(["solve", str(p)])
    assert code == 0
    assert out.splitlines()[0] == verdict


def test_malformed_let_exit_code(tmp_path, capsys):
    p = tmp_path / "let.smt2"
    p.write_text(LISTS + "(assert (let ((c red) c) (= y c)))")
    assert main(["solve", str(p)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


NAT_INT = """
(declare-datatypes ((Nat 0)) (((zero) (succ (pred Nat)))))
(declare-const x Nat)
(declare-const y Nat)
(declare-const n Int)
(declare-fun f (Int) Int)
"""
LEAVES = ["x", "y", "n", "zero", "0", "1", "2", "-1", "true", "false"]
HEADS = ["and", "or", "not", "=>", "=", "distinct", "+", "-", "*", "<=", "<",
         ">=", ">", "(_ is succ)", "(_ is zero)", "pred", "succ", "adt.size", "let",
         "f"]


def _app(head, args):
    return "(" + " ".join([head, *args]) + ")"


sexprs = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.builds(_app, st.sampled_from(HEADS), st.lists(inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=300)
@given(sexprs)
@example("(-)")
@example("(let ((x zero) (n x)) (= x y))")
@example("(and (= (f (+ n 1)) (f (- 1))) (= n (f n)))")
def test_fuzz_solve_exits_0_or_2(tmp_path, body):
    # a verdict, or an input error for text the parser rejects; never a traceback
    text = NAT_INT + f"(assert {body})\n"
    p = tmp_path / "fuzz.smt2"
    p.write_text(text)
    code, _ = run(["solve", str(p), "--fuel", "5"])
    assert code in (0, 2)
    if code == 2:
        with pytest.raises(AdtSolveError):
            parse_script(text)


def test_backend_error_exit_code(ex1_file):
    assert main(["solve", ex1_file, "--external-cmd", "/nonexistent/solver-xyz"]) == 3
    # commands that cannot be started: unbalanced quotes, a non-executable file
    assert main(["solve", ex1_file, "--external-cmd", '"unterminated']) == 3
    assert main(["solve", ex1_file, "--external-cmd", ex1_file]) == 3
    assert main(["interpolate", os.path.join(INPUTS, "itp_a.smt2"),
                 os.path.join(INPUTS, "itp_b.smt2"), "--external-cmd", ex1_file]) == 3


def test_external_wrong_model_exit_code(capsys):
    # the fake's model (x = 3, f(3) = 7) does not satisfy the reduct: a
    # backend fault, not an internal error
    cmd = f"{sys.executable} {os.path.join(FAKES, 'smt_sat.py')}"
    assert main(["solve", os.path.join(INPUTS, "lists.smt2"), "--external-cmd", cmd]) == 3
    assert capsys.readouterr().err.startswith(
        "backend error: external solver's model does not satisfy the reduct")


def test_interpolate_without_backend_exit_code(ex1_file, tmp_path):
    other = tmp_path / "b.smt2"
    other.write_text(EX1)
    assert main(["interpolate", ex1_file, str(other)]) == 3


def test_interpolate_failed_verification_exit_code(capsys):
    # the fake's interpolant (= x (cons 2 nil)) is not implied by A: a
    # backend fault, reported with the backend's raw text
    cmd = f"{sys.executable} {os.path.join(FAKES, 'itp_term.py')}"
    code = main(["interpolate", os.path.join(INPUTS, "itp_a.smt2"),
                 os.path.join(INPUTS, "itp_b.smt2"), "--external-cmd", cmd])
    assert code == 3
    assert capsys.readouterr().err == ("backend error: backend interpolant failed "
                                       "verification: (= x (cons 2 nil))\n")


def test_internal_error_exit_code(monkeypatch, capsys):
    import adtsolve.sizesolve as sizesolve
    monkeypatch.setattr(sizesolve, "check_model", lambda *args: (False, "injected"))
    assert main(["solve", os.path.join(INPUTS, "lists.smt2")]) == 4
    assert capsys.readouterr().err == ("internal error: reconstructed model failed "
                                       "validation: injected\n")


def test_interpolate_with_fake_backend(tmp_path):
    a = tmp_path / "a.smt2"
    a.write_text(LISTS + """
(declare-const z CList)
(assert (= z (tail x)))
(assert ((_ is cons) z))
(assert (not (= (head x) (head z))))
""")
    b = tmp_path / "b.smt2"
    b.write_text(LISTS + """
(declare-const c2 Colour)
(declare-const rest CList)
(assert (= x (cons c2 (cons c2 rest))))
""")
    cmd = f"{sys.executable} {os.path.join(FAKES, 'itp_smtinterpol.py')}"
    code, out = run(["interpolate", str(a), str(b), "--external-cmd", cmd])
    assert code == 0
    assert out.strip() == "(not (= (head x) (head (tail x))))"


PROBE = """
(declare-fun f (Int) Int)
(declare-const a Int)
(assert (= (f a) 2))
"""

FUNS = """
(declare-fun f (Int) Int)
(declare-fun g (Int Int) Int)
(declare-const a Int)
(declare-const b Int)
"""


def _printed_model(out):
    """The define-fun lines after the verdict line, read as a get-model
    response."""
    return parse_model_response("(" + out.split("\n", 1)[1] + ")")


@pytest.mark.parametrize("text", [
    PROBE,
    FUNS + "(assert (= (g a b) (- 2))) (assert (= (g b a) 5)) (assert (< a b))"
           "(assert (distinct (f a) (f b)))",
    # f's only application folds away: its graph still shows its arity
    FUNS + "(assert (or (= a a) (= (f a) 2)))",
], ids=["probe", "two-functions", "folded-application"])
def test_solve_prints_function_graphs(tmp_path, text):
    p = tmp_path / "funs.smt2"
    p.write_text(text + "(check-sat) (get-model)")
    script = parse_script(text)
    model = decide(script.formula(), script.sig).model
    assert model.funcs
    code, out = run(["solve", str(p)])
    assert code == 0 and out.startswith("sat\n")
    printed = _printed_model(out)
    # a declared symbol that no assertion uses is printed as 0
    assert printed.funcs == {**{f: {} for f in script.ufuns}, **model.funcs}
    assert set(printed.defaults.values()) == {0}
    assert printed.values == {**dict.fromkeys(script.var_sorts, 0), **model.ints}


def test_solve_prints_unused_declarations(tmp_path):
    p = tmp_path / "unused.smt2"
    p.write_text(LISTS + FUNS + "(declare-const z CList) (assert (or (= a a) (= (f a) 2)))"
                 "(check-sat) (get-model)")
    code, out = run(["solve", str(p)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    for line in ["(define-fun y () Colour red)", "(define-fun b () Int 0)",
                 "(define-fun z () CList nil)", "(define-fun g ((x0 Int) (x1 Int)) Int 0)"]:
        assert line in lines
    assert [line.split()[1] for line in lines[1:]] == ["x", "y", "a", "b", "z", "f", "g"]


def test_interpolate_not_unsat_prints_function_graphs(tmp_path):
    a = tmp_path / "a.smt2"
    a.write_text(FUNS + "(assert (= (f a) 2))")
    b = tmp_path / "b.smt2"
    b.write_text(FUNS + "(assert (= (g a b) 3))")
    cmd = f"{sys.executable} {os.path.join(FAKES, 'itp_smtinterpol.py')}"
    code, out = run(["interpolate", str(a), str(b), "--external-cmd", cmd])
    assert code == 0 and out.startswith("not-unsat\n")
    printed = _printed_model(out)
    va, vb = printed.value("a"), printed.value("b")
    assert printed.app("f", (va,)) == 2
    assert printed.app("g", (va, vb)) == 3


def test_corpus_subcommand():
    code, out = run(["corpus", "--count", "30", "--sigs", "2", "--seed", "7"])
    assert code == 0
    assert "instances: 30" in out
    assert "failures: 0" in out


def test_corpus_deterministic():
    a = run(["corpus", "--count", "20", "--sigs", "2", "--seed", "3"])
    b = run(["corpus", "--count", "20", "--sigs", "2", "--seed", "3"])
    assert a == b


def test_external_backend_with_fake(ex1_file):
    cmd = f"{sys.executable} {os.path.join(FAKES, 'smt_unsat.py')}"
    code, out = run(["solve", ex1_file, "--external-cmd", cmd])
    assert code == 0
    assert out.strip() == "unsat"


def test_external_model_of_top_level_define_funs(tmp_path):
    p = tmp_path / "a.smt2"
    p.write_text("(declare-const a Int) (assert (> a 5)) (check-sat) (get-model)")
    cmd = f"{sys.executable} {os.path.join(FAKES, 'smt_bare_model.py')}"
    assert run(["solve", str(p), "--external-cmd", cmd]) == \
        (0, "sat\n(define-fun a () Int 7)\n")


def test_external_command_from_environment(ex1_file, monkeypatch):
    # the variable selects the external solver; --external-cmd overrides it
    unsat = f"{sys.executable} {os.path.join(FAKES, 'smt_unsat.py')}"
    monkeypatch.setenv("ADTSOLVE_EXTERNAL_CMD", unsat)
    assert run(["solve", ex1_file]) == (0, "unsat\n")
    code, out = run(["solve", ex1_file, "--external-cmd",
                     f"{sys.executable} {os.path.join(FAKES, 'smt_unknown.py')}"])
    assert (code, out.splitlines()[0]) == (0, "unknown")
    # a set but empty variable selects nothing
    monkeypatch.setenv("ADTSOLVE_EXTERNAL_CMD", "")
    assert run(["solve", ex1_file])[1].splitlines()[0] == "sat"


def test_interpolate_with_command_from_environment(monkeypatch):
    monkeypatch.setenv("ADTSOLVE_EXTERNAL_CMD",
                       f"{sys.executable} {os.path.join(FAKES, 'itp_smtinterpol.py')}")
    code, out = run(["interpolate", os.path.join(INPUTS, "itp_a.smt2"),
                     os.path.join(INPUTS, "itp_b.smt2")])
    assert (code, out) == (0, "(not (= (head x) (head (tail x))))\n")


def test_closed_stdout_ends_quietly():
    """A reader that is gone before the first write, as `head -c1` can be:
    the command prints no traceback and exits 0."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "adtsolve", "analyze", os.path.join(INPUTS, "weighted.smt2")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_deep_numeral_solves_with_its_model(tmp_path):
    """A Nat numeral nested 2000 deep solves under the default recursion
    limit, and its model prints."""
    numeral = "z"
    for _ in range(2000):
        numeral = f"(s {numeral})"
    p = tmp_path / "deep.smt2"
    p.write_text("(declare-datatypes ((Nat 0)) (((z) (s (p Nat)))))\n"
                 f"(declare-const x Nat)\n(assert (= x {numeral}))\n(check-sat)\n(get-model)\n")
    assert run(["solve", str(p)]) == (0, f"sat\n(define-fun x () Nat {numeral})\n")


def test_deep_tester_decides(tmp_path):
    """A tester over a term nested 1200 deep, and its negation, decide under
    the default recursion limit."""
    term = "x"
    for _ in range(1200):
        term = f"(s {term})"
    p = tmp_path / "deep.smt2"
    for literal, verdict in ((f"((_ is s) {term})", "sat"),
                             (f"(not ((_ is s) {term}))", "unsat")):
        p.write_text("(declare-datatypes ((Nat 0)) (((z) (s (p Nat)))))\n"
                     f"(declare-const x Nat)\n(assert {literal})\n(check-sat)\n")
        assert run(["solve", str(p)]) == (0, f"{verdict}\n")


def _python(code: str):
    """Run `code` in a fresh interpreter with this checkout's package."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})


def test_recursion_error_is_a_resource_error():
    """A RecursionError raised in a command exits 3 with a one-line message
    and no traceback: here the command runs a few frames below the limit."""
    proc = _python(
        "import inspect, sys\n"
        "from adtsolve import cli\n"
        "solve = cli.cmd_solve\n"
        "def shallow(args, out):\n"
        "    sys.setrecursionlimit(len(inspect.stack()) + 5)\n"
        "    return solve(args, out)\n"
        "cli.cmd_solve = shallow\n"
        f"sys.exit(cli.main(['solve', {os.path.join(INPUTS, 'lists.smt2')!r}]))\n")
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource error: RecursionError")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(INPUTS) if f.endswith(".smt2")))
def test_bundled_input_solves_alike_at_a_low_recursion_limit(name):
    """`solve` prints the same at a recursion limit of 120 as at the
    default one."""
    def solve(limit_line):
        return _python(f"import sys\nfrom adtsolve import cli\n{limit_line}\n"
                       f"sys.exit(cli.main(['solve', {os.path.join(INPUTS, name)!r}]))\n")

    low, default = solve("sys.setrecursionlimit(120)"), solve("")
    assert (low.returncode, low.stdout, low.stderr) == \
        (default.returncode, default.stdout, default.stderr)
    assert low.returncode == 0 and low.stdout
