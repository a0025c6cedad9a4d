"""The recursive reader and elaborator that `adtsolve.parser` replaced, kept
as the reference its single-pass reader and stack-based elaborator are
compared against: on every benchmark text at seed 1, every bundled input,
and bundled inputs with parentheses and tokens deleted, duplicated, moved or
inserted, and on formulas that probe the order of its checks.  Where
the reference parses, the scripts and the signature caches they leave are
equal; where it raises, the error is the same, position included.

The reference differs from the code it was taken from in one line: a
comment advances the column, so the end of input after a trailing comment
is reported where the text ends.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from adtsolve import parser
from adtsolve.errors import InputError, TypeCheckError, UnknownSymbolError
from adtsolve.parser import INT_SORT, _is_int_literal
from adtsolve.signature import Signature
from adtsolve.terms import (
    And, Ctor, Eq, FALSE, Formula, IntAdd, IntApp, IntConst, IntExpr, IntMul,
    IntVar, Not, Or, Sel, SizeAtom, SizeOf, TRUE, Tester, Var, conj,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# -- the reference reader ----------------------------------------------------------

@dataclass(frozen=True)
class RefSExpr:
    """Either an atom (`value` set) or a list (`items` set); carries position."""

    line: int
    col: int
    value: str | None = None
    items: tuple["RefSExpr", ...] | None = None

    @property
    def is_atom(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        if self.is_atom:
            return self.value
        return "(" + " ".join(str(i) for i in self.items) + ")"


def ref_tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
        elif c in "()":
            yield (c, line, col)
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield (text[start:i], line, start_col)
    yield (None, line, col)


def ref_read_sexprs(text: str) -> list[RefSExpr]:
    toks = list(ref_tokenize(text))
    pos = 0

    def parse_one() -> RefSExpr:
        nonlocal pos
        tok, line, col = toks[pos]
        if tok is None:
            raise InputError("unexpected end of input", line, col)
        pos += 1
        if tok == "(":
            items = []
            while True:
                t, l2, c2 = toks[pos]
                if t is None:
                    raise InputError("unbalanced parenthesis", l2, c2)
                if t == ")":
                    pos += 1
                    return RefSExpr(line, col, items=tuple(items))
                items.append(parse_one())
        if tok == ")":
            raise InputError("unexpected ')'", line, col)
        return RefSExpr(line, col, value=tok)

    out = []
    while toks[pos][0] is not None:
        out.append(parse_one())
    return out


# -- the reference elaborator --------------------------------------------------------

class RefFormulaParser:
    def __init__(self, sig: Signature, var_sorts, ufuns):
        self.sig = sig
        self.var_sorts = var_sorts
        self.ufuns = ufuns
        self.lets: dict[str, tuple] = {}  # let-bound name -> (node, sort)

    # every parse method returns (node, sort) where sort is a sort name,
    # 'Int', or 'Bool'

    def parse_expr(self, e: RefSExpr):
        if e.is_atom:
            return self.parse_atom(e)
        if not e.items:
            raise InputError("empty application", e.line, e.col)
        head = e.items[0]
        if head.is_atom:
            return self.parse_app(head.value, e)
        # ((_ is f) t)
        if (head.items and len(head.items) == 3 and head.items[0].value == "_"
                and head.items[1].value == "is"):
            ctor_name = head.items[2].value
            if not self.sig.has_ctor(ctor_name):
                raise UnknownSymbolError(ctor_name, "tester of undeclared constructor")
            if len(e.items) != 2:
                raise InputError("tester takes one argument", e.line, e.col)
            arg, sort = self.parse_expr(e.items[1])
            expected = self.sig.ctor(ctor_name).sort
            if sort != expected:
                raise TypeCheckError(str(e), expected, sort, e.line, e.col)
            return Tester(ctor_name, arg), "Bool"
        raise InputError(f"unsupported application head {head}", e.line, e.col)

    def parse_atom(self, e: RefSExpr):
        v = e.value
        if v in self.lets:
            return self.lets[v]
        if v == "true":
            return TRUE, "Bool"
        if v == "false":
            return FALSE, "Bool"
        if _is_int_literal(v):
            return IntConst(int(v)), INT_SORT
        if v in self.var_sorts:
            sort = self.var_sorts[v]
            if sort == INT_SORT:
                return IntVar(v), INT_SORT
            return Var(v, sort), sort
        if self.sig.has_ctor(v):
            c = self.sig.ctor(v)
            if c.arity != 0:
                raise TypeCheckError(v, f"{c.arity} arguments", "0", e.line, e.col)
            return Ctor(v, ()), c.sort
        if v in self.ufuns and not self.ufuns[v][0]:
            return IntApp(v, ()), INT_SORT
        raise UnknownSymbolError(v)

    def parse_int(self, e: RefSExpr) -> IntExpr:
        node, sort = self.parse_expr(e)
        if sort != INT_SORT:
            raise TypeCheckError(str(e), INT_SORT, sort, e.line, e.col)
        return node

    def parse_bool(self, e: RefSExpr) -> Formula:
        node, sort = self.parse_expr(e)
        if sort != "Bool":
            raise TypeCheckError(str(e), "Bool", sort, e.line, e.col)
        return node

    def parse_let(self, e: RefSExpr):
        """(let ((n1 t1) ... (nk tk)) body): a parallel binding, so every ti
        is parsed in the enclosing scope; the names shadow declared symbols."""
        if len(e.items) != 3 or not e.items[1].items:
            raise InputError("let takes a non-empty binding list and a body",
                             e.line, e.col)
        bound: dict[str, tuple] = {}
        for b in e.items[1].items:
            if b.items is None or len(b.items) != 2 or not b.items[0].is_atom:
                raise InputError("expected (name term) let binding", b.line, b.col)
            name = b.items[0].value
            if name in bound:
                raise InputError(f"duplicate let binding {name!r}", b.line, b.col)
            bound[name] = self.parse_expr(b.items[1])
        outer = self.lets
        self.lets = {**outer, **bound}
        try:
            return self.parse_expr(e.items[2])
        finally:
            self.lets = outer

    def parse_app(self, op: str, e: RefSExpr):
        args = e.items[1:]
        if op == "let":
            return self.parse_let(e)
        if op in ("and", "or"):
            parts = tuple(self.parse_bool(a) for a in args)
            return (And(parts) if op == "and" else Or(parts)), "Bool"
        if op == "not":
            if len(args) != 1:
                raise InputError("not takes one argument", e.line, e.col)
            return Not(self.parse_bool(args[0])), "Bool"
        if op == "=>":
            if len(args) < 2:
                raise InputError("=> takes at least two arguments", e.line, e.col)
            parts = [self.parse_bool(a) for a in args]
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = Or((Not(p), out))
            return out, "Bool"
        if op in ("=", "distinct"):
            if len(args) < 2:
                raise InputError(f"{op} takes at least two arguments", e.line, e.col)
            parsed = [self.parse_expr(a) for a in args]
            sorts = {s for _, s in parsed}
            if len(sorts) != 1:
                raise TypeCheckError(str(e), parsed[0][1], parsed[1][1], e.line, e.col)
            sort = sorts.pop()
            if sort == "Bool":
                raise InputError("Boolean equality is not supported", e.line, e.col)
            pairs = []
            nodes = [n for n, _ in parsed]
            if op == "=":
                it = zip(nodes, nodes[1:])
            else:
                it = ((a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:])
            for a, b in it:
                if sort == INT_SORT:
                    pairs.append(SizeAtom("eq" if op == "=" else "ne", a, b))
                else:
                    pairs.append(Eq(a, b) if op == "=" else Not(Eq(a, b)))
            return conj(pairs), "Bool"
        if op in ("<=", "<", ">=", ">"):
            if len(args) < 2:
                raise InputError(f"{op} takes at least two arguments", e.line, e.col)
            ops = {"<=": "le", "<": "lt", ">=": "ge", ">": "gt"}
            nodes = [self.parse_int(a) for a in args]
            atoms = [SizeAtom(ops[op], a, b) for a, b in zip(nodes, nodes[1:])]
            return conj(atoms), "Bool"
        if op == "+":
            return IntAdd(tuple(self.parse_int(a) for a in args)), INT_SORT
        if op == "-":
            nodes = [self.parse_int(a) for a in args]
            if not nodes:
                raise InputError("- takes at least one argument", e.line, e.col)
            if len(nodes) == 1:
                # (- k) of a numeral is the numeral -k, as in (* (- 2) a)
                if isinstance(nodes[0], IntConst):
                    return IntConst(-nodes[0].value), INT_SORT
                return IntMul(-1, nodes[0]), INT_SORT
            rest = [IntMul(-1, n) for n in nodes[1:]]
            return IntAdd(tuple([nodes[0]] + rest)), INT_SORT
        if op == "*":
            nodes = [self.parse_int(a) for a in args]
            if len(nodes) != 2:
                raise InputError("* takes two arguments", e.line, e.col)
            consts = [n for n in nodes if isinstance(n, IntConst)]
            if not consts:
                raise InputError("nonlinear multiplication is not supported", e.line, e.col)
            other = nodes[1] if nodes[0] is consts[0] else nodes[0]
            return IntMul(consts[0].value, other), INT_SORT
        if op == "adt.size":
            if len(args) != 1:
                raise InputError("adt.size takes one argument", e.line, e.col)
            node, sort = self.parse_expr(args[0])
            if sort in (INT_SORT, "Bool"):
                raise TypeCheckError(str(e), "an ADT sort", sort, e.line, e.col)
            return SizeOf(node), INT_SORT
        if self.sig.has_ctor(op):
            c = self.sig.ctor(op)
            if len(args) != c.arity:
                raise TypeCheckError(str(e), f"{c.arity} arguments", str(len(args)),
                                     e.line, e.col)
            terms = []
            for a, (_, expected) in zip(args, c.args):
                node, sort = self.parse_expr(a)
                if sort != expected:
                    raise TypeCheckError(str(a), expected, sort, a.line, a.col)
                terms.append(node)
            return Ctor(op, tuple(terms)), c.sort
        if self.sig.has_selector(op):
            c, j = self.sig.selector(op)
            if len(args) != 1:
                raise InputError("selector takes one argument", e.line, e.col)
            node, sort = self.parse_expr(args[0])
            if sort != c.sort:
                raise TypeCheckError(str(e), c.sort, sort, e.line, e.col)
            return Sel(c.name, j, node), c.args[j][1]
        if op in self.ufuns:
            arg_sorts, _ = self.ufuns[op]
            if len(args) != len(arg_sorts):
                raise TypeCheckError(str(e), f"{len(arg_sorts)} arguments",
                                     str(len(args)), e.line, e.col)
            return IntApp(op, tuple(self.parse_int(a) for a in args)), INT_SORT
        raise UnknownSymbolError(op)



@contextmanager
def _reference():
    """`parser.parse_script` and `parser.parse_formula` with the reference
    reader and elaborator in place of the module's own."""
    with mock.patch.multiple(parser, read_sexprs=ref_read_sexprs,
                             _FormulaParser=RefFormulaParser):
        yield


# -- differential tests ----------------------------------------------------------------

def _outcome(parse, *args):
    """What `parse(*args)` returns, or the error it raises with its message
    and position."""
    try:
        return parse(*args)
    except Exception as e:  # any error: both parsers must raise the same one
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def _script_and_cache(text: str):
    """The script and the keys of the signature cache it leaves: the decide
    path is handed that cache, so the same entries must be warm."""
    script = parser.parse_script(text)
    return script, list(script.sig._cache)


def _assert_same(text: str):
    with _reference():
        want = _outcome(_script_and_cache, text)
    assert _outcome(_script_and_cache, text) == want


def _workload_texts(seed: int) -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look their module up there
    try:
        spec.loader.exec_module(gen)
        return [inst.text for w in gen.WORKLOADS for inst in gen.generate(w, seed)]
    finally:
        del sys.modules[spec.name]


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


BUNDLED = [_read(f) for f in sorted(glob.glob(os.path.join(ROOT, "scripts", "inputs", "*.smt2")))]


def test_benchmark_texts_parse_as_the_reference_does():
    texts = _workload_texts(1)
    assert len(texts) > 2000
    for text in texts:
        _assert_same(text)


def test_bundled_inputs_parse_as_the_reference_does():
    for text in BUNDLED:
        _assert_same(text)


# the pieces a script is cut into before mutation: parentheses, atoms,
# comments and runs of whitespace
_PIECES = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\s+")


# pieces a mutation may insert: a tab or a carriage return counts one column,
# a comment none of the text after it
_INSERTED = ("(", ")", " ", "\t", "\r", "\n", "; c", "x", "7", "red")


@st.composite
def mutated_scripts(draw):
    pieces = _PIECES.findall(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces) - 1))
        piece = pieces[i]
        how = draw(st.sampled_from(("delete", "duplicate", "move", "insert")))
        if how == "duplicate":
            pieces.insert(i, piece)
        elif how == "insert":
            pieces.insert(i, draw(st.sampled_from(_INSERTED)))
        else:
            del pieces[i]
            if how == "move":
                pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return "".join(pieces)


@settings(max_examples=500)
@given(mutated_scripts())
def test_mutated_scripts_parse_or_fail_as_the_reference_does(text):
    _assert_same(text)


LISTS = """
(declare-datatypes ((Colour 0) (CList 0))
  (((red) (green) (blue))
   ((nil) (cons (head Colour) (tail CList)))))
"""


@pytest.mark.parametrize("text", [
    # an argument's error comes before the arity error of `*`
    "(= (* (f a b) n 2) 0)",
    "(= (* n 2) (- (f n) 1))",
    # a tester looks its constructor up after its argument's
    "((_ is nil) (cons green (tail (cons red nil))))",
    "((_ is snoc) x)",
    "((_ is cons) (cons red))",
    "(=> ((_ is cons) x) (= (head x) blue) (distinct x nil (tail x)))",
    "(let ((c (head x)) (n (f n))) (and (= c red) (< n (adt.size x) 4)))",
    "(let ((c (head y)) (c)) true)",
    "(let ((c red)) (let ((c nil)) (= x c)))",
    "(and (let ((c red)) (= y c)) (= y c))",
    # a let is checked against the sort its context wants, after its body
    "(and (let ((c red)) c))", "(= x (cons (let ((c nil)) c) nil))",
    "(= x y)", "(= (adt.size n) 1)", "(not (head x) red)", "((f n) 1)", "(and 1 (g))",
])
def test_formulas_parse_or_fail_as_the_reference_does(text):
    """`parse_formula`, which also reads interpolants back, elaborates each
    formula, or fails on it, as the reference does, and warms the same
    signature cache entries."""
    def run(text):
        sig = parser.parse_script(LISTS).sig
        phi = parser.parse_formula(text, sig, {"x": "CList", "y": "Colour", "n": INT_SORT},
                                   {"f": ((INT_SORT,), INT_SORT)})
        return phi, list(sig._cache)
    with _reference():
        want = _outcome(run, text)
    assert _outcome(run, text) == want
