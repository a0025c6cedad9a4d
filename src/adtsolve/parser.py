"""SMT-LIB 2.6 subset parser.

Supported commands: declare-datatypes (non-parametric), declare-const,
declare-fun, assert, check-sat, get-model, set-logic / set-info / set-option
(ignored), exit.  Terms may use `let` (parallel binding).  Testers are
written `(_ is f)`, the term-size operator is the reserved unary symbol
`adt.size`.  Uninterpreted integer functions are accepted so that emitted
reducts re-parse, and interpolants over a reduct's vocabulary are read with
the same parser (`interp.parse_reduced`).

The reader tokenises the text in one pass of a compiled pattern and builds
lists on an explicit stack of open lists; the elaborator walks the
s-expression tree with an explicit work stack and a value stack.  Neither
recurses, so how deeply the input may nest is bounded by memory, not by
Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from sys import intern
from typing import NamedTuple

from .errors import InputError, TypeCheckError, UnknownSymbolError
from .signature import CtorDecl, Signature, validate
from .terms import (
    And, Ctor, Eq, FALSE, Formula, IntAdd, IntApp, IntConst, IntMul, IntVar,
    Not, Or, Sel, SizeAtom, SizeOf, TRUE, Tester, Var, conj,
)

INT_SORT = "Int"
BOOL_SORT = "Bool"


class SExpr(NamedTuple):
    """Either an atom (`value` set) or a list (`items` set); carries position."""

    line: int
    col: int
    value: str | None = None
    items: tuple["SExpr", ...] | None = None

    @property
    def is_atom(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        parts, work = [], [self]
        while work:
            x = work.pop()
            if isinstance(x, str):
                parts.append(x)
            elif x.value is not None:
                parts.append(x.value)
            else:
                parts.append("(")
                work.append(")")
                for i in range(len(x.items) - 1, -1, -1):
                    work.append(x.items[i])
                    if i:
                        work.append(" ")
        return "".join(parts)


# a parenthesis, an atom (up to whitespace, a parenthesis or a comment), a
# comment, or a line break; other whitespace is skipped
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\n")

# builds an SExpr from its four fields without the Python-level call of the
# NamedTuple constructor, which took a fifth of the reader's time
_sexpr = tuple.__new__


def read_sexprs(text: str) -> list[SExpr]:
    """The s-expressions of `text`.  Positions are 1-based lines and
    columns; a tab or a carriage return is one column.  Every atom is
    interned, so each name is one string however often it occurs."""
    out: list[SExpr] = []
    items = out                                 # the innermost open list
    open_lists: list[tuple[int, int, list]] = []  # (line, col, enclosing items)
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "(":
            open_lists.append((line, m.start() - line_start + 1, items))
            items = []
        elif tok == ")":
            if not open_lists:
                raise InputError("unexpected ')'", line, m.start() - line_start + 1)
            list_line, list_col, outer = open_lists.pop()
            outer.append(_sexpr(SExpr, (list_line, list_col, None, tuple(items))))
            items = outer
        elif tok == "\n":
            line += 1
            line_start = m.end()
        elif tok[0] != ";":
            items.append(_sexpr(SExpr, (line, m.start() - line_start + 1, intern(tok), None)))
    if open_lists:
        raise InputError("unbalanced parenthesis", line, len(text) - line_start + 1)
    return out


@dataclass
class Script:
    sig: Signature
    var_sorts: dict[str, str]                      # variable -> sort name or 'Int'
    ufuns: dict[str, tuple[tuple[str, ...], str]]  # name -> (arg sorts, result sort)
    asserts: list[Formula] = field(default_factory=list)
    commands: list[str] = field(default_factory=list)
    check_sats: list[int] = field(default_factory=list)  # asserts before each check-sat
    # constants and functions declared before each check-sat
    declared: list[tuple[int, int]] = field(default_factory=list)
    get_models: list[int] = field(default_factory=list)  # check-sats before each get-model

    def formula(self) -> Formula:
        return conj(self.asserts)

    def queries(self) -> list[Formula]:
        """The formula each check-sat answers for, the conjunction of the
        assertions before it; a script without one has the one query
        `formula()`."""
        return [conj(self.asserts[:n]) for n in self.check_sats or [len(self.asserts)]]

    def shown_models(self) -> list[tuple[dict[str, str], dict] | None]:
        """Per query, the constants and functions whose values a get-model
        after its check-sat, before the next one, asks for: those declared
        before that check-sat; None where no get-model follows.  The query of
        a script without a check-sat has no model shown."""
        if not self.check_sats:
            return [None]
        asked = set(self.get_models)
        consts, funs = list(self.var_sorts.items()), list(self.ufuns.items())
        return [(dict(consts[:n_consts]), dict(funs[:n_funs])) if i in asked else None
                for i, (n_consts, n_funs) in enumerate(self.declared, 1)]


def _is_int_literal(s: str) -> bool:
    return s.isdigit() or (s.startswith("-") and s[1:].isdigit())


class _ScriptBuilder:
    def __init__(self):
        self.sorts: list[str] = []
        self.ctors: list[CtorDecl] = []
        self.var_sorts: dict[str, str] = {}
        self.ufuns: dict[str, tuple[tuple[str, ...], str]] = {}
        self.asserts: list[tuple[SExpr, None]] = []
        self.commands: list[str] = []

    # -- declarations ------------------------------------------------------

    def sig(self) -> Signature:
        return Signature(tuple(self.sorts), tuple(self.ctors))

    def declare_datatypes(self, e: SExpr):
        if e.items is None or len(e.items) != 3:
            raise InputError("declare-datatypes expects two argument lists", e.line, e.col)
        names, bodies = e.items[1], e.items[2]
        if names.items is None or bodies.items is None or len(names.items) != len(bodies.items):
            raise InputError("malformed declare-datatypes", e.line, e.col)
        declared = []
        for nd in names.items:
            if nd.items is None or len(nd.items) != 2 or not nd.items[0].is_atom:
                raise InputError("expected (Name 0) sort declaration", nd.line, nd.col)
            if nd.items[1].value != "0":
                raise InputError("parametric datatypes are not supported", nd.line, nd.col)
            declared.append(nd.items[0].value)
            self.sorts.append(nd.items[0].value)
        for sort, body in zip(declared, bodies.items):
            if body.items is None:
                raise InputError("expected constructor list", body.line, body.col)
            for cd in body.items:
                if cd.items is None or not cd.items or not cd.items[0].is_atom:
                    raise InputError("malformed constructor declaration", cd.line, cd.col)
                cname = cd.items[0].value
                args = []
                for sd in cd.items[1:]:
                    if sd.items is None or len(sd.items) != 2 or not all(x.is_atom for x in sd.items):
                        raise InputError("expected (selector Sort)", sd.line, sd.col)
                    args.append((sd.items[0].value, sd.items[1].value))
                self.ctors.append(CtorDecl(cname, sort, tuple(args)))

    def declare_var(self, name: str, sort: str, pos: SExpr):
        if name in self.var_sorts or name in self.ufuns or any(c.name == name for c in self.ctors):
            raise InputError(f"duplicate declaration of {name!r}", pos.line, pos.col)
        if sort != INT_SORT and sort not in self.sorts:
            raise InputError(f"unknown sort {sort!r}", pos.line, pos.col)
        self.var_sorts[name] = sort

    def declare_fun(self, e: SExpr):
        if e.items is None or len(e.items) != 4 or not e.items[1].is_atom:
            raise InputError("malformed declare-fun", e.line, e.col)
        name = e.items[1].value
        argl = e.items[2]
        res = e.items[3]
        if argl.items is None or not res.is_atom:
            raise InputError("malformed declare-fun", e.line, e.col)
        if not argl.items:
            self.declare_var(name, res.value, e)
            return
        arg_sorts = []
        for a in argl.items:
            if not a.is_atom or a.value != INT_SORT:
                raise InputError("uninterpreted functions must range over Int",
                                 a.line, a.col)
            arg_sorts.append(a.value)
        if res.value != INT_SORT:
            raise InputError("uninterpreted functions must return Int", res.line, res.col)
        if name in self.ufuns or name in self.var_sorts:
            raise InputError(f"duplicate declaration of {name!r}", e.line, e.col)
        self.ufuns[name] = (tuple(arg_sorts), INT_SORT)


# -- elaboration ----------------------------------------------------------------
#
# Every elaborated expression is a (node, sort) pair, the sort a sort name,
# 'Int' or 'Bool'.  An application is checked on entry (its operator and
# arity), its arguments are elaborated in order, each checked against the
# sort the operator wants as soon as it is done, and the node is built on
# exit from the arguments' pairs, so errors come in the order of the text.

def _nodes(vals) -> tuple:
    return tuple(node for node, _ in vals)


def _implies(e: SExpr, vals):
    parts = _nodes(vals)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or((Not(p), out))
    return out, BOOL_SORT


def _equal(e: SExpr, vals):
    """(= a b ...) chains, (distinct a b ...) compares every pair."""
    sorts = {s for _, s in vals}
    if len(sorts) != 1:
        raise TypeCheckError(str(e), vals[0][1], vals[1][1], e.line, e.col)
    sort = sorts.pop()
    if sort == BOOL_SORT:
        raise InputError("Boolean equality is not supported", e.line, e.col)
    nodes = _nodes(vals)
    eq = e.items[0].value == "="
    if eq:
        pairs = zip(nodes, nodes[1:])
    else:
        pairs = ((a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:])
    if sort == INT_SORT:
        return conj(SizeAtom("eq" if eq else "ne", a, b) for a, b in pairs), BOOL_SORT
    return conj(Eq(a, b) if eq else Not(Eq(a, b)) for a, b in pairs), BOOL_SORT


_COMPARISONS = {"<=": "le", "<": "lt", ">=": "ge", ">": "gt"}


def _compare(e: SExpr, vals):
    op, nodes = _COMPARISONS[e.items[0].value], _nodes(vals)
    return conj(SizeAtom(op, a, b) for a, b in zip(nodes, nodes[1:])), BOOL_SORT


def _minus(e: SExpr, vals):
    nodes = _nodes(vals)
    if len(nodes) == 1:
        # (- k) of a numeral is the numeral -k, as in (* (- 2) a)
        if isinstance(nodes[0], IntConst):
            return IntConst(-nodes[0].value), INT_SORT
        return IntMul(-1, nodes[0]), INT_SORT
    return IntAdd((nodes[0],) + tuple(IntMul(-1, n) for n in nodes[1:])), INT_SORT


def _times(e: SExpr, vals):
    nodes = _nodes(vals)
    if len(nodes) != 2:
        raise InputError("* takes two arguments", e.line, e.col)
    consts = [n for n in nodes if isinstance(n, IntConst)]
    if not consts:
        raise InputError("nonlinear multiplication is not supported", e.line, e.col)
    other = nodes[1] if nodes[0] is consts[0] else nodes[0]
    return IntMul(consts[0].value, other), INT_SORT


def _size(e: SExpr, vals):
    node, sort = vals[0]
    if sort in (INT_SORT, BOOL_SORT):
        raise TypeCheckError(str(e), "an ADT sort", sort, e.line, e.col)
    return SizeOf(node), INT_SORT


# arity of a built-in operator: (fewest, most or None, as its error says it)
_ONE = (1, 1, "one argument")
_ONE_UP = (1, None, "at least one argument")
_TWO_UP = (2, None, "at least two arguments")

# operator -> (arity checked on entry or None, sort of every argument or
# None, build on exit)
_BUILTINS = {
    "and": (None, BOOL_SORT, lambda e, vals: (And(_nodes(vals)), BOOL_SORT)),
    "or": (None, BOOL_SORT, lambda e, vals: (Or(_nodes(vals)), BOOL_SORT)),
    "not": (_ONE, BOOL_SORT, lambda e, vals: (Not(vals[0][0]), BOOL_SORT)),
    "=>": (_TWO_UP, BOOL_SORT, _implies),
    "=": (_TWO_UP, None, _equal),
    "distinct": (_TWO_UP, None, _equal),
    **{op: (_TWO_UP, INT_SORT, _compare) for op in _COMPARISONS},
    "+": (None, INT_SORT, lambda e, vals: (IntAdd(_nodes(vals)), INT_SORT)),
    "-": (_ONE_UP, INT_SORT, _minus),
    "*": (None, INT_SORT, _times),
    "adt.size": (_ONE, None, _size),
}

# the steps of the work stack, each (kind, SExpr e, x, sort wanted or None);
# the value a step leaves on the value stack must have the sort wanted
_EXPR = 0   # x None: elaborate e
_APPLY = 1  # x build: build e's value from the values of its arguments
_BIND = 2   # x names: check the let binding e, elaborate its term
_OPEN = 3   # x names: bind the names to the bindings' values, elaborate the body
_CLOSE = 4  # x scope: the let body is done, restore the enclosing scope


def _check(e: SExpr, want: str | None, sort: str):
    if want is not None and sort != want:
        raise TypeCheckError(str(e), want, sort, e.line, e.col)


class _FormulaParser:
    def __init__(self, sig: Signature, var_sorts, ufuns):
        self.sig = sig
        self.var_sorts = var_sorts
        self.ufuns = ufuns

    def parse_bool(self, root: SExpr) -> Formula:
        """The formula `root` elaborates to; the error raised is the first
        one met in the order of the text."""
        lets: dict[str, tuple] = {}  # let-bound name -> (node, sort)
        work = [(_EXPR, root, None, BOOL_SORT)]
        vals: list[tuple] = []
        while work:
            kind, e, x, want = work.pop()
            if kind == _EXPR:
                if e.value is None:
                    self._enter(e, want, work)
                    continue
                val = lets[e.value] if e.value in lets else self._atom(e)
            elif kind == _APPLY:
                k = len(vals) - len(e.items) + 1
                val = x(e, vals[k:])
                del vals[k:]
            elif kind == _BIND:
                if e.items is None or len(e.items) != 2 or not e.items[0].is_atom:
                    raise InputError("expected (name term) let binding", e.line, e.col)
                name = e.items[0].value
                if name in x:
                    raise InputError(f"duplicate let binding {name!r}", e.line, e.col)
                x.append(name)
                work.append((_EXPR, e.items[1], None, None))
                continue
            elif kind == _OPEN:
                # a parallel binding: every term was elaborated in the outer
                # scope; the names shadow declared symbols in the body
                k = len(vals) - len(x)
                work.append((_CLOSE, e, lets, want))
                lets = {**lets, **dict(zip(x, vals[k:]))}
                del vals[k:]
                work.append((_EXPR, e.items[2], None, None))
                continue
            else:
                lets = x
                val = vals.pop()
            _check(e, want, val[1])
            vals.append(val)
        return vals.pop()[0]

    def _atom(self, e: SExpr):
        v = e.value
        if v == "true":
            return TRUE, BOOL_SORT
        if v == "false":
            return FALSE, BOOL_SORT
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

    def _enter(self, e: SExpr, want: str | None, work: list):
        """Check the application `e` and push the steps that elaborate it:
        its exit, then its arguments, the first on top."""
        if not e.items:
            raise InputError("empty application", e.line, e.col)
        head, args = e.items[0], e.items[1:]
        op = head.value
        if op == "let":
            # (let ((n1 t1) ... (nk tk)) body)
            if len(e.items) != 3 or not e.items[1].items:
                raise InputError("let takes a non-empty binding list and a body",
                                 e.line, e.col)
            names: list[str] = []
            work.append((_OPEN, e, names, want))
            work.extend((_BIND, b, names, None) for b in reversed(e.items[1].items))
            return
        if op in _BUILTINS:
            arity, arg_sort, build = _BUILTINS[op]
            if arity and not arity[0] <= len(args) <= (arity[1] or len(args)):
                raise InputError(f"{op} takes {arity[2]}", e.line, e.col)
            wants = (arg_sort,) * len(args)
        elif op is None:
            build, wants = self._tester(e, head)
        elif self.sig.has_ctor(op):
            c = self.sig.ctor(op)
            if len(args) != c.arity:
                raise TypeCheckError(str(e), f"{c.arity} arguments", str(len(args)),
                                     e.line, e.col)
            wants = [sort for _, sort in c.args]

            def build(e, vals):
                return Ctor(op, _nodes(vals)), c.sort
        elif self.sig.has_selector(op):
            c, j = self.sig.selector(op)
            if len(args) != 1:
                raise InputError("selector takes one argument", e.line, e.col)
            wants = (None,)

            def build(e, vals):
                node, sort = vals[0]
                _check(e, c.sort, sort)
                return Sel(c.name, j, node), c.args[j][1]
        elif op in self.ufuns:
            arg_sorts, _ = self.ufuns[op]
            if len(args) != len(arg_sorts):
                raise TypeCheckError(str(e), f"{len(arg_sorts)} arguments",
                                     str(len(args)), e.line, e.col)
            wants = (INT_SORT,) * len(args)

            def build(e, vals):
                return IntApp(op, _nodes(vals)), INT_SORT
        else:
            raise UnknownSymbolError(op)
        work.append((_APPLY, e, build, want))
        for i in range(len(args) - 1, -1, -1):
            work.append((_EXPR, args[i], None, wants[i]))

    def _tester(self, e: SExpr, head: SExpr):
        """((_ is f) t): the build and argument sorts of a tester."""
        if not (head.items and len(head.items) == 3 and head.items[0].value == "_"
                and head.items[1].value == "is"):
            raise InputError(f"unsupported application head {head}", e.line, e.col)
        ctor_name = head.items[2].value
        if not self.sig.has_ctor(ctor_name):
            raise UnknownSymbolError(ctor_name, "tester of undeclared constructor")
        if len(e.items) != 2:
            raise InputError("tester takes one argument", e.line, e.col)

        def build(e, vals):
            node, sort = vals[0]
            _check(e, self.sig.ctor(ctor_name).sort, sort)
            return Tester(ctor_name, node), BOOL_SORT
        return build, (None,)


def parse_script(text: str) -> Script:
    builder = _ScriptBuilder()
    pending_asserts: list[SExpr] = []
    check_sats: list[int] = []
    declared: list[tuple[int, int]] = []
    get_models: list[int] = []
    for e in read_sexprs(text):
        if e.is_atom:
            raise InputError(f"stray atom {e.value!r}", e.line, e.col)
        if not e.items or not e.items[0].is_atom:
            raise InputError("expected a command", e.line, e.col)
        cmd = e.items[0].value
        if cmd == "declare-datatypes":
            builder.declare_datatypes(e)
        elif cmd == "declare-const":
            if len(e.items) != 3 or not e.items[1].is_atom or not e.items[2].is_atom:
                raise InputError("malformed declare-const", e.line, e.col)
            builder.declare_var(e.items[1].value, e.items[2].value, e)
        elif cmd == "declare-fun":
            builder.declare_fun(e)
        elif cmd == "assert":
            if len(e.items) != 2:
                raise InputError("assert takes one argument", e.line, e.col)
            pending_asserts.append(e.items[1])
        elif cmd in ("check-sat", "get-model", "exit"):
            builder.commands.append(cmd)
            if cmd == "check-sat":
                check_sats.append(len(pending_asserts))
                declared.append((len(builder.var_sorts), len(builder.ufuns)))
            elif cmd == "get-model":
                get_models.append(len(check_sats))
        elif cmd in ("set-logic", "set-info", "set-option"):
            pass
        else:
            raise InputError(f"unsupported command {cmd!r}", e.line, e.col)
    sig = builder.sig()
    issues = validate(sig)
    if issues:
        raise InputError("invalid signature: " + "; ".join(str(i) for i in issues))
    fp = _FormulaParser(sig, builder.var_sorts, builder.ufuns)
    asserts = [fp.parse_bool(a) for a in pending_asserts]
    return Script(sig, builder.var_sorts, builder.ufuns, asserts, builder.commands,
                  check_sats, declared, get_models)


def parse_formula(text: str, sig: Signature, var_sorts: dict[str, str],
                  ufuns: dict[str, tuple[tuple[str, ...], str]] | None = None) -> Formula:
    """Parse a single formula over a signature, declared constants
    (`var_sorts`) and uninterpreted integer functions (`ufuns`, shaped like
    `Script.ufuns`)."""
    exprs = read_sexprs(text)
    if len(exprs) != 1:
        raise InputError("expected exactly one expression")
    return _FormulaParser(sig, var_sorts, ufuns or {}).parse_bool(exprs[0])
