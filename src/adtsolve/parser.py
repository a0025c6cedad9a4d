"""SMT-LIB 2.6 subset parser.

Supported commands: declare-datatypes (non-parametric), declare-const,
declare-fun, assert, check-sat, get-model, set-logic / set-info / set-option
(ignored), exit.  Terms may use `let` (parallel binding).  Testers are
written `(_ is f)`, the term-size operator is the reserved unary symbol
`adt.size`.  Uninterpreted integer functions are accepted so that emitted
reducts re-parse, and interpolants over a reduct's vocabulary are read with
the same parser (`interp.parse_reduced`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, TypeCheckError, UnknownSymbolError
from .signature import CtorDecl, Signature, validate
from .terms import (
    And, Ctor, Eq, FALSE, Formula, IntAdd, IntApp, IntConst, IntExpr, IntMul,
    IntVar, Not, Or, Sel, SizeAtom, SizeOf, TRUE, Var, conj,
)

INT_SORT = "Int"


@dataclass(frozen=True)
class SExpr:
    """Either an atom (`value` set) or a list (`items` set); carries position."""

    line: int
    col: int
    value: str | None = None
    items: tuple["SExpr", ...] | None = None

    @property
    def is_atom(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        if self.is_atom:
            return self.value
        return "(" + " ".join(str(i) for i in self.items) + ")"


def tokenize(text: str):
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


def read_sexprs(text: str) -> list[SExpr]:
    toks = list(tokenize(text))
    pos = 0

    def parse_one() -> SExpr:
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
                    return SExpr(line, col, items=tuple(items))
                items.append(parse_one())
        if tok == ")":
            raise InputError("unexpected ')'", line, col)
        return SExpr(line, col, value=tok)

    out = []
    while toks[pos][0] is not None:
        out.append(parse_one())
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


class _FormulaParser:
    def __init__(self, sig: Signature, var_sorts, ufuns):
        self.sig = sig
        self.var_sorts = var_sorts
        self.ufuns = ufuns
        self.lets: dict[str, tuple] = {}  # let-bound name -> (node, sort)

    # every parse method returns (node, sort) where sort is a sort name,
    # 'Int', or 'Bool'

    def parse_expr(self, e: SExpr):
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
            from .terms import Tester
            return Tester(ctor_name, arg), "Bool"
        raise InputError(f"unsupported application head {head}", e.line, e.col)

    def parse_atom(self, e: SExpr):
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

    def parse_int(self, e: SExpr) -> IntExpr:
        node, sort = self.parse_expr(e)
        if sort != INT_SORT:
            raise TypeCheckError(str(e), INT_SORT, sort, e.line, e.col)
        return node

    def parse_bool(self, e: SExpr) -> Formula:
        node, sort = self.parse_expr(e)
        if sort != "Bool":
            raise TypeCheckError(str(e), "Bool", sort, e.line, e.col)
        return node

    def parse_let(self, e: SExpr):
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

    def parse_app(self, op: str, e: SExpr):
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
