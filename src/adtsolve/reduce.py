"""Reduction of flat ADT formulas to EUF+LIA.

Constructor, selector, tester, and equality literals rewrite into constraints
over integer variables and uninterpreted integer functions: one function per
constructor and selector, plus per-sort head-index functions and either a
depth function (depth mode) or a size function (size mode).  Depth rows
`depth(x0) > depth(xj)` are emitted only for constructor arguments inside the
result sort's strongly connected component of the sort graph, the only place
a cyclic term can close (see `Reducer.ctor_spec`).  Internal
existentials are Skolemized with fresh constants.  One switch, `opt`, turns
on two optimizations together: guarded selector literals drop their
head-case disjunction (rule 2'), and enumeration sorts map constructors
straight to their indices (`SymbolTable.enum_sorts`).

Reduced nodes are `terms.Node`s, slotted value classes with the equality,
hash and `repr` of frozen dataclasses but built without `dataclasses`, whose
generated methods cost about 1 ms a class at import (an `RApp` also holds
its cached hash).  A symbol table interns the variables and applications of
its reducts, so a repeated term is one object.

A `Reducer` memoises each literal's reduction, each top-level conjunct's
reduction under the formula's guard set, and each variable's range rows, so
one reducer kept across the rounds of the unfolding loop reduces only each
round's new case clause and the range rows of its new variables (and the
whole formula again, through the literal memo, in a round whose clause
guards a variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

from .errors import InternalError, ModeMismatchError
from .normalize import FlatFormula
from .semilinear import EventuallyPeriodicSet
from .signature import (
    Signature, cardinality, ctor_index, ensure_valid, reachable_sorts, size_image,
)
from .terms import (
    And, Ctor, Eq, FalseF, Formula, IntAdd, IntApp, IntConst, IntExpr, IntMul,
    IntVar, Node, Not, Or, Sel, SizeAtom, SizeOf, Tester, TrueF, Var, splice,
)

DEPTH_MODE = "depth"
SIZE_MODE = "size"


# -- reduced (EUF+LIA) AST -----------------------------------------------------

class RVar(Node):
    __slots__ = ("name",)
    name: str

    # written out, as Node's closures take longer: the solver hashes these
    # more than any other node
    def __eq__(self, other):
        if other.__class__ is RVar:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))


class RConst(Node):
    __slots__ = ("value",)
    value: int


class RApp(Node):
    __slots__ = ("fn", "args", "_hash")
    fn: str
    args: tuple["RTerm", ...]

    def __init__(self, fn: str, args: tuple["RTerm", ...]):
        self._init(fn, args, None)

    # cached: these trees nest deeply and hash constantly in the solver
    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.fn, self.args))
            object.__setattr__(self, "_hash", h)
        return h


RTerm = Union[RVar, RConst, RApp]


class REq(Node):
    __slots__ = ("lhs", "rhs")
    lhs: RTerm
    rhs: RTerm


class RLin(Node):
    """sum(coeff * term) + const OP 0, with OP in {'le', 'eq', 'ne'}."""

    __slots__ = ("op", "terms", "const")
    op: str
    terms: tuple[tuple[int, RTerm], ...]
    const: int


class RAnd(Node):
    __slots__ = ("args",)
    args: tuple["RFormula", ...]


class ROr(Node):
    __slots__ = ("args",)
    args: tuple["RFormula", ...]


class RTrueF(Node):
    __slots__ = ()


class RFalseF(Node):
    __slots__ = ()


RFormula = Union[REq, RLin, RAnd, ROr, RTrueF, RFalseF]

RTRUE = RTrueF()
RFALSE = RFalseF()


def rand(args) -> RFormula:
    return splice(RAnd, args, RTRUE, RFALSE)


def ror(args) -> RFormula:
    return splice(ROr, args, RFALSE, RTRUE)


def lin(op: str, pairs, const: int) -> RFormula:
    """Build a normalized linear atom; folds ground atoms to true/false."""
    acc: dict[RTerm, int] = {}
    c = const
    for coeff, t in pairs:
        if isinstance(t, RConst):
            c += coeff * t.value
            continue
        acc[t] = acc.get(t, 0) + coeff
    terms = tuple((v, k) for k, v in acc.items() if v != 0)
    if not terms:
        holds = {"le": c <= 0, "eq": c == 0, "ne": c != 0}[op]
        return RTRUE if holds else RFALSE
    return RLin(op, terms, c)


def req(lhs: RTerm, rhs: RTerm) -> RFormula:
    if lhs == rhs:
        return RTRUE
    if isinstance(lhs, RConst) and isinstance(rhs, RConst):
        return RTRUE if lhs.value == rhs.value else RFALSE
    return REq(lhs, rhs)


def rne(lhs: RTerm, rhs: RTerm) -> RFormula:
    """lhs != rhs as the one form of a disequality: the row 1*lhs - 1*rhs != 0."""
    if lhs == rhs:
        return RFALSE
    if isinstance(lhs, RConst) or isinstance(rhs, RConst):
        return lin("ne", [(1, lhs), (-1, rhs)], 0)
    return RLin("ne", ((1, lhs), (-1, rhs)), 0)


def ne_sides(f: RLin) -> tuple[RTerm, RTerm] | None:
    """The sides of a disequality row in the form `rne` builds, else None."""
    if f.op == "ne" and f.const == 0 and len(f.terms) == 2 \
            and f.terms[0][0] == 1 and f.terms[1][0] == -1:
        return f.terms[0][1], f.terms[1][1]
    return None


def rformula_nodes(f: RFormula) -> int:
    def tn(t: RTerm) -> int:
        if isinstance(t, RApp):
            return 1 + sum(tn(a) for a in t.args)
        return 1

    if isinstance(f, (RTrueF, RFalseF)):
        return 1
    if isinstance(f, REq):
        return 1 + tn(f.lhs) + tn(f.rhs)
    if isinstance(f, RLin):
        return 1 + sum(tn(t) for _, t in f.terms)
    return 1 + sum(rformula_nodes(a) for a in f.args)


def iter_literals(f: RFormula) -> Iterator[RFormula]:
    if isinstance(f, (RAnd, ROr)):
        for a in f.args:
            yield from iter_literals(a)
    elif not isinstance(f, (RTrueF, RFalseF)):
        yield f


# (reduced op, constant shift) of each comparison; ge and gt also negate
_LINEAR_OPS = {"eq": ("eq", 0), "ne": ("ne", 0), "le": ("le", 0), "lt": ("le", 1),
               "ge": ("le", 0), "gt": ("le", 1)}


def linear_atom(atom: SizeAtom, leaf: Callable[[IntExpr], RTerm]) -> RFormula:
    """A comparison of two integer expressions as a normalized linear atom:
    constants, sums and constant multiples are folded, and `leaf` maps every
    other operand (a variable or an application) to its reduced term."""
    pairs: list[tuple[int, RTerm]] = []
    const = 0

    def walk(e: IntExpr, mult: int):
        nonlocal const
        if isinstance(e, IntConst):
            const += mult * e.value
        elif isinstance(e, IntAdd):
            for a in e.args:
                walk(a, mult)
        elif isinstance(e, IntMul):
            walk(e.arg, mult * e.coeff)
        else:
            pairs.append((mult, leaf(e)))

    walk(atom.lhs, 1)
    walk(atom.rhs, -1)
    op, shift = _LINEAR_OPS[atom.op]
    if atom.op in ("ge", "gt"):
        pairs = [(-c, t) for c, t in pairs]
        const = -const
    return lin(op, pairs, const + shift)


# -- symbol table ----------------------------------------------------------------

@dataclass
class SymbolTable:
    """Maps every reduced symbol back to its source, and interns the
    variables and applications of the reducts built over it (`var`, `app`):
    a term met again is the same object, so the solver's lookups hit by
    identity.  The interned terms live as long as the table, which is one
    reduction's (a `Reducer`'s, kept across the rounds of the unfolding
    loop), and go with it."""

    sig: Signature
    int_vars: dict[str, tuple] = field(default_factory=dict)  # name -> origin
    funs: dict[str, tuple[int, tuple]] = field(default_factory=dict)  # name -> (arity, origin)
    enum_sorts: frozenset[str] = frozenset()
    by_origin: dict[tuple, str] = field(default_factory=dict)  # origin -> name
    # name -> RVar, and (function, arguments) -> RApp
    interned: dict = field(default_factory=dict, repr=False, compare=False)

    def var(self, name: str) -> RVar:
        t = self.interned.get(name)
        if t is None:
            t = self.interned[name] = RVar(name)
        return t

    def app(self, fn: str, args: tuple[RTerm, ...]) -> RApp:
        key = (fn, args)
        t = self.interned.get(key)
        if t is None:
            t = self.interned[key] = RApp(fn, args)
        return t

    def _alloc(self, base: str) -> str:
        name = base
        n = 0
        while name in self.int_vars or name in self.funs:
            n += 1
            name = f"{base}!{n}"
        return name

    def adt_var(self, name: str, sort: str) -> RVar:
        if name not in self.int_vars:
            self.int_vars[name] = ("var", name, sort)
        return self.var(name)

    def int_var(self, name: str) -> RVar:
        if name not in self.int_vars:
            self.int_vars[name] = ("int", name)
        return self.var(name)

    def _fun(self, base: str, arity: int, origin: tuple) -> str:
        name = self.by_origin.get(origin)
        if name is None:
            name = self.by_origin[origin] = self._alloc(base)
            self.funs[name] = (arity, origin)
        return name

    def ctor_fun(self, f: str) -> str:
        return self._fun(f, self.sig.ctor(f).arity, ("ctor", f))

    def sel_fun(self, f: str, j: int) -> str:
        return self._fun(self.sig.selector_name(f, j), 1, ("sel", f, j))

    def ctorid_fun(self, sort: str) -> str:
        return self._fun(f"ctorId_{sort}", 1, ("ctorid", sort))

    def depth_fun(self, sort: str) -> str:
        return self._fun(f"depth_{sort}", 1, ("depth", sort))

    def size_fun(self, sort: str) -> str:
        return self._fun(f"size_{sort}", 1, ("size", sort))

    def uf(self, name: str, arity: int) -> str:
        return self._fun(name, arity, ("uf", name))

    def origin_of_var(self, name: str) -> tuple:
        return self.int_vars.get(name, ("int", name))

    def origin_of_fun(self, name: str) -> tuple | None:
        got = self.funs.get(name)
        return got[1] if got else None

    def skolem_names(self) -> list[str]:
        return [n for n, o in self.int_vars.items() if o[0] == "skolem"]


@dataclass
class ReducedFormula:
    formula: RFormula
    table: SymbolTable
    flat: FlatFormula


# -- the reducer ---------------------------------------------------------------------

class Reducer:
    """Reduces flat formulas literal by literal, memoising each literal's
    reduction per guard context.  One reducer kept across calls of `reduce`
    on formulas that each extend the last one by top-level conjuncts, as the
    unfolding loop's do, builds reducts that each extend the last one by a
    suffix: the old parts, Skolems included, then the reductions of the new
    conjuncts and the range rows of the new variables (`reduce_flat`).

    Its fresh constants, the Skolems `<prefix>N` and the multipliers
    `<prefix>kN` of periodic size images, come from one allocator
    (`_fresh`), count apart, and keep clear of every name in `used`."""

    def __init__(self, sig: Signature, mode: str, opt: bool = True,
                 table: SymbolTable | None = None, fresh_prefix: str = "_s"):
        if mode not in (DEPTH_MODE, SIZE_MODE):
            raise InternalError(f"unknown mode {mode!r}")
        self.sig = sig
        self.mode = mode
        self.opt = opt
        self.table = table if table is not None else _new_table(sig, opt)
        self.fresh_prefix = fresh_prefix
        self.counters = {"": 0, "k": 0}  # by infix: Skolems, aux variables
        self.memo: dict[tuple[Formula, bool], RFormula] = {}
        self.used: set[str] = set()
        # the last formula: its top-level conjuncts, its parts in order, each
        # with its source conjunct (None for range rows), the variables whose
        # range rows are among them, and its top-level guard set
        self.conjuncts: list[Formula] = []
        self.parts: list[tuple[Formula | None, RFormula]] = []
        self.ranged: set[str] = set()
        self.guards: frozenset[str] = frozenset()

    def _fresh(self, infix: str, origin: tuple) -> RVar:
        """A fresh constant `<prefix><infix>N`, the next free N of its
        infix's counter, registered in the table with its origin."""
        table = self.table
        while True:
            self.counters[infix] += 1
            name = f"{self.fresh_prefix}{infix}{self.counters[infix]}"
            if name not in self.used and name not in table.int_vars:
                self.used.add(name)
                table.int_vars[name] = origin
                return table.var(name)

    # -- symbol shorthands ----------------------------------------------------

    def xvar(self, v: Var) -> RVar:
        return self.table.adt_var(v.name, v.sort)

    def in_range(self, x: RTerm, sort: str) -> RFormula:
        n = cardinality(self.sig, sort)
        if n is None:
            return RTRUE
        return rand([
            lin("le", [(-1, x)], 0),                       # 0 <= x
            lin("le", [(1, x)], -(n - 1)),                 # x <= |T|-1
        ])

    def member_of(self, y: RTerm, image: EventuallyPeriodicSet) -> RFormula:
        """y in S, with the periodic tail encoded by fresh multiplier variables."""
        cases: list[RFormula] = []
        for a in sorted(image.exceptions):
            cases.append(lin("eq", [(1, y)], -a))
        if image.residues == frozenset({0}) and image.period == 1:
            cases.append(lin("le", [(-1, y)], image.threshold))
        else:
            for r in sorted(image.residues):
                k = self._fresh("k", ("aux",))
                cases.append(rand([
                    lin("le", [(-1, y)], image.threshold),          # y >= threshold
                    lin("eq", [(1, y), (-image.period, k)], -r),    # y = r + period*k
                    lin("le", [(-1, k)], 0),                        # k >= 0
                ]))
        return ror(cases)

    # -- Table 1 / Table 2 pieces ------------------------------------------------

    def ctor_spec(self, f: str, x0: RTerm, args: list[RTerm]) -> RFormula:
        """x0 = f(args): the constructor and head-index equations, a selector
        equation per argument, and either the depth or the size rows.

        Depth mode asserts depth(x0) > depth(xj) only for an argument whose
        sort reaches the result sort back, i.e. lies in its strongly
        connected component of the sort graph.  The rows only rule out
        cyclic terms, and this keeps every row a cycle could need:
        - the pruned reduct's conjuncts are a subset of the full one's, all
          in positive positions (NNF), so when it is unsat the full reduct
          is unsat too;
        - on sat, every cycle of the model's constructor graph returns to
          the sort it starts from, so all its edges lie inside one
          component, where every row is present and the depths would have
          to fall all around the cycle; so `reconstruct` stays well-founded;
        - and `check_model` re-checks every sat verdict regardless."""
        decl = self.sig.ctor(f)
        sort0 = decl.sort
        if sort0 in self.table.enum_sorts:
            return req(x0, RConst(ctor_index(self.sig, f)))
        parts: list[RFormula] = [
            req(self.table.app(self.table.ctor_fun(f), tuple(args)), x0),
            req(self.table.app(self.table.ctorid_fun(sort0), (x0,)), RConst(ctor_index(self.sig, f))),
        ]
        size_sum: list[tuple[int, RTerm]] | None = None
        if self.mode != DEPTH_MODE:
            size_sum = [(1, self.table.app(self.table.size_fun(sort0), (x0,)))]
        for j, ((_, sj), xj) in enumerate(zip(decl.args, args)):
            parts.append(req(self.table.app(self.table.sel_fun(f, j), (x0,)), xj))
            if size_sum is not None:
                sz = self.table.app(self.table.size_fun(sj), (xj,))
                parts.append(self.member_of(sz, size_image(self.sig, sj)))
                size_sum.append((-1, sz))
            elif sort0 in reachable_sorts(self.sig, sj):
                d0 = self.table.app(self.table.depth_fun(sort0), (x0,))
                dj = self.table.app(self.table.depth_fun(sj), (xj,))
                parts.append(lin("le", [(-1, d0), (1, dj)], 1))  # depth0 > depthj
        if size_sum is not None:
            parts.append(lin("eq", size_sum, -1))  # size0 = 1 + sum sizej
        return rand(parts)

    def ex_ctor_spec(self, g: str, x: RTerm) -> RFormula:
        decl = self.sig.ctor(g)
        if decl.sort in self.table.enum_sorts:
            return req(x, RConst(ctor_index(self.sig, g)))
        fresh = [self._fresh("", ("skolem", arg_sort)) for _, arg_sort in decl.args]
        parts = [self.in_range(v, arg_sort)
                 for v, (_, arg_sort) in zip(fresh, decl.args)]
        parts.append(self.ctor_spec(g, x, list(fresh)))
        return rand(parts)

    # -- literal reduction ----------------------------------------------------------

    def reduce_literal(self, lit: Formula, guards: frozenset[str]) -> RFormula:
        # rule (2') applies to a selector equation over a guarded variable
        guarded = (self.opt and isinstance(lit, Eq) and isinstance(lit.lhs, Sel)
                   and isinstance(lit.lhs.arg, Var) and lit.lhs.arg.name in guards)
        key = (lit, guarded)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = self._reduce_literal(lit, guarded)
        return out

    def _reduce_literal(self, lit: Formula, guarded: bool) -> RFormula:
        if isinstance(lit, Eq):
            lhs, rhs = lit.lhs, lit.rhs
            assert isinstance(rhs, Var), "flat form violated"
            x0 = self.xvar(rhs)
            if isinstance(lhs, Var):
                return req(self.xvar(lhs), x0)  # rule (5)
            if isinstance(lhs, Ctor):
                args = [self.xvar(a) for a in lhs.args]
                return self.ctor_spec(lhs.ctor, x0, args)  # rule (1) / (1')
            assert isinstance(lhs, Sel)
            x = self.xvar(lhs.arg)
            sel_eq = req(self.table.app(self.table.sel_fun(lhs.ctor, lhs.index), (x,)), x0)
            if guarded:
                return sel_eq  # rule (2')
            sort0 = self.sig.ctor(lhs.ctor).sort
            cases = [self.ex_ctor_spec(g.name, x) for g in self.sig.ctors_of(sort0)]
            return rand([sel_eq, ror(cases)])  # rule (2)
        if isinstance(lit, Not) and isinstance(lit.arg, Eq):
            a, b = lit.arg.lhs, lit.arg.rhs
            assert isinstance(a, Var) and isinstance(b, Var), "flat form violated"
            return rne(self.xvar(a), self.xvar(b))  # rule (6)
        if isinstance(lit, Tester):
            assert isinstance(lit.arg, Var)
            return self.ex_ctor_spec(lit.ctor, self.xvar(lit.arg))  # rule (3)
        if isinstance(lit, Not) and isinstance(lit.arg, Tester):
            tester = lit.arg
            assert isinstance(tester.arg, Var)
            x = self.xvar(tester.arg)
            sort = self.sig.ctor(tester.ctor).sort
            if sort in self.table.enum_sorts:
                return lin("ne", [(1, x)], -ctor_index(self.sig, tester.ctor))
            cases = [self.ex_ctor_spec(g.name, x)
                     for g in self.sig.ctors_of(sort) if g.name != tester.ctor]
            return ror(cases)  # rule (4)
        if isinstance(lit, SizeAtom):
            return self.reduce_size_atom(lit)
        raise InternalError(f"unexpected literal {lit}")

    def reduce_size_atom(self, atom: SizeAtom) -> RFormula:
        if (atom.op == "eq" and isinstance(atom.lhs, SizeOf)
                and isinstance(atom.rhs, IntVar)):
            if self.mode != SIZE_MODE:
                raise ModeMismatchError("size atom in depth-mode reduction")
            x = atom.lhs.arg
            assert isinstance(x, Var), "flat form violated"
            y = self.table.int_var(atom.rhs.name)
            sz = self.table.app(self.table.size_fun(x.sort), (self.xvar(x),))
            return rand([
                req(sz, y),
                self.member_of(y, size_image(self.sig, x.sort)),  # rule (7)
            ])
        return linear_atom(atom, self._int_term)

    def _int_term(self, e: IntExpr) -> RTerm:
        """A flat integer operand: a constant, a variable, or an application
        over such operands, whose arguments are reduced first."""
        if isinstance(e, IntConst):
            return RConst(e.value)
        if isinstance(e, IntVar):
            return self.table.int_var(e.name)
        if isinstance(e, IntApp):
            args = tuple(self._int_term(a) for a in e.args)
            return self.table.app(self.table.uf(e.fn, len(args)), args)
        if isinstance(e, SizeOf) and self.mode != SIZE_MODE:
            raise ModeMismatchError("size atom in depth-mode reduction")
        raise InternalError(f"unexpected int expr {e}; flatten first")

    # -- formula walk ------------------------------------------------------------------

    def reduce_flat(self, flat: FlatFormula) -> ReducedFormula:
        """The reduct of `flat`, closed under the range constraints of its
        variables; Skolems keep clear of every name it declares.

        A formula whose top-level conjuncts begin with the last formula's
        (by identity), as each round of the unfolding loop's does, gets the
        last reduct's parts, then the reductions of its new conjuncts, then
        the range rows of its new variables: its reduct extends the last one
        by a suffix, and costs the reduction of only what it adds.  A new
        conjunct that guards a variable (a one-constructor case clause)
        changes the guard set, and then every conjunct part is reduced again
        in place, through the literal memo.  Any other formula starts anew,
        with its conjuncts' reductions before every range row."""
        self.used.update(flat.var_sorts)
        self.used.update(flat.int_vars)
        table = self.table
        phi = flat.formula
        conjuncts = phi.args if isinstance(phi, And) else (phi,)
        n = len(self.conjuncts)
        if n > len(conjuncts) or any(a is not b for a, b in zip(self.conjuncts, conjuncts)):
            self.conjuncts, self.parts, self.ranged, self.guards = [], [], set(), frozenset()
            n = 0
        new = conjuncts[n:]
        guards = self.guards.union(v for c in new for v in _guard_vars(c))
        if guards != self.guards:
            self.guards = guards
            self.parts = [(c, part if c is None else self.reduce_formula(c, guards))
                          for c, part in self.parts]
        for c in new:
            self.conjuncts.append(c)
            self.parts.append((c, self.reduce_formula(c, guards)))
        for name, sort in flat.var_sorts.items():
            if name not in self.ranged:
                self.ranged.add(name)
                self.parts.append((None, self.in_range(table.adt_var(name, sort), sort)))
        for name in sorted(flat.int_vars):
            table.int_var(name)
        return ReducedFormula(rand([part for _, part in self.parts]), table, flat)

    def reduce_formula(self, phi: Formula, guards: frozenset[str] = frozenset()) -> RFormula:
        """The reduct of `phi` under the variables its context guards.  A
        literal gets `guards` itself (the variables a literal guards never
        decide whether rule (2') applies to it), and a conjunction a new set
        only when a conjunct guards a variable not in `guards` yet, so the
        literals of one conjunction share one set."""
        if isinstance(phi, TrueF):
            return RTRUE
        if isinstance(phi, FalseF):
            return RFALSE
        if isinstance(phi, And):
            new = [v for child in phi.args for v in _guard_vars(child) if v not in guards]
            g = guards.union(new) if new else guards
            return rand([self.reduce_formula(a, g) for a in phi.args])
        if isinstance(phi, Or):
            return ror([self.reduce_formula(a, guards) for a in phi.args])
        return self.reduce_literal(phi, guards)


def _guard_vars(lit: Formula) -> list[str]:
    """Variables guarded by this literal: tested variables and constructor-literal
    result variables."""
    if isinstance(lit, Tester) and isinstance(lit.arg, Var):
        return [lit.arg.name]
    if isinstance(lit, Not) and isinstance(lit.arg, Tester) and isinstance(lit.arg.arg, Var):
        return [lit.arg.arg.name]
    if isinstance(lit, Eq) and isinstance(lit.lhs, Ctor) and isinstance(lit.rhs, Var):
        return [lit.rhs.name]
    return []


def _new_table(sig: Signature, opt: bool) -> SymbolTable:
    """An empty symbol table for reducts of `sig`; with `opt`, its
    enumeration sorts map to constructor indices."""
    ensure_valid(sig)
    return SymbolTable(sig, enum_sorts=frozenset(
        s for s in sig.sorts if opt and sig.is_enum(s)))


def reduce(flat: FlatFormula, sig: Signature, mode: str = DEPTH_MODE,
           opt: bool = True, reducer: Reducer | None = None) -> ReducedFormula:
    """Rewrite a flat NNF formula to an equisatisfiable EUF+LIA formula and
    close it under the per-variable range constraints.  A `reducer` made for
    the same signature, mode and `opt` is reused with its memo and symbol
    table; without one, a fresh reducer is made."""
    return (reducer or Reducer(sig, mode, opt)).reduce_flat(flat)


def reduce_partitions(parts: list[tuple[str, FlatFormula]], sig: Signature,
                      opt: bool = True) -> list[ReducedFormula]:
    """Reduce tagged formulas in size mode against one shared symbol table;
    the fresh and Skolem symbols of part `tag` are named `_s<tag>N`, so they
    stay local to it (interpolation reduces its two partitions this way)."""
    table = _new_table(sig, opt)
    all_names = set()
    for _, flat in parts:
        all_names.update(flat.var_sorts)
        all_names.update(flat.int_vars)
    out = []
    for tag, flat in parts:
        red = Reducer(sig, SIZE_MODE, opt, table, f"_s{tag.lower()}")
        red.used.update(all_names)
        out.append(red.reduce_flat(flat))
    return out


# -- UTVPI shape check -----------------------------------------------------------------

def is_utvpi(reduct: ReducedFormula) -> bool:
    """Every arithmetic atom has at most two operands with unit coefficients."""
    for lit in iter_literals(reduct.formula):
        if isinstance(lit, RLin):
            if len(lit.terms) > 2 or any(abs(c) != 1 for c, _ in lit.terms):
                return False
    return True


# -- walks the solver shares ------------------------------------------------------------

def _var_occurrences(f: RFormula, counts: dict[str, int]):
    def term(t: RTerm):
        if isinstance(t, RVar):
            counts[t.name] = counts.get(t.name, 0) + 1
        elif isinstance(t, RApp):
            for a in t.args:
                term(a)

    if isinstance(f, REq):
        term(f.lhs)
        term(f.rhs)
    elif isinstance(f, RLin):
        for _, t in f.terms:
            term(t)
    elif isinstance(f, (RAnd, ROr)):
        for a in f.args:
            _var_occurrences(a, counts)


def _top_conjuncts(f: RFormula) -> list[RFormula]:
    if isinstance(f, RAnd):
        return list(f.args)
    if isinstance(f, RTrueF):
        return []
    return [f]
