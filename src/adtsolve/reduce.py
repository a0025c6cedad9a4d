"""Reduction of flat ADT formulas to EUF+LIA.

Constructor, selector, tester, and equality literals rewrite into constraints
over integer variables and uninterpreted integer functions: one function per
constructor and selector, plus per-sort head-index functions and either a
depth function (depth mode) or a size function (size mode).  Depth rows
`depth(x0) > depth(xj)` are emitted only for constructor arguments inside the
result sort's strongly connected component of the sort graph, the only place
a cyclic term can close (see `Reducer.ctor_spec`).  Internal
existentials are Skolemized with fresh constants.  Two optimizations are
available: guarded selector literals drop their head-case disjunction, and
enumeration sorts map constructors straight to their indices.

A `Reducer` memoises each literal's reduction, so one reducer kept across the
rounds of the unfolding loop reduces only each round's new case clause.

A lightweight equisatisfiability-preserving simplifier (constant propagation,
ground folding, single-use fresh-variable elimination) serves `emit`; its
trace allows models of the simplified formula to be completed back to models
of the original reduct.
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
    IntVar, Not, Or, Sel, SizeAtom, SizeOf, Tester, TrueF, Var,
)

DEPTH_MODE = "depth"
SIZE_MODE = "size"


# -- reduced (EUF+LIA) AST -----------------------------------------------------

@dataclass(frozen=True)
class RVar:
    name: str


@dataclass(frozen=True)
class RConst:
    value: int


@dataclass(frozen=True)
class RApp:
    fn: str
    args: tuple["RTerm", ...]

    def __hash__(self):
        # cached: these trees nest deeply and hash constantly in the solver
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.fn, self.args))
            object.__setattr__(self, "_hash", h)
        return h


RTerm = Union[RVar, RConst, RApp]


@dataclass(frozen=True)
class REq:
    lhs: RTerm
    rhs: RTerm


@dataclass(frozen=True)
class RNot:
    arg: "REq"


@dataclass(frozen=True)
class RLin:
    """sum(coeff * term) + const OP 0, with OP in {'le', 'eq', 'ne'}."""

    op: str
    terms: tuple[tuple[int, RTerm], ...]
    const: int


@dataclass(frozen=True)
class RAnd:
    args: tuple["RFormula", ...]


@dataclass(frozen=True)
class ROr:
    args: tuple["RFormula", ...]


@dataclass(frozen=True)
class RTrueF:
    pass


@dataclass(frozen=True)
class RFalseF:
    pass


RFormula = Union[REq, RNot, RLin, RAnd, ROr, RTrueF, RFalseF]

RTRUE = RTrueF()
RFALSE = RFalseF()


def rand(args) -> RFormula:
    flat = []
    for a in args:
        if isinstance(a, RTrueF):
            continue
        if isinstance(a, RFalseF):
            return RFALSE
        if isinstance(a, RAnd):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return RTRUE
    if len(flat) == 1:
        return flat[0]
    return RAnd(tuple(flat))


def ror(args) -> RFormula:
    flat = []
    for a in args:
        if isinstance(a, RFalseF):
            continue
        if isinstance(a, RTrueF):
            return RTRUE
        if isinstance(a, ROr):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return RFALSE
    if len(flat) == 1:
        return flat[0]
    return ROr(tuple(flat))


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
    if lhs == rhs:
        return RFALSE
    if isinstance(lhs, RConst) and isinstance(rhs, RConst):
        return RTRUE if lhs.value != rhs.value else RFALSE
    return RNot(REq(lhs, rhs))


def rformula_nodes(f: RFormula) -> int:
    def tn(t: RTerm) -> int:
        if isinstance(t, RApp):
            return 1 + sum(tn(a) for a in t.args)
        return 1

    if isinstance(f, (RTrueF, RFalseF)):
        return 1
    if isinstance(f, REq):
        return 1 + tn(f.lhs) + tn(f.rhs)
    if isinstance(f, RNot):
        return 1 + rformula_nodes(f.arg)
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
    """Maps every reduced symbol back to its source."""

    sig: Signature
    mode: str
    int_vars: dict[str, tuple] = field(default_factory=dict)  # name -> origin
    funs: dict[str, tuple[int, tuple]] = field(default_factory=dict)  # name -> (arity, origin)
    enum_sorts: frozenset[str] = frozenset()

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
        return RVar(name)

    def int_var(self, name: str) -> RVar:
        if name not in self.int_vars:
            self.int_vars[name] = ("int", name)
        return RVar(name)

    def skolem(self, name: str, sort: str) -> RVar:
        self.int_vars[name] = ("skolem", sort)
        return RVar(name)

    def aux(self, name: str) -> RVar:
        self.int_vars[name] = ("aux",)
        return RVar(name)

    def _fun(self, base: str, arity: int, origin: tuple) -> str:
        for name, (a, o) in self.funs.items():
            if o == origin:
                return name
        name = self._alloc(base)
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


@dataclass(frozen=True)
class ReduceOptions:
    guarded_opt: bool = True
    enum_opt: bool = True

    @staticmethod
    def none() -> "ReduceOptions":
        return ReduceOptions(False, False)

    def guarded(self, lit: Formula, guards: frozenset[str]) -> bool:
        """Whether rule (2') applies to this literal in this context: a
        selector equation over a variable in `guards`."""
        return (self.guarded_opt and isinstance(lit, Eq)
                and isinstance(lit.lhs, Sel) and isinstance(lit.lhs.arg, Var)
                and lit.lhs.arg.name in guards)


@dataclass
class ReducedFormula:
    formula: RFormula
    table: SymbolTable
    flat: FlatFormula
    trace: tuple = ()
    base: "ReducedFormula | None" = None


# -- the reducer ---------------------------------------------------------------------

class Reducer:
    """Reduces flat formulas literal by literal, memoising each literal's
    reduction per guard context.  One reducer kept across calls of `reduce`
    on growing formulas, as the unfolding loop does, returns the old
    literals' reductions, Skolems included, and reduces only the new ones."""

    def __init__(self, sig: Signature, mode: str, opts: ReduceOptions = ReduceOptions(),
                 table: SymbolTable | None = None, fresh_prefix: str = "_s"):
        self.sig = sig
        self.mode = mode
        self.opts = opts
        self.table = table if table is not None else _new_table(sig, mode, opts)
        self.fresh_prefix = fresh_prefix
        self.counter = 0
        self.aux_counter = 0
        self.memo: dict[tuple[Formula, bool], RFormula] = {}
        self.used: set[str] = set()

    def _fresh_skolem(self, sort: str) -> RVar:
        while True:
            self.counter += 1
            name = f"{self.fresh_prefix}{self.counter}"
            if name not in self.used and name not in self.table.int_vars:
                self.used.add(name)
                return self.table.skolem(name, sort)

    def _fresh_aux(self) -> RVar:
        while True:
            self.aux_counter += 1
            name = f"{self.fresh_prefix}k{self.aux_counter}"
            if name not in self.used and name not in self.table.int_vars:
                self.used.add(name)
                return self.table.aux(name)

    # -- symbol shorthands ----------------------------------------------------

    def xvar(self, v: Var) -> RVar:
        return self.table.adt_var(v.name, v.sort)

    def is_enum_opt(self, sort: str) -> bool:
        return self.opts.enum_opt and self.sig.is_enum(sort)

    def in_range(self, x: RTerm, sort: str) -> RFormula:
        card = cardinality(self.sig, sort)
        if not card.is_finite:
            return RTRUE
        return rand([
            lin("le", [(-1, x)], 0),                       # 0 <= x
            lin("le", [(1, x)], -(card.count - 1)),        # x <= |T|-1
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
                k = self._fresh_aux()
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
        if self.is_enum_opt(sort0):
            return req(x0, RConst(ctor_index(self.sig, f)))
        parts: list[RFormula] = [
            req(RApp(self.table.ctor_fun(f), tuple(args)), x0),
            req(RApp(self.table.ctorid_fun(sort0), (x0,)), RConst(ctor_index(self.sig, f))),
        ]
        if self.mode == DEPTH_MODE:
            for j, xj in enumerate(args):
                sj = decl.args[j][1]
                parts.append(req(RApp(self.table.sel_fun(f, j), (x0,)), xj))
                if sort0 in reachable_sorts(self.sig, sj):
                    d0 = RApp(self.table.depth_fun(sort0), (x0,))
                    dj = RApp(self.table.depth_fun(sj), (xj,))
                    parts.append(lin("le", [(-1, d0), (1, dj)], 1))  # depth0 > depthj
        else:
            s0 = RApp(self.table.size_fun(sort0), (x0,))
            size_sum: list[tuple[int, RTerm]] = [(1, s0)]
            for j, xj in enumerate(args):
                sj = decl.args[j][1]
                parts.append(req(RApp(self.table.sel_fun(f, j), (x0,)), xj))
                sz = RApp(self.table.size_fun(sj), (xj,))
                parts.append(self.member_of(sz, size_image(self.sig, sj)))
                size_sum.append((-1, sz))
            parts.append(lin("eq", size_sum, -1))  # size0 = 1 + sum sizej
        return rand(parts)

    def ex_ctor_spec(self, g: str, x: RTerm) -> RFormula:
        decl = self.sig.ctor(g)
        if self.is_enum_opt(decl.sort):
            return req(x, RConst(ctor_index(self.sig, g)))
        fresh = [self._fresh_skolem(arg_sort) for _, arg_sort in decl.args]
        parts = [self.in_range(v, arg_sort)
                 for v, (_, arg_sort) in zip(fresh, decl.args)]
        parts.append(self.ctor_spec(g, x, list(fresh)))
        return rand(parts)

    # -- literal reduction ----------------------------------------------------------

    def reduce_literal(self, lit: Formula, guards: frozenset[str]) -> RFormula:
        guarded = self.opts.guarded(lit, guards)
        key = (lit, guarded)
        if key in self.memo:
            return self.memo[key]
        out = self._reduce_literal(lit, guarded)
        self.memo[key] = out
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
            sel_eq = req(RApp(self.table.sel_fun(lhs.ctor, lhs.index), (x,)), x0)
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
            if self.is_enum_opt(sort):
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
            sz = RApp(self.table.size_fun(x.sort), (self.xvar(x),))
            return rand([
                req(sz, y),
                self.member_of(y, size_image(self.sig, x.sort)),  # rule (7)
            ])
        return linear_atom(atom, self._int_leaf)

    def _int_leaf(self, e: IntExpr) -> RTerm:
        if isinstance(e, IntVar):
            return self.table.int_var(e.name)
        if isinstance(e, IntApp):
            args = tuple(self._int_term(a) for a in e.args)
            return RApp(self.table.uf(e.fn, len(args)), args)
        if isinstance(e, SizeOf):
            if self.mode != SIZE_MODE:
                raise ModeMismatchError("size atom in depth-mode reduction")
            raise InternalError("size-of outside a definition literal; flatten first")
        raise InternalError(f"unexpected int expr {e}")

    def _int_term(self, e: IntExpr) -> RTerm:
        if isinstance(e, IntConst):
            return RConst(e.value)
        if isinstance(e, IntVar):
            return self.table.int_var(e.name)
        if isinstance(e, IntApp):
            return RApp(self.table.uf(e.fn, len(e.args)),
                        tuple(self._int_term(a) for a in e.args))
        raise InternalError("uninterpreted application argument must be flat")

    # -- formula walk ------------------------------------------------------------------

    def reduce_flat(self, flat: FlatFormula) -> ReducedFormula:
        """The reduct of `flat`, closed under the range constraints of its
        variables; Skolems keep clear of every name it declares."""
        self.used.update(flat.var_sorts)
        self.used.update(flat.int_vars)
        table = self.table
        body = self.reduce_formula(flat.formula)
        ranges = [self.in_range(table.adt_var(name, sort), sort)
                  for name, sort in flat.var_sorts.items()]
        for name in sorted(flat.int_vars):
            table.int_var(name)
        return ReducedFormula(rand([body] + ranges), table, flat)

    def reduce_formula(self, phi: Formula, guards: frozenset[str] = frozenset()) -> RFormula:
        if isinstance(phi, TrueF):
            return RTRUE
        if isinstance(phi, FalseF):
            return RFALSE
        if isinstance(phi, And):
            local = set(guards)
            for child in phi.args:
                local.update(_guard_vars(child))
            g = frozenset(local)
            return rand([self.reduce_formula(a, g) for a in phi.args])
        if isinstance(phi, Or):
            return ror([self.reduce_formula(a, guards) for a in phi.args])
        extra = guards | frozenset(_guard_vars(phi))
        return self.reduce_literal(phi, extra)


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


def _new_table(sig: Signature, mode: str, opts: ReduceOptions) -> SymbolTable:
    """An empty symbol table for reducts of `sig` in `mode`."""
    ensure_valid(sig)
    if mode not in (DEPTH_MODE, SIZE_MODE):
        raise InternalError(f"unknown mode {mode!r}")
    enum_sorts = frozenset(s for s in sig.sorts if sig.is_enum(s)) if opts.enum_opt \
        else frozenset()
    return SymbolTable(sig, mode, enum_sorts=enum_sorts)


def reduce(flat: FlatFormula, sig: Signature, mode: str = DEPTH_MODE,
           opts: ReduceOptions = ReduceOptions(),
           reducer: Reducer | None = None) -> ReducedFormula:
    """Rewrite a flat NNF formula to an equisatisfiable EUF+LIA formula and
    close it under the per-variable range constraints.  A `reducer` made for
    the same signature, mode and options is reused with its memo and symbol
    table; without one, a fresh reducer is made."""
    return (reducer or Reducer(sig, mode, opts)).reduce_flat(flat)


def reduce_partitions(parts: list[tuple[str, FlatFormula]], sig: Signature,
                      mode: str = SIZE_MODE,
                      opts: ReduceOptions = ReduceOptions()) -> list[ReducedFormula]:
    """Reduce tagged formulas against one shared symbol table; the fresh and
    Skolem symbols of part `tag` are named `_s<tag>N`, so they stay local to
    it (interpolation reduces its two partitions this way)."""
    table = _new_table(sig, mode, opts)
    all_names = set()
    for _, flat in parts:
        all_names.update(flat.var_sorts)
        all_names.update(flat.int_vars)
    out = []
    for tag, flat in parts:
        red = Reducer(sig, mode, opts, table, f"_s{tag.lower()}")
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


# -- simplification ----------------------------------------------------------------------

def _subst_rterm(t: RTerm, env: dict[str, RTerm]) -> RTerm:
    if isinstance(t, RVar):
        return env.get(t.name, t)
    if isinstance(t, RApp):
        return RApp(t.fn, tuple(_subst_rterm(a, env) for a in t.args))
    return t


def _subst(f: RFormula, env: dict[str, RTerm]) -> RFormula:
    if isinstance(f, (RTrueF, RFalseF)):
        return f
    if isinstance(f, REq):
        return req(_subst_rterm(f.lhs, env), _subst_rterm(f.rhs, env))
    if isinstance(f, RNot):
        return rne(_subst_rterm(f.arg.lhs, env), _subst_rterm(f.arg.rhs, env))
    if isinstance(f, RLin):
        return lin(f.op, [(c, _subst_rterm(t, env)) for c, t in f.terms], f.const)
    if isinstance(f, RAnd):
        return rand([_subst(a, env) for a in f.args])
    return ror([_subst(a, env) for a in f.args])


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
    elif isinstance(f, RNot):
        _var_occurrences(f.arg, counts)
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


def _dedup(f: RFormula) -> RFormula:
    if isinstance(f, (RAnd, ROr)):
        seen, out = set(), []
        for a in f.args:
            a = _dedup(a)
            # a child that collapsed to the parent's connective is spliced in
            # (as rand/ror would), so its duplicates are caught here too
            for b in a.args if type(a) is type(f) else (a,):
                if b not in seen:
                    seen.add(b)
                    out.append(b)
        return rand(out) if isinstance(f, RAnd) else ror(out)
    return f


def _vars_of_rterm(t: RTerm) -> set[str]:
    if isinstance(t, RVar):
        return {t.name}
    if isinstance(t, RApp):
        out: set[str] = set()
        for a in t.args:
            out |= _vars_of_rterm(a)
        return out
    return set()


def _droppable_for(lit: RFormula, v: str) -> bool:
    """Can `exists v. lit` be discharged to true regardless of the other vars?"""
    if isinstance(lit, REq):
        for side, other in ((lit.lhs, lit.rhs), (lit.rhs, lit.lhs)):
            if isinstance(side, RVar) and side.name == v and v not in _vars_of_rterm(other):
                return True
        return False
    if isinstance(lit, RNot):
        eq = lit.arg
        for side, other in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if isinstance(side, RVar) and side.name == v and v not in _vars_of_rterm(other):
                return True
        return False
    if isinstance(lit, RLin):
        coeff = None
        for c, t in lit.terms:
            if isinstance(t, RVar) and t.name == v:
                coeff = c
            elif v in _vars_of_rterm(t):
                return False
        if coeff is None:
            return False
        if lit.op == "eq":
            return abs(coeff) == 1
        return True  # le / ne always have an integer solution for v
    return False


def simplify(reduct: ReducedFormula) -> ReducedFormula:
    """Equisatisfiable simplification; idempotent.  The trace records variable
    substitutions and dropped single-use definitions so that models of the
    simplified reduct can be completed to models of the original."""
    fresh = {name for name, origin in reduct.table.int_vars.items()
             if origin[0] in ("skolem", "aux")}
    fresh.update(reduct.flat.registry.keys())
    trace = list(reduct.trace)
    f = _dedup(reduct.formula)
    for _ in range(100):
        changed = False
        # constant / representative propagation from top-level equalities
        env: dict[str, RTerm] = {}

        def resolve(t: RTerm) -> RTerm:
            while isinstance(t, RVar) and t.name in env:
                t = env[t.name]
            return t

        for c in _top_conjuncts(f):
            a = b = None
            if isinstance(c, REq):
                a, b = resolve(c.lhs), resolve(c.rhs)
            elif isinstance(c, RLin) and c.op == "eq" and len(c.terms) == 1 \
                    and abs(c.terms[0][0]) == 1:
                coeff, t = c.terms[0]
                a, b = resolve(t), RConst(-c.const // coeff)
            if a is None or a == b:
                continue
            if isinstance(a, RVar) and isinstance(b, RConst):
                env[a.name] = b
            elif isinstance(b, RVar) and isinstance(a, RConst):
                env[b.name] = a
            elif isinstance(a, RVar) and isinstance(b, RVar):
                if a.name in fresh:
                    env[a.name] = b
                elif b.name in fresh:
                    env[b.name] = a
        if env:
            f2 = _dedup(_subst(f, env))
            if f2 != f:
                f = f2
                for name, val in env.items():
                    trace.append(("subst", name, val))
                changed = True
        # single-use fresh-variable elimination
        counts: dict[str, int] = {}
        _var_occurrences(f, counts)
        single = {v for v, n in counts.items() if n == 1 and v in fresh}
        if single:
            def drop(g: RFormula) -> RFormula:
                if isinstance(g, RAnd):
                    out = []
                    for a in g.args:
                        a2 = drop(a)
                        if isinstance(a2, RTrueF):
                            continue
                        out.append(a2)
                    return rand(out)
                if isinstance(g, ROr):
                    return ror([drop(a) for a in g.args])
                for v in list(single):
                    if _droppable_for(g, v):
                        trace.append(("dropped", v, g))
                        single.discard(v)
                        return RTRUE
                return g

            f2 = drop(f)
            if f2 != f:
                # a conjunction that lost its definitions may collapse into
                # its parent's connective and duplicate a sibling there
                f = _dedup(f2)
                changed = True
        if not changed:
            break
    return ReducedFormula(f, reduct.table, reduct.flat, trace=tuple(trace),
                          base=reduct.base or reduct)
