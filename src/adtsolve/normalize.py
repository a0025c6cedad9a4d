"""Negation normal form and flattening.

A flat formula has constructors and selectors only in positive equations
between variables, `g(x1,...,xn) = x0`, and term sizes only in definition
literals `|x| = y` with `y` an integer variable.  Each distinct non-variable
subterm is named by one fresh variable `_tN` (hash-consed), with the defining
equation attached at the literal where the subterm occurs.  Arguments of
uninterpreted functions are constants, variables or applications; a compound
one is named by a fresh integer variable in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalError
from .signature import Signature
from .terms import (
    And, Ctor, Eq, FALSE, FalseF, Formula, IntAdd, IntApp, IntConst, IntExpr,
    IntMul, IntVar, NEGATED_OP, Not, Or, Sel, SizeAtom, SizeOf, TRUE, Term,
    TrueF, Tester, Var, conj, free_vars, splice,
)


def to_nnf(phi: Formula) -> Formula:
    """Push negations to literals; nested conjunctions/disjunctions are spliced."""

    def pos(f: Formula) -> Formula:
        if isinstance(f, And):
            return splice(And, [pos(a) for a in f.args], TRUE, FALSE)
        if isinstance(f, Or):
            return splice(Or, [pos(a) for a in f.args], FALSE, TRUE)
        if isinstance(f, Not):
            return neg(f.arg)
        return f

    def neg(f: Formula) -> Formula:
        if isinstance(f, And):
            return splice(Or, [neg(a) for a in f.args], FALSE, TRUE)
        if isinstance(f, Or):
            return splice(And, [neg(a) for a in f.args], TRUE, FALSE)
        if isinstance(f, Not):
            return pos(f.arg)
        if isinstance(f, TrueF):
            return FALSE
        if isinstance(f, FalseF):
            return TRUE
        if isinstance(f, SizeAtom):
            return SizeAtom(NEGATED_OP[f.op], f.lhs, f.rhs)
        # negated testers and equalities stay literal
        return Not(f)

    return pos(phi)


@dataclass
class FlatFormula:
    formula: Formula
    registry: dict[str, object] = field(default_factory=dict)  # fresh -> Term | SizeOf | IntExpr
    var_sorts: dict[str, str] = field(default_factory=dict)    # every ADT var -> sort
    int_vars: set[str] = field(default_factory=set)            # every integer var


class _Flattener:
    def __init__(self, sig: Signature, prefix: str = "_t"):
        self.sig = sig
        self.counter = 0
        self.prefix = prefix
        self.named: dict[Term, str] = {}  # a flat application -> its name
        self.size_vars: dict[str, str] = {}
        self.registry: dict[str, object] = {}
        self.var_sorts: dict[str, str] = {}
        self.int_vars: set[str] = set()
        self.used_names: set[str] = set()

    def fresh(self) -> str:
        while True:
            self.counter += 1
            name = f"{self.prefix}{self.counter}"
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    def name_term(self, t: Term, defs: dict[Formula, None]) -> Var:
        """Reduce an arbitrary term to a variable.  Names are hash-consed
        across the whole formula, but the defining equation is attached to
        every literal that uses the name: a definition emitted in one disjunct
        cannot serve another.  The subterms are named children first, left to
        right, on one explicit stack, and a subterm's name is keyed by its
        application to its children's names, so equal subterms share a name
        and no walk, hash or comparison goes deeper than one level."""
        if isinstance(t, Var):
            return t
        named: list[Var] = []  # the variables of the subterms finished so far
        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            u, children_done = stack.pop()
            if isinstance(u, Var):
                named.append(u)
                continue
            children = u.args if isinstance(u, Ctor) else (u.arg,)
            if not children_done:
                stack.append((u, True))
                stack.extend((c, False) for c in reversed(children))
                continue
            first = len(named) - len(children)
            args = tuple(named[first:])
            del named[first:]
            if isinstance(u, Ctor):
                app: Term = Ctor(u.ctor, args)
            else:
                app = Sel(u.ctor, u.index, args[0])
            sort = self.sig.term_sort(u)
            name = self.named.get(app)
            if name is None:
                name = self.named[app] = self.fresh()
                self.registry[name] = u
                self.var_sorts[name] = sort
            v = Var(name, sort)
            defs[Eq(app, v)] = None
            named.append(v)
        return named[0]

    def flat_eq(self, lhs: Term, rhs: Term, defs: dict[Formula, None]) -> Formula:
        """Positive equality: keep one application as the literal."""
        if isinstance(lhs, Var) and isinstance(rhs, Var):
            return Eq(lhs, rhs)
        if isinstance(rhs, Var):
            lhs, rhs = rhs, lhs
        if isinstance(lhs, Var):
            # rhs is an application: flatten its arguments only
            if isinstance(rhs, Ctor):
                args = tuple(self.name_term(a, defs) for a in rhs.args)
                return Eq(Ctor(rhs.ctor, args), lhs)
            assert isinstance(rhs, Sel)
            return Eq(Sel(rhs.ctor, rhs.index, self.name_term(rhs.arg, defs)), lhs)
        # both applications: name the right side fully, keep the left as literal
        rv = self.name_term(rhs, defs)
        return self.flat_eq(lhs, rv, defs)

    def flat_int(self, e: IntExpr, defs: dict[Formula, None]) -> IntExpr:
        if isinstance(e, (IntConst, IntVar)):
            if isinstance(e, IntVar):
                self.int_vars.add(e.name)
            return e
        if isinstance(e, SizeOf):
            x = self.name_term(e.arg, defs)
            if x.name not in self.size_vars:
                y = self.fresh()
                self.size_vars[x.name] = y
                self.int_vars.add(y)
                self.registry[y] = SizeOf(x)
            defs[SizeAtom("eq", SizeOf(x), IntVar(self.size_vars[x.name]))] = None
            return IntVar(self.size_vars[x.name])
        if isinstance(e, IntAdd):
            return IntAdd(tuple(self.flat_int(a, defs) for a in e.args))
        if isinstance(e, IntMul):
            return IntMul(e.coeff, self.flat_int(e.arg, defs))
        if isinstance(e, IntApp):
            return IntApp(e.fn, tuple(self.flat_arg(a, defs) for a in e.args))
        raise AssertionError(e)

    def flat_arg(self, e: IntExpr, defs: dict[Formula, None]) -> IntExpr:
        """A function argument: a compound one is named by a fresh integer
        variable `y` with the definition `y = e`."""
        e = self.flat_int(e, defs)
        if isinstance(e, (IntConst, IntVar, IntApp)):
            return e
        y = self.fresh()
        self.int_vars.add(y)
        self.registry[y] = e
        defs[SizeAtom("eq", IntVar(y), e)] = None
        return IntVar(y)

    def flat_literal(self, lit: Formula) -> Formula:
        defs: dict[Formula, None] = {}  # a set in insertion order
        if isinstance(lit, Eq):
            out = self.flat_eq(lit.lhs, lit.rhs, defs)
        elif isinstance(lit, Not) and isinstance(lit.arg, Eq):
            # negative equality: both sides must become variables
            a = self.name_term(lit.arg.lhs, defs)
            b = self.name_term(lit.arg.rhs, defs)
            out = Not(Eq(a, b))
        elif isinstance(lit, Tester):
            out = Tester(lit.ctor, self.name_term(lit.arg, defs))
        elif isinstance(lit, Not) and isinstance(lit.arg, Tester):
            out = Not(Tester(lit.arg.ctor, self.name_term(lit.arg.arg, defs)))
        elif isinstance(lit, SizeAtom):
            out = SizeAtom(lit.op, self.flat_int(lit.lhs, defs), self.flat_int(lit.rhs, defs))
        else:
            raise InternalError(f"unexpected literal {lit}")
        return conj([*defs, out])

    def flat(self, phi: Formula) -> Formula:
        if isinstance(phi, (TrueF, FalseF)):
            return phi
        if isinstance(phi, And):
            return splice(And, [self.flat(a) for a in phi.args], TRUE, FALSE)
        if isinstance(phi, Or):
            return splice(Or, [self.flat(a) for a in phi.args], FALSE, TRUE)
        return self.flat_literal(phi)


def flatten(phi: Formula, sig: Signature, prefix: str = "_t") -> FlatFormula:
    """Flatten an NNF formula; equisatisfiable with the input."""
    fv = free_vars(phi)
    fl = _Flattener(sig, prefix)
    fl.used_names.update(v.name for v in fv.adt)
    fl.used_names.update(fv.ints)
    for v in sorted(fv.adt, key=lambda v: v.name):
        fl.var_sorts[v.name] = v.sort
    fl.int_vars.update(fv.ints)
    out = fl.flat(phi)
    return FlatFormula(
        formula=out,
        registry=fl.registry,
        var_sorts=fl.var_sorts,
        int_vars=fl.int_vars,
    )


def is_flat(phi: Formula) -> bool:
    """Structural check of the flat-formula invariants."""

    def var(t: Term) -> bool:
        return isinstance(t, Var)

    def ok_int(e: IntExpr) -> bool:
        if isinstance(e, (IntConst, IntVar)):
            return True
        if isinstance(e, SizeOf):
            return False  # sizes allowed only in definition literals
        if isinstance(e, IntMul):
            return ok_int(e.arg)
        if isinstance(e, IntAdd):
            return all(ok_int(a) for a in e.args)
        if isinstance(e, IntApp):
            return all(isinstance(a, (IntConst, IntVar, IntApp)) and ok_int(a)
                       for a in e.args)
        return False

    def walk(f: Formula) -> bool:
        if isinstance(f, (TrueF, FalseF)):
            return True
        if isinstance(f, (And, Or)):
            return all(walk(a) for a in f.args)
        if isinstance(f, Tester):
            return var(f.arg)
        if isinstance(f, Not):
            g = f.arg
            if isinstance(g, Eq):
                return var(g.lhs) and var(g.rhs)
            if isinstance(g, Tester):
                return var(g.arg)
            return False
        if isinstance(f, Eq):
            lhs, rhs = f.lhs, f.rhs
            if not var(rhs):
                return False
            if var(lhs):
                return True
            if isinstance(lhs, Ctor):
                return all(var(a) for a in lhs.args)
            return var(lhs.arg)
        if isinstance(f, SizeAtom):
            if (f.op == "eq" and isinstance(f.lhs, SizeOf) and var(f.lhs.arg)
                    and isinstance(f.rhs, IntVar)):
                return True
            return ok_int(f.lhs) and ok_int(f.rhs)
        return False

    return walk(phi)


def fresh_var_count(flat: FlatFormula) -> int:
    return len(flat.registry)
