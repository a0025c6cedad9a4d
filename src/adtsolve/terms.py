"""Core term, formula, and integer-expression ASTs.

Terms are constructor terms over an ADT signature extended with variables
and selector applications; formulas combine testers, equalities, Boolean
structure, and Presburger atoms over term sizes.  All nodes are immutable
and hashable, and slotted: an instance holds its fields and no `__dict__`
(a `Ctor` also its cached hash).  The parser interns the symbols it reads,
so the names in a script's nodes are one string each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


# -- terms -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True, slots=True)
class Ctor:
    ctor: str
    args: tuple["Term", ...] = ()
    # cached: model terms nest as deep as the input's chains
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ctor, self.args))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class Sel:
    ctor: str
    index: int
    arg: "Term"


Term = Union[Var, Ctor, Sel]


# -- integer expressions -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IntConst:
    value: int


@dataclass(frozen=True, slots=True)
class IntVar:
    name: str


@dataclass(frozen=True, slots=True)
class SizeOf:
    arg: Term


@dataclass(frozen=True, slots=True)
class IntAdd:
    args: tuple["IntExpr", ...]


@dataclass(frozen=True, slots=True)
class IntMul:
    coeff: int
    arg: "IntExpr"


@dataclass(frozen=True, slots=True)
class IntApp:
    """Uninterpreted integer function application."""

    fn: str
    args: tuple["IntExpr", ...]


IntExpr = Union[IntConst, IntVar, SizeOf, IntAdd, IntMul, IntApp]


# -- formulas ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Tester:
    ctor: str
    arg: Term


@dataclass(frozen=True, slots=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    args: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    args: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class TrueF:
    pass


@dataclass(frozen=True, slots=True)
class FalseF:
    pass


SIZE_OPS = ("eq", "ne", "le", "lt", "ge", "gt")

NEGATED_OP = {"eq": "ne", "ne": "eq", "le": "gt", "gt": "le", "lt": "ge", "ge": "lt"}


@dataclass(frozen=True, slots=True)
class SizeAtom:
    """Comparison of two linear integer expressions (a Presburger atom)."""

    op: str
    lhs: IntExpr
    rhs: IntExpr

    def __post_init__(self):
        assert self.op in SIZE_OPS


Formula = Union[Tester, Eq, Not, And, Or, TrueF, FalseF, SizeAtom]

TRUE = TrueF()
FALSE = FalseF()


def conj(args) -> Formula:
    args = tuple(args)
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(args)


def disj(args) -> Formula:
    args = tuple(args)
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(args)


# -- models --------------------------------------------------------------------

@dataclass
class AdtModel:
    """Assignment of ground constructor terms to ADT variables and ints to
    integer variables.

    `selector_overrides` records the model's choice for selectors applied to
    wrong-headed terms, keyed by (ctor, index, ground argument term); absent
    keys fall back to the fixed default-witness policy of `semantics.evaluate`.
    `funcs` holds the graph of every uninterpreted integer function; an
    argument tuple outside the graph maps to 0.
    """

    adt: dict[str, Term] = field(default_factory=dict)
    ints: dict[str, int] = field(default_factory=dict)
    selector_overrides: dict[tuple[str, int, Term], Term] = field(default_factory=dict)
    funcs: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)


# -- structural helpers ----------------------------------------------------------

def ground_size(t: Term) -> int:
    """Number of constructor occurrences in a ground constructor term."""
    assert isinstance(t, Ctor)
    return 1 + sum(ground_size(a) for a in t.args)


@dataclass(frozen=True, slots=True)
class FreeVars:
    adt: frozenset[Var]
    ints: frozenset[str]


def free_vars(phi: Formula) -> FreeVars:
    """The ADT variables and the integer variables of a formula, met in
    preorder, left to right, on one explicit stack (a term nested
    thousands deep is walked under the default recursion limit)."""
    adt: set[Var] = set()
    ints: set[str] = set()
    stack: list = [phi]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is Var:
            adt.add(x)
        elif kind is IntVar:
            ints.add(x.name)
        elif kind in _NARY:
            stack.extend(reversed(x.args))
        elif kind in _UNARY:
            stack.append(x.arg)
        elif kind is Eq or kind is SizeAtom:
            stack.append(x.rhs)
            stack.append(x.lhs)
        elif kind not in _LEAVES:
            raise AssertionError(x)
    return FreeVars(frozenset(adt), frozenset(ints))


# the node kinds `free_vars` walks through, by where their children are
_NARY = frozenset({Ctor, And, Or, IntAdd, IntApp})
_UNARY = frozenset({Sel, Tester, Not, SizeOf, IntMul})
_LEAVES = frozenset({TrueF, FalseF, IntConst})


def formula_nodes(phi: Formula) -> int:
    """Node count used by the blow-up statistics."""

    def ie(e: IntExpr) -> int:
        if isinstance(e, (IntConst, IntVar)):
            return 1
        if isinstance(e, SizeOf):
            return 1 + tn(e.arg)
        if isinstance(e, IntMul):
            return 1 + ie(e.arg)
        return 1 + sum(ie(a) for a in e.args)

    def tn(t: Term) -> int:
        if isinstance(t, Var):
            return 1
        if isinstance(t, Sel):
            return 1 + tn(t.arg)
        return 1 + sum(tn(a) for a in t.args)

    if isinstance(phi, (TrueF, FalseF)):
        return 1
    if isinstance(phi, Tester):
        return 1 + tn(phi.arg)
    if isinstance(phi, Eq):
        return 1 + tn(phi.lhs) + tn(phi.rhs)
    if isinstance(phi, SizeAtom):
        return 1 + ie(phi.lhs) + ie(phi.rhs)
    if isinstance(phi, Not):
        return 1 + formula_nodes(phi.arg)
    return 1 + sum(formula_nodes(a) for a in phi.args)
