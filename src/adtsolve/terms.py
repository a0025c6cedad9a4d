"""Core term, formula, and integer-expression ASTs.

Terms are constructor terms over an ADT signature extended with variables
and selector applications; formulas combine testers, equalities, Boolean
structure, and Presburger atoms over term sizes.  All nodes are `Node`s:
immutable, hashable and slotted, so an instance holds its fields and no
`__dict__` (a `Ctor` also its cached hash).  A `Node` compares, hashes and
prints as a frozen dataclass of the same fields does, but is no dataclass:
`dataclasses` compiles each class's methods with `exec`, which took about
half of the time `import adtsolve` did.  The parser interns the symbols it
reads, so the names in a script's nodes are one string each.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from operator import attrgetter
from typing import Union


class Node:
    """Base of the immutable value classes: terms, formulas, reduced terms
    and the signature's declarations.  A subclass lists its fields in
    `__slots__` (a slot whose name starts with `_`, such as a cached hash,
    is no field), and `__init_subclass__` gives it what a frozen dataclass
    of those fields has: `==` and `hash()` over the fields in order and the
    same `repr`, so sets, dicts and printed output are the same, and an
    `__init__` that takes the fields positionally.  A method the class body
    defines is kept; `_init` sets every slot, for an `__init__` of its own.

    Not a dataclass because `dataclasses` compiles each class's methods with
    `exec`, about 1 ms a class when `adtsolve` is imported; these closures
    take microseconds.  Hash-consing of terms would go here."""

    __slots__ = ()

    def __init_subclass__(cls):
        own = cls.__dict__
        fields = cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        init = cls._init = _SETTERS[len(cls.__slots__)](*(own[f].__set__ for f in cls.__slots__))
        init.__qualname__ = f"{cls.__qualname__}._init"  # for argument errors
        if "__init__" not in own:
            cls.__init__ = init
        if len(fields) == 1:
            # a 1-tuple, so that `==` first tests the fields' identity
            one = attrgetter(fields[0])
            key = lambda self: (one(self),)
        else:
            key = attrgetter(*fields) if fields else lambda self: ()
        if "__eq__" not in own:
            def __eq__(self, other):
                if other.__class__ is cls:
                    return key(self) == key(other)
                return NotImplemented
            cls.__eq__ = __eq__
        if "__hash__" not in own:
            cls.__hash__ = lambda self: hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


# `_init` by number of slots, made from the slots' descriptors' `__set__`:
# a closure per arity takes half the time of a loop over the values, and as
# each `__set__` returns None, `or` runs them all, in order, and gives None
_SETTERS = (
    lambda: lambda self: None,
    lambda p: lambda self, a: p(self, a),
    lambda p, q: lambda self, a, b: p(self, a) or q(self, b),
    lambda p, q, r: lambda self, a, b, c: p(self, a) or q(self, b) or r(self, c),
    lambda p, q, r, s: lambda self, a, b, c, d: (
        p(self, a) or q(self, b) or r(self, c) or s(self, d)),
)


# -- terms -------------------------------------------------------------------

class Var(Node):
    __slots__ = ("name", "sort")
    name: str
    sort: str

    # written out, as Node's closures take longer: flattening and the
    # reducer's memos hash variables more than any other node
    def __eq__(self, other):
        if other.__class__ is Var:
            return (self.name, self.sort) == (other.name, other.sort)
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.sort))


class Ctor(Node):
    __slots__ = ("ctor", "args", "_hash")
    ctor: str
    args: tuple["Term", ...]

    def __init__(self, ctor: str, args: tuple["Term", ...] = ()):
        self._init(ctor, args, None)

    # cached, and `==` on an explicit stack: model terms nest as deep as the
    # input's chains
    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ctor, self.args))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if other.__class__ is not Ctor:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not Ctor or b.__class__ is not Ctor:
                if not a == b:
                    return False
            elif (a.ctor != b.ctor or len(a.args) != len(b.args)
                  or a._hash is not None and b._hash is not None and a._hash != b._hash):
                return False
            else:
                stack.extend(zip(reversed(a.args), reversed(b.args)))
        return True


class Sel(Node):
    __slots__ = ("ctor", "index", "arg")
    ctor: str
    index: int
    arg: "Term"


Term = Union[Var, Ctor, Sel]


# -- integer expressions -------------------------------------------------------

class IntConst(Node):
    __slots__ = ("value",)
    value: int


class IntVar(Node):
    __slots__ = ("name",)
    name: str


class SizeOf(Node):
    __slots__ = ("arg",)
    arg: Term


class IntAdd(Node):
    __slots__ = ("args",)
    args: tuple["IntExpr", ...]


class IntMul(Node):
    __slots__ = ("coeff", "arg")
    coeff: int
    arg: "IntExpr"


class IntApp(Node):
    """Uninterpreted integer function application."""

    __slots__ = ("fn", "args")
    fn: str
    args: tuple["IntExpr", ...]


IntExpr = Union[IntConst, IntVar, SizeOf, IntAdd, IntMul, IntApp]


# -- formulas ------------------------------------------------------------------

class Tester(Node):
    __slots__ = ("ctor", "arg")
    ctor: str
    arg: Term


class Eq(Node):
    __slots__ = ("lhs", "rhs")
    lhs: Term
    rhs: Term


class Not(Node):
    __slots__ = ("arg",)
    arg: "Formula"


class And(Node):
    __slots__ = ("args",)
    args: tuple["Formula", ...]


class Or(Node):
    __slots__ = ("args",)
    args: tuple["Formula", ...]


class TrueF(Node):
    __slots__ = ()


class FalseF(Node):
    __slots__ = ()


SIZE_OPS = ("eq", "ne", "le", "lt", "ge", "gt")

NEGATED_OP = {"eq": "ne", "ne": "eq", "le": "gt", "gt": "le", "lt": "ge", "ge": "lt"}


class SizeAtom(Node):
    """Comparison of two linear integer expressions (a Presburger atom)."""

    __slots__ = ("op", "lhs", "rhs")
    op: str
    lhs: IntExpr
    rhs: IntExpr

    def __init__(self, op: str, lhs: IntExpr, rhs: IntExpr):
        assert op in SIZE_OPS
        self._init(op, lhs, rhs)


Formula = Union[Tester, Eq, Not, And, Or, TrueF, FalseF, SizeAtom]

TRUE = TrueF()
FALSE = FalseF()


def splice(kind, parts, unit, absorber):
    """The n-ary `kind` node (`And`, `Or`, or a reduced connective) over
    `parts`: units dropped, the absorber if a part is one, nested `kind`
    nodes spliced in, and a single part or the unit without a node."""
    unit_kind, absorber_kind = unit.__class__, absorber.__class__
    flat = []
    for p in parts:
        k = p.__class__
        if k is kind:
            flat.extend(p.args)
        elif k is absorber_kind:
            return absorber
        elif k is not unit_kind:
            flat.append(p)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


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
    size, stack = 0, [t]
    while stack:
        t = stack.pop()
        assert isinstance(t, Ctor)
        size += 1
        stack.extend(t.args)
    return size


class FreeVars(Node):
    __slots__ = ("adt", "ints")
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
