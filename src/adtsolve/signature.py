"""ADT signatures and their static analyses.

A signature is an ordered list of sorts plus a global ordered list of
constructors with named, typed selector slots.  On top of that this module
computes: well-definedness, per-sort constructor indices, domain
cardinalities, size images (as eventually periodic sets), exact term counts
and term enumeration (test oracles, and the fresh terms of model
reconstruction), and the expandingness verdict that governs completeness of
the size-constraint decision loop.

The size analyses read one grammar, `sort -> [(constructor, weight,
argument sorts)]`: `_grammar` gives every constructor weight 1, and
`_eliminate_singletons` drops singleton-domain sorts and folds their sizes
into the weights.  Size images, relativized images and the expandingness
cycles are all computed on that shape: a relativized image or a cycle's
exits are the start of a `_lap` grammar added to it.  Every image is the
start's entry in one least fixpoint (`_image_bits`) over exact eventually
periodic sets (`semilinear`), solved one strongly connected component of
the sort graph at a time by Newton's method, which reaches it in at most
|C| + 1 steps on a component C.  A signature keeps the fixpoint per
grammar, so the images of all its sorts share one, and a lap's fixpoint
starts from it and solves only the lap sorts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterator

from .errors import InternalError, InvalidSignatureError, ResourceLimitError, UnknownSymbolError
from .semilinear import EMPTY, MAX_BITS, ZERO, EventuallyPeriodicSet, Form, plus, shift, star, union
from .terms import Ctor, Node, Term, Var, ground_size

DEFAULT_COUNT_CAP = 2000
DEFAULT_ENUM_CAP = 2_000_000


class CtorDecl(Node):
    __slots__ = ("name", "sort", "args")
    name: str
    sort: str
    args: tuple[tuple[str, str], ...]  # (selector name, argument sort)

    def __init__(self, name: str, sort: str, args: tuple[tuple[str, str], ...] = ()):
        self._init(name, sort, args)

    @property
    def arity(self) -> int:
        return len(self.args)


# a dataclass, unlike the `Node` classes: callers copy a signature with a
# fresh cache through `dataclasses.replace`
@dataclass(frozen=True, slots=True)
class Signature:
    sorts: tuple[str, ...]
    ctors: tuple[CtorDecl, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def ctors_of(self, sort: str) -> tuple[CtorDecl, ...]:
        key = ("ctors_of", sort)
        if key not in self._cache:
            if sort not in self.sorts:
                raise UnknownSymbolError(sort, "not a declared sort")
            self._cache[key] = tuple(c for c in self.ctors if c.sort == sort)
        return self._cache[key]

    def _names(self) -> tuple[dict[str, CtorDecl], dict[str, tuple[CtorDecl, int]]]:
        """The constructors and the selectors by name, the first declared
        where a name repeats (an invalid signature), built once."""
        names = self._cache.get("names")
        if names is None:
            ctors: dict[str, CtorDecl] = {}
            sels: dict[str, tuple[CtorDecl, int]] = {}
            for c in self.ctors:
                ctors.setdefault(c.name, c)
                for j, (sel, _) in enumerate(c.args):
                    sels.setdefault(sel, (c, j))
            names = self._cache["names"] = (ctors, sels)
        return names

    def ctor(self, name: str) -> CtorDecl:
        c = self._names()[0].get(name)
        if c is None:
            raise UnknownSymbolError(name, "not a declared constructor")
        return c

    def has_ctor(self, name: str) -> bool:
        return name in self._names()[0]

    def selector(self, name: str) -> tuple[CtorDecl, int]:
        got = self._names()[1].get(name)
        if got is None:
            raise UnknownSymbolError(name, "not a declared selector")
        return got

    def has_selector(self, name: str) -> bool:
        return name in self._names()[1]

    def selector_name(self, ctor: str, index: int) -> str:
        c = self.ctor(ctor)
        return c.args[index][0]

    def term_sort(self, t: Term) -> str:
        if isinstance(t, Var):
            return t.sort
        if isinstance(t, Ctor):
            return self.ctor(t.ctor).sort
        return self.ctor(t.ctor).args[t.index][1]

    def is_enum(self, sort: str) -> bool:
        key = ("is_enum", sort)
        if key not in self._cache:
            cs = self.ctors_of(sort)
            self._cache[key] = bool(cs) and all(c.arity == 0 for c in cs)
        return self._cache[key]


# -- validation ----------------------------------------------------------------

class SigIssue(Node):
    __slots__ = ("code", "symbol")
    code: str  # 'empty-sort' | 'duplicate-name' | 'unknown-sort'
    symbol: str

    def __str__(self) -> str:
        return f"{self.code}: {self.symbol}"


def validate(sig: Signature) -> list[SigIssue]:
    """All well-definedness violations; empty means the signature is valid,
    which is kept in the signature's cache for `ensure_valid`."""
    issues: list[SigIssue] = []
    seen_sorts: set[str] = set()
    for s in sig.sorts:
        if s in seen_sorts:
            issues.append(SigIssue("duplicate-name", s))
        seen_sorts.add(s)
    # constructors and selectors share the function namespace
    seen_funs: set[str] = set()
    for c in sig.ctors:
        if c.name in seen_funs:
            issues.append(SigIssue("duplicate-name", c.name))
        seen_funs.add(c.name)
        for sel, _ in c.args:
            if sel in seen_funs:
                issues.append(SigIssue("duplicate-name", sel))
            seen_funs.add(sel)
    for c in sig.ctors:
        if c.sort not in seen_sorts:
            issues.append(SigIssue("unknown-sort", c.sort))
        for _, arg_sort in c.args:
            if arg_sort not in seen_sorts:
                issues.append(SigIssue("unknown-sort", arg_sort))
    if issues:
        return issues
    # least-fixpoint non-emptiness
    nonempty: set[str] = set()
    changed = True
    while changed:
        changed = False
        for c in sig.ctors:
            if c.sort not in nonempty and all(a in nonempty for _, a in c.args):
                nonempty.add(c.sort)
                changed = True
    for s in sig.sorts:
        if s not in nonempty:
            issues.append(SigIssue("empty-sort", s))
    if not issues:
        sig._cache["validated"] = True
    return issues


def ensure_valid(sig: Signature) -> Signature:
    """`sig`, or InvalidSignatureError; a signature that `validate` passed
    once is not validated again."""
    if "validated" not in sig._cache:
        issues = validate(sig)
        if issues:
            raise InvalidSignatureError(issues)
    return sig


# -- indices --------------------------------------------------------------------

def num_ctors(sig: Signature, sort: str) -> int:
    return len(sig.ctors_of(sort))


def ctor_index(sig: Signature, ctor_name: str) -> int:
    """Zero-based index of a constructor among the constructors of its sort."""
    index = sig._cache.setdefault("ctor_index", {})
    i = index.get(ctor_name)
    if i is None:
        c = sig.ctor(ctor_name)
        i = index[ctor_name] = [d.name for d in sig.ctors_of(c.sort)].index(ctor_name)
    return i


def ctor_at(sig: Signature, sort: str, index: int) -> CtorDecl:
    cs = sig.ctors_of(sort)
    if not (0 <= index < len(cs)):
        raise UnknownSymbolError(f"{sort}#{index}", "no constructor with this index")
    return cs[index]


# -- cardinality ------------------------------------------------------------------

def cardinality(sig: Signature, sort: str) -> int | None:
    """The number of terms of `sort`, or None when it has infinitely many."""
    counts = sig._cache.get("card")
    if counts is not None and sort in counts:
        return counts[sort]  # no count is in progress between calls
    ensure_valid(sig)
    if sort not in sig.sorts:
        raise UnknownSymbolError(sort, "not a declared sort")
    counts = sig._cache.setdefault("card", {})  # sort -> count, None if infinite

    def count(s: str) -> int | None:
        if s not in counts:
            # reaching s again while this is None puts s on a cycle; sorts
            # are nonempty, so one infinite argument makes the sort infinite
            counts[s] = None
            total = 0
            for c in sig.ctors_of(s):
                prod = 1
                for _, a in c.args:
                    n = count(a)
                    if n is None:
                        return None
                    prod *= n
                total += prod
            counts[s] = total
        return counts[s]

    return count(sort)


def reachable_sorts(sig: Signature, sort: str) -> frozenset[str]:
    """The sorts reachable from `sort` in one or more steps of the sort graph,
    which leads from each sort to the argument sorts of its constructors.
    `sort` is among them iff it lies on a cycle, and an argument sort of
    `sort` reaches it back iff both lie in one strongly connected component."""
    key = ("reach", sort)
    if key not in sig._cache:
        sig._cache[key] = frozenset(_reach(_cached_grammar(sig, _grammar), sort))
    return sig._cache[key]


def _reach(grammar: Grammar, src: str) -> set[str]:
    """The sorts that productions lead to from `src` in one or more steps."""
    seen: set[str] = set()
    stack = [src]
    while stack:
        for _, _, args in grammar[stack.pop()]:
            for a in args:
                if a not in seen:
                    seen.add(a)
                    stack.append(a)
    return seen


# -- size images ----------------------------------------------------------------------

Grammar = dict[str, list[tuple[str, int, tuple[str, ...]]]]  # sort -> [(ctor, weight, arg sorts)]


def _grammar(sig: Signature) -> Grammar:
    """The signature as a grammar: every constructor has weight 1."""
    return {s: [(c.name, 1, tuple(a for _, a in c.args)) for c in sig.ctors_of(s)]
            for s in sig.sorts}


def _image_bits(grammar: Grammar, known: dict[str, Form | None] | None = None
                ) -> dict[str, Form | None]:
    """Every sort's size image as an exact eventually periodic form (see
    `semilinear`): the least fixpoint of `f(X)[s] = union over productions
    of w + X[a1] + ...` under union and Minkowski sum.  `known` holds the
    sets of sorts whose productions read only each other (a base grammar's
    fixpoint); they stay fixed.  The other sorts are solved one strongly
    connected component C of the sort graph at a time, after the components
    it reads, by Newton's method.  The semiring is commutative and
    idempotent, so from the empty sets at most |C| + 1 Newton steps reach
    the least fixpoint (Hopkins and Kozen, LICS 1999; Esparza, Kiefer and
    Luttenberger, JACM 2010); more raise InternalError.  A step is taken only
    while f(X) != X, and every step stays below the least fixpoint, so the
    result is exact.  A component whose sets grow wider than
    `semilinear.MAX_BITS`, and every sort that reads it, gets None."""
    sets = dict(known or {})
    live = [s for s in grammar if s not in sets]
    reach = {s: _reach(grammar, s) for s in live}
    # a sort's reach with itself holds the reach of every sort it leads to,
    # strictly unless the two share a component, so sorting by its size
    # puts every component after the ones it reads
    for s in sorted(live, key=lambda s: len(reach[s] | {s})):
        if s not in sets:
            component = [t for t in live if t == s or t in reach[s] and s in reach[t]]
            try:
                if any(sets[t] is None for t in reach[s] if t not in component):
                    raise ResourceLimitError("reads a sort too wide to hold")
                _solve_component(grammar, component, sets)
            except ResourceLimitError:
                sets.update(dict.fromkeys(component, None))
    return sets


def _solve_component(grammar: Grammar, component: list[str], sets: dict[str, Form]) -> None:
    """Add to `sets`, which holds every sort the component reads, the least
    fixpoint on the component, by Newton steps `X <- J* . f(X)` until
    f(X) = X.  J is the Jacobian of f at X: its entry (s, t) holds the
    sizes that a production of s adds around one argument of sort t."""
    index = {s: i for i, s in enumerate(component)}
    sets.update(dict.fromkeys(component, EMPTY))
    # |C| + 1 steps, and one more look at f to see the fixpoint
    for _ in range(len(component) + 2):
        image = [union(*(_sum(w, [sets[a] for a in args]) for _, w, args in grammar[s]))
                 for s in component]
        if image == [sets[s] for s in component]:
            return
        jacobian = [[EMPTY] * len(component) for _ in component]
        for s, row in zip(component, jacobian):
            for _, w, args in grammar[s]:
                for k, a in enumerate(args):
                    if a in index:
                        row[index[a]] = union(row[index[a]],
                                              _sum(w, [sets[b] for b in args[:k] + args[k + 1:]]))
        for s, row in zip(component, _matrix_star(jacobian)):
            sets[s] = union(*(plus(a, x) for a, x in zip(row, image)))
    raise InternalError(f"Newton's method on {component} missed its step bound")


def _sum(w: int, parts: list[Form]) -> Form:
    """w + x1 + ... + xk over xi in parts."""
    acc = ZERO
    for x in parts:
        acc = plus(acc, x)
    return shift(acc, w)


def _matrix_star(a: list[list[Form]]) -> list[list[Form]]:
    """The star I + A + A.A + ... of a matrix of sets, by Kleene
    elimination in place: eliminating k turns every path through k into
    one edge, with k's loops starred."""
    n = len(a)
    for k in range(n):
        s = star(a[k][k])
        col = [plus(a[i][k], s) if i != k else s for i in range(n)]
        row = [plus(s, a[k][j]) if j != k else s for j in range(n)]
        for i in range(n):
            if i != k and col[i][2]:
                for j in range(n):
                    if j != k:
                        a[i][j] = union(a[i][j], plus(col[i], a[k][j]))
        for i in range(n):
            a[i][k] = col[i]
        a[k] = row
    return a


def _image(sets: dict[str, Form | None], start: str) -> EventuallyPeriodicSet:
    """The size image of `start` in a fixpoint of `_image_bits`."""
    form = sets[start]
    if form is None:
        raise ResourceLimitError(f"size image of {start} wider than {MAX_BITS} bits")
    return EventuallyPeriodicSet.from_bits(*form)


def _cached_grammar(sig: Signature, make: Callable[[Signature], Grammar]) -> Grammar:
    """`make(sig)`, kept in the signature's cache."""
    key = ("grammar", make)
    if key not in sig._cache:
        sig._cache[key] = make(sig)
    return sig._cache[key]


def _cached_bits(sig: Signature, make: Callable[[Signature], Grammar]) -> dict[str, Form | None]:
    """The sets of every sort of grammar `make(sig)`, kept in the
    signature's cache, so the images of all its sorts share one fixpoint."""
    key = ("image-bits", make)
    if key not in sig._cache:
        sig._cache[key] = _image_bits(_cached_grammar(sig, make))
    return sig._cache[key]


def size_image(sig: Signature, sort: str) -> EventuallyPeriodicSet:
    ensure_valid(sig)
    key = ("image", sort)
    if key not in sig._cache:
        if sort not in sig.sorts:
            raise UnknownSymbolError(sort, "not a declared sort")
        sig._cache[key] = _image(_cached_bits(sig, _grammar), sort)
    return sig._cache[key]


def relativized_size_image(sig: Signature, sort: str, ctor_name: str) -> EventuallyPeriodicSet:
    """Sizes of `sort` terms whose head symbol is not `ctor_name`."""
    ensure_valid(sig)
    c = sig.ctor(ctor_name)
    if c.sort != sort:
        raise UnknownSymbolError(ctor_name, f"result sort is {c.sort}, not {sort}")
    key = ("rel-image", sort, ctor_name)
    if key not in sig._cache:
        sig._cache[key] = _lap_image(sig, _grammar, [(sort, ctor_name)])
    return sig._cache[key]


def _lap(grammar: Grammar, steps: list[tuple[str, str]]) -> tuple[Grammar, str]:
    """The once-around grammar of `steps` [(sort_i, ctor_i)] and its start:
    fresh `c_i` has sort_i's productions with ctor_i's argument pointing at
    `c_{i+1}`, and the last step drops ctor_i, so `c_0` derives the sort_0
    words that leave the path before completing it."""
    names = [f"{s}\0lap\0{i}" for i, (s, _) in enumerate(steps)]
    lap = dict(grammar)
    for i, (s, c) in enumerate(steps):
        lap[names[i]] = [(d, w, (names[i + 1],) if d == c else args)
                         for d, w, args in grammar[s]
                         if d != c or i + 1 < len(steps)]
    return lap, names[0]


def _lap_image(sig: Signature, make: Callable[[Signature], Grammar],
               steps: list[tuple[str, str]]) -> EventuallyPeriodicSet:
    """The image of the start of the lap of `steps` on grammar `make(sig)`.
    No base sort reads a lap sort, so the lap's fixpoint starts from the
    cached sets of the base grammar and only the lap sorts are solved."""
    lap, start = _lap(_cached_grammar(sig, make), steps)
    return _image(_image_bits(lap, _cached_bits(sig, make)), start)


# -- counting and enumeration oracles ---------------------------------------------------

def count_terms_of_size(sig: Signature, sort: str, b: int) -> int:
    """Exact number of constructor terms of `sort` with exactly `b` symbols."""
    ensure_valid(sig)
    if sort not in sig.sorts:
        raise UnknownSymbolError(sort, "not a declared sort")
    if b > DEFAULT_COUNT_CAP:
        raise ResourceLimitError(
            f"count_terms_of_size bound {b} exceeds cap {DEFAULT_COUNT_CAP}")
    if b < 0:
        return 0
    counts = sig._cache.setdefault("counts", {})
    ways = sig._cache.setdefault("ways", {})

    def count(s: str, n: int) -> int:
        k = (s, n)
        if k not in counts:
            if n <= 0:
                counts[k] = 0
            else:
                counts[k] = sum(arg_ways(tuple(a for _, a in c.args), n - 1)
                                for c in sig.ctors_of(s))
        return counts[k]

    def arg_ways(args: tuple[str, ...], budget: int) -> int:
        k = (args, budget)
        if k not in ways:
            if not args:
                ways[k] = 1 if budget == 0 else 0
            elif budget < len(args):
                ways[k] = 0
            else:
                head, rest = args[0], args[1:]
                ways[k] = sum(count(head, i) * arg_ways(rest, budget - i)
                              for i in range(1, budget - len(rest) + 1))
        return ways[k]

    return count(sort, b)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of `total` into `parts` positive parts, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def terms_of_size(sig: Signature, sort: str, b: int) -> list[Term]:
    """All terms of exactly size `b`, in deterministic order: by constructor
    declaration order, then lexicographic over argument size compositions,
    then componentwise over argument terms."""
    ensure_valid(sig)
    memo = sig._cache.setdefault("terms", {})
    key = (sort, b)
    if key in memo:
        return memo[key]
    out: list[Term] = []
    if b >= 1:
        for c in sig.ctors_of(sort):
            if c.arity == 0:
                if b == 1:
                    out.append(Ctor(c.name, ()))
                continue
            for comp in _compositions(b - 1, c.arity):
                pools = [terms_of_size(sig, a, n) for (_, a), n in zip(c.args, comp)]
                if any(not p for p in pools):
                    continue
                for args in itertools.product(*pools):
                    out.append(Ctor(c.name, tuple(args)))
    memo[key] = out
    return out


def enumerate_terms(sig: Signature, sort: str, max_size: int | None, *,
                    cap: int = DEFAULT_ENUM_CAP) -> Iterator[Term]:
    """All terms of size <= max_size, or of every size when it is None, in
    nondecreasing size order; a finite sort stops after its last term."""
    total = cardinality(sig, sort)  # checks the signature and the sort
    produced = 0
    for b in itertools.count(1) if max_size is None else range(1, max_size + 1):
        if produced == total:
            return
        for t in terms_of_size(sig, sort, b):
            produced += 1
            if produced > cap:
                raise ResourceLimitError(f"enumeration exceeded {cap} terms")
            yield t


def fresh_terms(sig: Signature, sort: str) -> Iterator[Term]:
    """Every term of the sort, in nondecreasing size order: the first n + 1
    always hold one outside any n terms."""
    return enumerate_terms(sig, sort, None)


def minimal_term(sig: Signature, sort: str) -> Term:
    key = ("minimal", sort)
    if key not in sig._cache:
        sig._cache[key] = next(fresh_terms(sig, sort))
    return sig._cache[key]


# -- expandingness -----------------------------------------------------------------------

class ExpandingReport(Node):
    """Per-sort verdicts; a non-expanding sort carries its witness cycle as an
    alternating sort/constructor name sequence starting and ending at the sort."""

    __slots__ = ("witnesses",)
    witnesses: tuple[tuple[str, tuple[str, ...] | None], ...]

    def witness(self, sort: str) -> tuple[str, ...] | None:
        for s, w in self.witnesses:
            if s == sort:
                return w
        raise UnknownSymbolError(sort, "sort not covered by report")

    def is_expanding(self, sort: str) -> bool:
        return self.witness(sort) is None

    def cycle_line(self, sort: str) -> str:
        """The report line of a non-expanding sort, naming its cycle."""
        return f"{sort}: non-expanding (cycle: {' -> '.join(self.witness(sort))})"

    @property
    def all_expanding(self) -> bool:
        return all(w is None for _, w in self.witnesses)

    @property
    def non_expanding_sorts(self) -> list[str]:
        return [s for s, w in self.witnesses if w is not None]


def _eliminate_singletons(sig: Signature) -> Grammar:
    """The grammar without singleton-domain sorts: each argument of such a
    sort is dropped and its one term's size folds into the weight."""
    single = {s: ground_size(minimal_term(sig, s)) for s in sig.sorts
              if cardinality(sig, s) == 1}
    return {s: [(c, 1 + sum(single.get(a, 0) for a in args),
                 tuple(a for a in args if a not in single)) for c, _, args in prods]
            for s, prods in _grammar(sig).items() if s not in single}


def _cycle_through(sort: str, grammar: Grammar) -> list[tuple[str, str]] | None:
    """If the strongly connected component of `sort` is a single simple cycle
    of unary constructors, return it as [(sort_i, ctor_i)]; otherwise None."""
    scc = {t for t in _reach(grammar, sort) if sort in _reach(grammar, t)}
    # strongly connected with one edge inside out of every sort: a simple cycle
    cycle: list[tuple[str, str]] = []
    t = sort
    for _ in scc:
        inside = [(c, args) for c, _, args in grammar[t] if any(a in scc for a in args)]
        if len(inside) != 1 or len(inside[0][1]) != 1:
            return None
        cycle.append((t, inside[0][0]))
        t = inside[0][1][0]
    return cycle or None


def check_expanding(sig: Signature) -> ExpandingReport:
    """A sort is non-expanding iff it is the base of a
    simple dependency cycle that (1) is the only path from the sort to itself,
    (2) uses only unary constructors, and (3) unboundedly contributes to the
    size image.  Singleton-domain sorts are rewritten away first, so a
    cycle step can weigh more than 1; condition 3 is decided in closed form
    from the lap's weight and the eventually periodic sizes of its exits."""
    ensure_valid(sig)
    key = "expanding"
    if key in sig._cache:
        return sig._cache[key]
    grammar = _cached_grammar(sig, _eliminate_singletons)
    verdicts: list[tuple[str, tuple[str, ...] | None]] = []
    for s in sig.sorts:
        cycle = _cycle_through(s, grammar) if s in grammar else None
        if cycle is not None:
            # a term runs k laps of weight W, then leaves: the sizes are
            # W*N + R, R the sizes of terms that leave within one lap.  For
            # large n, W*N + tail(R) holds n iff n mod g is a residue of R
            # mod g, g = gcd(W, period of R); so the cycle contributes
            # unboundedly iff R has no tail or an exception outside them
            r = _lap_image(sig, _eliminate_singletons, cycle)
            lap = sum(w for t, c in cycle for d, w, _ in grammar[t] if d == c)
            g = gcd(lap, r.period)
            tail = {x % g for x in r.residues}
            if tail and all(e % g in tail for e in r.exceptions):
                cycle = None
        verdicts.append((s, None if cycle is None
                         else tuple(x for step in cycle for x in step) + (s,)))
    report = ExpandingReport(tuple(verdicts))
    sig._cache[key] = report
    return report
