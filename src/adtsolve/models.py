"""Turning EUF+LIA models of reducts into genuine ADT models, and checking them.

Reconstruction follows the constructive argument: read the branch of the
reduct that the integer model satisfies (every conjunct, and the first
disjunct that holds), collect the (value, sort) pairs at which its literals
apply a ctorId or selector function, read each pair's head symbol and children
off those function graphs, then build terms bottom-up; remaining pairs receive
fresh terms of minimal size never used before, which keeps the map injective
so that disequalities stay satisfied.

One walk over the reduct (`_read_reduct`) checks that the model satisfies
it, fills in the function-graph entries that the model reads through a
default value, and reads off the branch, each application evaluated once.
Its check is the one whole-reduct check of the built-in backend's model,
which `backend.solve` returns unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backend import IntModel
from .errors import InternalError, UnboundVariableError
from .reduce import (
    RAnd, RApp, RConst, REq, RFormula, RLin, ROr, RTerm, RTrueF, RVar, ReducedFormula,
)
from .semantics import evaluate, print_formula
from .signature import Signature, cardinality, ctor_at, fresh_terms
from .terms import (
    AdtModel, And, Ctor, Eq, Formula, Not, Or, SizeAtom, Term, Tester, free_vars,
    ground_size,
)


@dataclass
class ReconstructionStats:
    case2_pairs: list[tuple[int, str]] = field(default_factory=list)
    case3_pairs: list[tuple[int, str]] = field(default_factory=list)
    injectivity_checks: int = 0


def reconstruct(reduct: ReducedFormula, int_model: IntModel,
                stats: ReconstructionStats | None = None) -> AdtModel:
    """Build an ADT model from a satisfying integer model of the reduct (of
    an unsimplified one: `backend.complete_model` completes a model of a
    simplified reduct to one of the reduct it came from)."""
    table = reduct.table
    sig = table.sig
    flat = reduct.flat
    stats = stats if stats is not None else ReconstructionStats()
    enum_sorts = table.enum_sorts

    # D: the argument values of the ctorId and selector applications over
    # sorts other than enumerations in the branch that the model satisfies
    arg_sort: dict[str, str] = {}
    for fname, (_, origin) in table.funs.items():
        if origin[0] == "ctorid":
            sort = origin[1]
        elif origin[0] == "sel":
            sort = sig.ctor(origin[1]).sort
        else:
            continue
        if sort not in enum_sorts:
            arg_sort[fname] = sort
    model, d_list = _read_reduct(reduct.formula, int_model, arg_sort)
    d_pairs = dict.fromkeys(d_list)

    # dep: head symbol and children read off the totalized function graphs
    dep: dict[tuple[int, str], tuple[str, list[tuple[int, str]]]] = {}
    for (a, sort) in d_pairs:
        cid = model.app(table.ctorid_fun(sort), (a,))
        if not (0 <= cid < len(sig.ctors_of(sort))):
            continue  # untouched integer: fall through to case 3
        decl = ctor_at(sig, sort, cid)
        children = []
        for j, (_, arg_sort) in enumerate(decl.args):
            cj = model.app(table.sel_fun(decl.name, j), (a,))
            children.append((cj, arg_sort))
        dep[(a, sort)] = (decl.name, children)

    # P = D plus dependent pairs plus the pairs of all remaining variables
    pairs: dict[tuple[int, str], None] = dict(d_pairs)
    for _, children in dep.values():
        for (c, s) in children:
            if s not in enum_sorts:
                pairs.setdefault((c, s))
    for name, sort in flat.var_sorts.items():
        if sort not in enum_sorts:
            pairs.setdefault((model.value(name), sort))

    gamma = _build_terms(sig, pairs, dep, enum_sorts, stats)

    def gamma_term(pair: tuple[int, str]) -> Term:
        if pair[1] in enum_sorts:
            return _enum_term(sig, *pair)
        return gamma[pair]

    adt: dict[str, Term] = {}
    for name, sort in flat.var_sorts.items():
        adt[name] = gamma_term((model.value(name), sort))
    ints = {name: model.value(name) for name in sorted(flat.int_vars)}

    # selector interpretation choices for wrong-headed applications, and the
    # graphs of the uninterpreted functions under their source names (one the
    # reduct never applies lists one point, so its arity stays readable)
    overrides: dict[tuple[str, int, Term], Term] = {}
    funcs = {origin[1]: dict(model.funcs.get(fname) or {(0,) * arity: 0})
             for fname, (arity, origin) in table.funs.items() if origin[0] == "uf"}
    for fname, (_, origin) in table.funs.items():
        if origin[0] != "sel":
            continue
        _, ctor_name, j = origin
        decl = sig.ctor(ctor_name)
        target_sort = decl.args[j][1]
        for args, val in model.funcs.get(fname, {}).items():
            src_pair = (args[0], decl.sort)
            tgt_pair = (val, target_sort)
            if decl.sort in enum_sorts or (src_pair not in gamma):
                continue
            if target_sort not in enum_sorts and tgt_pair not in gamma:
                continue
            src = gamma[src_pair]
            if isinstance(src, Ctor) and src.ctor != ctor_name:
                overrides[(ctor_name, j, src)] = gamma_term(tgt_pair)
    return AdtModel(adt, ints, overrides, funcs)


def _enum_term(sig: Signature, value: int, sort: str) -> Term:
    n = cardinality(sig, sort)
    if n is None or not (0 <= value < n):
        raise InternalError(f"enum value {value} outside range of {sort}")
    return Ctor(ctor_at(sig, sort, value).name, ())


def _build_terms(sig: Signature, pairs: dict[tuple[int, str], None],
                 dep: dict[tuple[int, str], tuple[str, list[tuple[int, str]]]],
                 enum_sorts, stats: ReconstructionStats) -> dict[tuple[int, str], Term]:
    """A distinct term of its sort for every pair.  Case 2: a pair of `dep`
    whose children are all built gets its head over their terms; a worklist
    takes each such pair once its last child is built (Kahn's algorithm).
    Case 3: when the worklist is empty, the pair outside `dep` that is least
    by (size of its sort's smallest unused term, sort, value) gets that term.

    Case 3 thus always sees the terms of every pair that case 2 can build
    from the pairs built so far, in whatever order case 2 built them, so its
    choices, and with them every term, do not depend on that order."""
    gamma: dict[tuple[int, str], Term] = {}
    used: dict[str, set[Term]] = {}
    waiting: dict[tuple[int, str], int] = {}  # children not yet built
    parents: dict[tuple[int, str], list[tuple[int, str]]] = {}
    for p, (_, children) in dep.items():
        built_later = {c for c in children if c[1] not in enum_sorts}
        waiting[p] = len(built_later)
        for c in built_later:
            parents.setdefault(c, []).append(p)
    ready = [p for p, n in waiting.items() if n == 0]
    free = {p for p in pairs if p not in dep}

    def assign(p: tuple[int, str], t: Term):
        stats.injectivity_checks += 1
        taken = used.setdefault(p[1], set())
        if t in taken:
            raise InternalError("injectivity violated during reconstruction")
        taken.add(t)
        gamma[p] = t
        for q in parents.get(p, ()):
            waiting[q] -= 1
            if waiting[q] == 0:
                ready.append(q)

    while len(gamma) < len(pairs):
        if ready:
            p = ready.pop()
            head, children = dep[p]
            assign(p, Ctor(head, tuple(_enum_term(sig, *c) if c[1] in enum_sorts else gamma[c]
                                       for c in children)))
            stats.case2_pairs.append(p)
            continue
        if not free:
            raise InternalError("cyclic dependency in model reconstruction")
        fresh = {s: _next_fresh(sig, s, used) for s in {q[1] for q in free}}
        p = min(free, key=lambda q: (ground_size(fresh[q[1]]), q[1], q[0]))
        free.discard(p)
        assign(p, fresh[p[1]])
        stats.case3_pairs.append(p)
    return gamma


def _read_reduct(f: RFormula, model: IntModel, arg_sort: dict[str, str]
                 ) -> tuple[IntModel, list[tuple[int, str]]]:
    """One walk over every literal of f, each application evaluated once.
    Returns a copy of the model whose function graphs also list every
    application that the model evaluates through a default value (selector
    values are read off the graphs, so the graphs must hold them), listed in
    the order of the literals, arguments before the application, and the
    (argument value, sort) pairs at which the branch of f that the model
    satisfies (every conjunct, and the first disjunct that holds) applies a
    function of `arg_sort`, in the same order.  Raises InternalError when
    the model does not satisfy f."""
    out = IntModel(model.values, {fn: dict(g) for fn, g in model.funcs.items()},
                   model.defaults)
    values, funcs, defaults = out.values, out.funcs, out.defaults
    pairs: list[tuple[int, str]] = []
    # application -> its value and the pairs of its subterms and itself
    seen: dict[RApp, tuple[int, tuple[tuple[int, str], ...]]] = {}

    def term(t: RTerm) -> int:
        kind = type(t)
        if kind is RVar:
            return values.get(t.name, 0)
        if kind is RConst:
            return t.value
        got = seen.get(t)
        if got is None:
            start = len(pairs)
            args = tuple([term(a) for a in t.args])
            value = funcs.setdefault(t.fn, {}).setdefault(args, defaults.get(t.fn, 0))
            sort = arg_sort.get(t.fn)
            if sort is not None:
                pairs.append((args[0], sort))
            got = seen[t] = (value, tuple(pairs[start:]))
        else:
            pairs.extend(got[1])
        return got[0]

    def holds(g: RFormula) -> bool:
        kind = type(g)
        if kind is REq:
            return term(g.lhs) == term(g.rhs)
        if kind is RLin:
            total = g.const
            for c, t in g.terms:
                total += c * term(t)
            return total <= 0 if g.op == "le" else total == 0 if g.op == "eq" else total != 0
        if kind is RAnd:
            return all([holds(a) for a in g.args])  # every conjunct walked
        if kind is ROr:
            result = False
            for a in g.args:
                start = len(pairs)
                if holds(a) and not result:
                    result = True
                else:
                    del pairs[start:]  # not the branch's arm
            return result
        return kind is RTrueF

    if not holds(f):
        raise InternalError("completed model does not satisfy the unsimplified reduct")
    return out, pairs


def _next_fresh(sig: Signature, sort: str, used: dict[str, set[Term]]) -> Term:
    """Smallest term of the sort not yet in the gamma range (peek only)."""
    taken = used.setdefault(sort, set())
    for t in fresh_terms(sig, sort):
        if t not in taken:
            return t
    raise InternalError("exhausted term enumeration")


def check_model(sig: Signature, model: AdtModel, phi: Formula) -> tuple[bool, str | None]:
    """Evaluate; on failure name the first falsified literal."""
    fv = free_vars(phi)
    for v in fv.adt:
        if v.name not in model.adt:
            raise UnboundVariableError(v.name)
    for n in fv.ints:
        if n not in model.ints:
            raise UnboundVariableError(n)
    if evaluate(sig, model, phi):
        return True, None
    return False, _first_falsified(sig, model, phi)


def _first_falsified(sig: Signature, model: AdtModel, phi: Formula) -> str:
    if isinstance(phi, And):
        for a in phi.args:
            if not evaluate(sig, model, a):
                return _first_falsified(sig, model, a)
    if isinstance(phi, Or):
        return _first_falsified(sig, model, phi.args[0])
    if isinstance(phi, Not) and not isinstance(phi.arg, (Tester, Eq, SizeAtom)):
        return _first_falsified(sig, model, phi.arg)
    return print_formula(sig, phi)
