"""Seeded random signatures and formulas, the bounded-enumeration oracle, and
the solver-agreement harness.

The harness replaces an external benchmark corpus: every generated instance
is decided with and without optimizations, checked against exhaustive model
enumeration up to a term-size bound, satisfying models are re-validated, and
reduction blow-up statistics are collected.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .models import check_model
from .reduce import is_utvpi, rformula_nodes
from .semantics import evaluate
from .signature import (
    CtorDecl, Signature, enumerate_terms, ensure_valid, minimal_term, validate,
)
from .sizesolve import decide
from .terms import (
    AdtModel, And, Ctor, Eq, Formula, IntConst, Not, Or, Sel, SizeAtom, SizeOf,
    Term, Tester, Var, formula_nodes, free_vars,
)


# -- random signatures ---------------------------------------------------------------

def random_signature(rng: random.Random, n_extra: int = 3) -> Signature:
    """An enum base sort plus a few recursive/product sorts built over it."""
    sorts: list[str] = []
    ctors: list[CtorDecl] = []
    tag = rng.randrange(10000)

    def fresh_sort(kind: str) -> str:
        name = f"{kind}{tag}_{len(sorts)}"
        sorts.append(name)
        return name

    sel_count = itertools.count()

    def sel() -> str:
        return f"sl{tag}_{next(sel_count)}"

    base = fresh_sort("E")
    for i in range(rng.randint(2, 4)):
        ctors.append(CtorDecl(f"e{tag}_{i}", base))
    for i in range(n_extra):
        kind = rng.choice(["list", "pair", "tree", "nat", "enum"])
        if kind == "enum":
            s = fresh_sort("E")
            for j in range(rng.randint(2, 3)):
                ctors.append(CtorDecl(f"k{tag}_{i}_{j}", s))
        elif kind == "pair":
            s = fresh_sort("P")
            a, b = rng.choice(sorts[:-1]), rng.choice(sorts[:-1])
            ctors.append(CtorDecl(f"mk{tag}_{i}", s, ((sel(), a), (sel(), b))))
        elif kind == "list":
            s = fresh_sort("L")
            elem = rng.choice(sorts[:-1])
            ctors.append(CtorDecl(f"nl{tag}_{i}", s))
            ctors.append(CtorDecl(f"cs{tag}_{i}", s, ((sel(), elem), (sel(), s))))
        elif kind == "tree":
            s = fresh_sort("T")
            elem = rng.choice(sorts[:-1])
            ctors.append(CtorDecl(f"lf{tag}_{i}", s, ((sel(), elem),)))
            ctors.append(CtorDecl(f"nd{tag}_{i}", s, ((sel(), s), (sel(), s))))
        else:  # nat
            s = fresh_sort("N")
            ctors.append(CtorDecl(f"z{tag}_{i}", s))
            ctors.append(CtorDecl(f"sc{tag}_{i}", s, ((sel(), s),)))
    sig = Signature(tuple(sorts), tuple(ctors))
    assert not validate(sig)
    return sig


# -- random formulas ------------------------------------------------------------------

@dataclass
class GenConfig:
    n_vars: int = 3
    depth: int = 2
    size_atoms: bool = False
    size_const_max: int = 9


def random_formula(rng: random.Random, sig: Signature,
                   cfg: GenConfig = GenConfig()) -> Formula:
    ensure_valid(sig)
    sorts = list(sig.sorts)
    vars_: list[Var] = []
    for i in range(cfg.n_vars):
        vars_.append(Var(f"v{i}", rng.choice(sorts)))

    def ground_term(sort: str, budget: int) -> Term:
        if budget <= 1:
            return minimal_term(sig, sort)
        decl = rng.choice(sig.ctors_of(sort))
        if decl.arity == 0:
            return Ctor(decl.name, ())
        return Ctor(decl.name, tuple(ground_term(a, budget - 1)
                                     for _, a in decl.args))

    def term_over(v: Var, hops: int) -> Term:
        t: Term = v
        sort = v.sort
        for _ in range(hops):
            decls = [c for c in sig.ctors_of(sort) if c.arity > 0]
            if not decls:
                break
            decl = rng.choice(decls)
            j = rng.randrange(decl.arity)
            t = Sel(decl.name, j, t)
            sort = decl.args[j][1]
        return t

    def literal() -> Formula:
        kind = rng.random()
        v = rng.choice(vars_)
        if cfg.size_atoms and kind < 0.25:
            op = rng.choice(["le", "ge", "eq"])
            if rng.random() < 0.5 or len(vars_) < 2:
                return SizeAtom(op, SizeOf(v), IntConst(rng.randint(1, cfg.size_const_max)))
            w = rng.choice(vars_)
            return SizeAtom(op, SizeOf(v), SizeOf(w))
        if kind < 0.4:
            decl = rng.choice(sig.ctors_of(v.sort))
            t = Tester(decl.name, v)
            return t if rng.random() < 0.6 else Not(t)
        if kind < 0.6:
            same = [w for w in vars_ if w.sort == v.sort]
            w = rng.choice(same)
            eq = Eq(v, w)
            return eq if rng.random() < 0.5 else Not(eq)
        if kind < 0.8:
            eq = Eq(v, ground_term(v.sort, 3))
            return eq if rng.random() < 0.6 else Not(eq)
        t = term_over(v, rng.randint(1, cfg.depth))
        sort = sig.term_sort(t)
        other = rng.choice([w for w in vars_ if w.sort == sort] or [None])
        if other is None:
            return Eq(t, ground_term(sort, 2))
        return Eq(t, other)

    def tree(d: int) -> Formula:
        if d == 0:
            return literal()
        kind = rng.random()
        if kind < 0.45:
            return And(tuple(tree(d - 1) for _ in range(rng.randint(2, 3))))
        if kind < 0.9:
            return Or(tuple(tree(d - 1) for _ in range(rng.randint(2, 3))))
        return Not(tree(d - 1))

    return tree(rng.randint(1, 2))


# -- bounded enumeration oracle ----------------------------------------------------------

ORACLE_BOUND = 6
ORACLE_PRODUCT_CAP = 60000


def oracle_models(sig: Signature, phi: Formula, bound: int = ORACLE_BOUND):
    """Yield all models with terms of size <= bound (bound shrinks adaptively
    to respect the assignment-product cap); formulas must be closed over
    integer variables."""
    fv = free_vars(phi)
    assert not fv.ints, "oracle handles ADT variables only"
    names = sorted(v.name for v in fv.adt)
    sorts = {v.name: v.sort for v in fv.adt}
    b = bound
    while b > 1:
        pools = [list(enumerate_terms(sig, sorts[n], b)) for n in names]
        product = 1
        for p in pools:
            product *= max(1, len(p))
        if product <= ORACLE_PRODUCT_CAP:
            break
        b -= 1
    else:
        pools = [list(enumerate_terms(sig, sorts[n], 1)) for n in names]
    for combo in itertools.product(*pools):
        yield AdtModel(dict(zip(names, combo)))


def oracle_sat_within_bound(sig: Signature, phi: Formula,
                            bound: int = ORACLE_BOUND) -> AdtModel | None:
    for model in oracle_models(sig, phi, bound):
        if evaluate(sig, model, phi):
            return model
    return None


# -- agreement harness ------------------------------------------------------------------

@dataclass
class CorpusStats:
    instances: int = 0
    sat: int = 0
    unsat: int = 0
    nodes_input: list[int] = field(default_factory=list)
    nodes_reduced: list[int] = field(default_factory=list)
    blowup_ratios: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    roundtrips: int = 0

    def max_blowup(self) -> float:
        return max(self.blowup_ratios) if self.blowup_ratios else 0.0

    def summary(self) -> str:
        def avg(xs):
            return sum(xs) / len(xs) if xs else 0.0

        lines = [
            f"instances: {self.instances} (sat {self.sat}, unsat {self.unsat})",
            f"avg nodes: input {avg(self.nodes_input):.1f}, "
            f"reduced {avg(self.nodes_reduced):.1f}",
            f"max blow-up ratio |reduct| / (|signature| * |input|): "
            f"{self.max_blowup():.3f}",
            f"failures: {len(self.failures)}",
        ]
        lines.extend(self.failures[:10])
        return "\n".join(lines)


def signature_size(sig: Signature) -> int:
    return len(sig.sorts) + sum(1 + c.arity for c in sig.ctors)


def run_agreement(seed: int, count: int = 500, n_sigs: int = 5) -> CorpusStats:
    """Depth-mode corpus: verdict agreement with the oracle, optimization
    on/off agreement, UTVPI shape, blow-up accounting, model round-trips."""
    rng = random.Random(seed)
    sigs = [random_signature(rng) for _ in range(n_sigs)]
    stats = CorpusStats()
    for i in range(count):
        sig = sigs[i % n_sigs]
        phi = random_formula(rng, sig, GenConfig(n_vars=rng.randint(1, 3)))
        stats.instances += 1
        prefix = f"[{i}] "
        try:
            res = decide(phi, sig)
            plain = decide(phi, sig, opt=False)
            reduct = res.reduct
            stats.nodes_input.append(formula_nodes(phi))
            stats.nodes_reduced.append(rformula_nodes(reduct.formula))
            stats.blowup_ratios.append(
                rformula_nodes(reduct.formula)
                / (signature_size(sig) * max(1, formula_nodes(reduct.flat.formula))))
            if not is_utvpi(reduct) or not is_utvpi(plain.reduct):
                stats.failures.append(prefix + "depth-mode reduct is not UTVPI")
                continue
            if res.status != plain.status:
                stats.failures.append(
                    prefix + f"optimization changed the verdict: "
                    f"{res.status} vs {plain.status}")
                continue
            oracle_model = oracle_sat_within_bound(sig, phi)
            if res.status == "sat":
                stats.sat += 1
                # decide checked the model against the flattened formula
                ok, diag = check_model(sig, res.model, phi)
                if not ok:
                    stats.failures.append(prefix + f"model check failed: {diag}")
                    continue
                stats.roundtrips += 1
            else:
                stats.unsat += 1
                if oracle_model is not None:
                    stats.failures.append(prefix + "solver unsat but oracle found "
                                                   "a model within bound")
        except Exception as e:  # noqa: BLE001 - harness reports, does not crash
            stats.failures.append(prefix + f"exception: {type(e).__name__}: {e}")
    return stats
