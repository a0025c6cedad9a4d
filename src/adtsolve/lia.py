"""Feasibility of conjunctions of linear integer constraints.

Constraints are normalized to `sum(coeff*var) + const <= 0` or `= 0`.
Equalities are eliminated first (unit-coefficient substitution, with the
symmetric-modulus variable change when no unit coefficient exists), each
inequality is GCD-tightened, and the rest is decided either on the
difference-constraint graph (when every constraint has that shape) or by an
exact rational simplex with branch-and-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InternalError, ResourceLimitError

DEFAULT_NODE_CAP = 20000


@dataclass(frozen=True)
class LinCon:
    op: str  # 'le' | 'eq'
    coeffs: tuple[tuple[str, int], ...]
    const: int

    def __post_init__(self):
        assert self.op in ("le", "eq")


def con(op: str, coeffs: dict[str, int], const: int) -> LinCon:
    cs = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    return LinCon(op, cs, const)


def _smod(a: int, m: int) -> int:
    """Symmetric modulus in (-m/2, m/2]."""
    r = a % m
    if r > m // 2:
        r -= m
    return r


class _Infeasible(Exception):
    pass


def _tighten(c: LinCon) -> LinCon:
    if not c.coeffs:
        return c
    g = 0
    for _, a in c.coeffs:
        g = gcd(g, abs(a))
    if g <= 1:
        return c
    coeffs = tuple((v, a // g) for v, a in c.coeffs)
    if c.op == "eq":
        if c.const % g != 0:
            raise _Infeasible()
        return LinCon("eq", coeffs, c.const // g)
    # sum a_i x_i <= -const  ->  divide and round the bound down
    bound = -c.const
    new_bound = bound // g if bound >= 0 else -((-bound + g - 1) // g)
    return LinCon("le", coeffs, -new_bound)


def _substitute(c: LinCon, var: str, expr: dict[str, int], const: int) -> LinCon:
    coeffs = dict(c.coeffs)
    a = coeffs.pop(var, 0)
    if a == 0:
        return c
    out_const = c.const + a * const
    for v, b in expr.items():
        coeffs[v] = coeffs.get(v, 0) + a * b
    return con(c.op, coeffs, out_const)


def _eliminate_equalities(cons: list[LinCon]):
    """Returns (inequalities, substitutions) where substitutions is a list of
    (var, expr, const) meaning var = expr . x + const, to be replayed last-first."""
    subs: list[tuple[str, dict[str, int], int]] = []
    fresh = 0
    # every row is kept tight: once here, then each row a substitution changes
    work: list[LinCon] = []
    for c in cons:
        _add_row(work, c)
    for _ in range(10000):
        eqs = [c for c in work if c.op == "eq" and c.coeffs]
        if not eqs:
            break
        # prefer an equality that already has a unit coefficient
        eq = next((e for e in eqs
                   if any(abs(a) == 1 for _, a in e.coeffs)), eqs[0])
        unit = next(((v, a) for v, a in eq.coeffs if abs(a) == 1), None)
        if unit is not None:
            v, a = unit
            # a*v + rest + const = 0  =>  v = -(rest + const)/a
            expr = {u: -b * a for u, b in eq.coeffs if u != v}
            const = -eq.const * a
            subs.append((v, expr, const))
            new_work = []
            for c in work:
                if c is eq:
                    continue
                c2 = _substitute(c, v, expr, const)
                if c2 is c:
                    new_work.append(c)
                else:
                    _add_row(new_work, c2)
            work = new_work
            continue
        # symmetric-modulus change of variable (no unit coefficient)
        v, a = min(eq.coeffs, key=lambda p: (abs(p[1]), p[0]))
        m = abs(a) + 1
        fresh += 1
        s = f"$omega{fresh}"
        hat = {u: _smod(b, m) for u, b in eq.coeffs}
        hat_c = _smod(eq.const, m)
        # sum hat_b_i x_i + hat_c = m * s, and hat coefficient of v is -sign(a)
        _add_row(work, con("eq", {**hat, s: -m}, hat_c))
    else:
        raise InternalError("equality elimination did not terminate")
    return work, subs


def _add_row(rows: list[LinCon], c: LinCon):
    """Append c tightened; a ground row is checked and dropped instead."""
    if c.coeffs:
        rows.append(_tighten(c))
    elif not _check_ground(c):
        raise _Infeasible()


def _check_ground(c: LinCon) -> bool:
    return c.const <= 0 if c.op == "le" else c.const == 0


def _as_difference_system(cons: list[LinCon]):
    """Edge list if every constraint is a difference constraint, else None."""
    edges = []  # (u, v, w) meaning  x_v - x_u <= w
    for c in cons:
        if c.op != "le":
            return None
        if len(c.coeffs) == 0:
            if c.const > 0:
                raise _Infeasible()
        elif len(c.coeffs) == 1:
            (v, a), = c.coeffs
            if a == 1:
                edges.append(("$zero", v, -c.const))  # v - 0 <= -const
            elif a == -1:
                edges.append((v, "$zero", -c.const))  # 0 - v <= -const
            else:
                return None
        elif len(c.coeffs) == 2:
            (v1, a1), (v2, a2) = c.coeffs
            if a1 == 1 and a2 == -1:
                edges.append((v2, v1, -c.const))  # v1 - v2 <= -const
            elif a1 == -1 and a2 == 1:
                edges.append((v1, v2, -c.const))  # v2 - v1 <= -const
            else:
                return None
        else:
            return None
    return edges


def _solve_difference(cons: list[LinCon]) -> dict[str, int] | None:
    edges = _as_difference_system(cons)
    if edges is None:
        return None
    nodes = {"$zero"}
    for u, v, _ in edges:
        nodes.update((u, v))
    # Bellman-Ford from a virtual source with 0-weight edges to every node
    dist = {n: 0 for n in nodes}
    for _ in range(len(nodes)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    else:
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                raise _Infeasible()
    base = dist["$zero"]
    return {n: dist[n] - base for n in nodes if n != "$zero"}


# -- exact rational simplex (phase 1 only) --------------------------------------------

def _simplex_feasible(cons: list[LinCon], extra: list[LinCon]):
    """Rational solution of the inequality system, or None if infeasible.

    Free variables are split as x = p - q with p, q >= 0; every row gets a
    slack, negative right-hand sides are negated, and phase-1 artificials are
    driven to zero with Bland's rule.
    """
    system = cons + extra
    vars_ = sorted({v for c in system for v, _ in c.coeffs})
    if not vars_:
        return {} if all(_check_ground(c) for c in system) else None
    nv = len(vars_)
    vidx = {v: i for i, v in enumerate(vars_)}
    m = len(system)
    ncols = 2 * nv + m          # p's, q's, slacks
    total = ncols + m           # + artificials
    tab: list[list[Fraction]] = []
    for i, c in enumerate(system):
        row = [Fraction(0)] * (total + 1)
        for v, a in c.coeffs:
            row[vidx[v]] += a
            row[nv + vidx[v]] -= a
        row[2 * nv + i] = Fraction(1)
        row[total] = Fraction(-c.const)
        if row[total] < 0:
            row = [-x for x in row]
        row[ncols + i] = Fraction(1)
        tab.append(row)
    basis = [ncols + i for i in range(m)]
    # phase-1 objective: minimize the artificial sum, expressed over nonbasic cols
    obj = [Fraction(0)] * (total + 1)
    for row in tab:
        for j in range(total + 1):
            obj[j] += row[j]
    for i in range(m):
        obj[ncols + i] = Fraction(0)

    for _ in range(20000):
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            break
        candidates = [(tab[i][total] / tab[i][enter], basis[i], i)
                      for i in range(m) if tab[i][enter] > 0]
        if not candidates:
            raise InternalError("phase-1 objective unbounded")
        _, _, pr = min(candidates)
        piv = tab[pr][enter]
        tab[pr] = [x / piv for x in tab[pr]]
        for i in range(m):
            if i != pr and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[pr])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[pr])]
        basis[pr] = enter
    else:
        raise ResourceLimitError("simplex iteration limit")
    if obj[total] != 0:
        return None
    values = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            values[b] = tab[i][total]
    return {v: values[vidx[v]] - values[nv + vidx[v]] for v in vars_}


def _branch_and_bound(cons: list[LinCon], budget: list[int]) -> dict[str, int] | None:
    stack: list[list[LinCon]] = [[]]
    while stack:
        extra = stack.pop()
        budget[0] -= 1
        if budget[0] <= 0:
            raise ResourceLimitError("branch-and-bound node cap")
        sol = _simplex_feasible(cons, extra)
        if sol is None:
            continue
        frac = next((v for v in sorted(sol) if sol[v].denominator != 1), None)
        if frac is None:
            return {v: int(x) for v, x in sol.items()}
        val = sol[frac]
        lo = val.numerator // val.denominator  # floor
        stack.append(extra + [con("le", {frac: -1}, lo + 1)])   # x >= lo+1
        stack.append(extra + [con("le", {frac: 1}, -lo)])       # x <= lo
    return None


def solve(cons: list[LinCon], *, node_cap: int = DEFAULT_NODE_CAP) -> dict[str, int] | None:
    """Integer model of the conjunction, or None when infeasible."""
    try:
        ineqs, subs = _eliminate_equalities(list(cons))
        model = _solve_difference(ineqs)
        if model is None:
            budget = [node_cap]
            model = _branch_and_bound(ineqs, budget)
            if model is None:
                return None
    except _Infeasible:
        return None
    # replay eliminated equalities, newest first
    for v, expr, const in reversed(subs):
        model[v] = const + sum(b * model.get(u, 0) for u, b in expr.items())
    return {v: x for v, x in model.items() if not v.startswith("$")}
