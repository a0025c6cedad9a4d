"""Feasibility of conjunctions of linear integer constraints.

Constraints are normalized to `sum(coeff*var) + const` compared with 0 by
`<=`, `=` or `!=`.  Equalities are eliminated (unit-coefficient
substitution, with Pugh's symmetric-modulus variable change when no unit
coefficient exists), every other row is GCD-tightened, and the inequalities
are decided either on the difference-constraint graph (when every one has
that shape) or by an exact rational simplex with branch-and-bound.  The
disequalities are only kept up to date: the caller reads them under a model
and splits a violated one into its two strict sides.

A `System` is this state as a push/pop theory solver: rows join one at a time
through `add`, each rewritten by the substitutions so far that it mentions,
an equality is eliminated as it arrives, and the difference graph is solved
incrementally, one edge at a time; `pop` restores the system of the
matching `push`.  Its model is kept as data across adds and pops, and only
the variables whose distance or substitution changed since the last read
are read again (`refresh`); the `ne` rows are watched the same way from the
start, so a read of the violated ones re-evaluates only the rows added or
rewritten since the last read and the rows over a variable whose value
changed (`violated`).
`solve` is a system built and read once.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple

from .errors import InternalError, ResourceLimitError

NODE_CAP = 20000


class LinCon(NamedTuple):
    """sum(a * v for v, a in coeffs) + const compared with 0 by `op`;
    `System.add` rejects any op but these three."""
    op: str  # 'le' | 'eq' | 'ne'
    coeffs: tuple[tuple[str, int], ...]
    const: int


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


def _tightened(c: LinCon) -> LinCon | None:
    """c divided by the gcd of its coefficients; None for a row that holds
    whatever the values (a true ground row, or an `ne` row whose constant the
    gcd does not divide), _Infeasible for one that never does."""
    if not c.coeffs:
        if _check_ground(c):
            return None
        raise _Infeasible()
    g = 0
    for _, a in c.coeffs:
        g = gcd(g, abs(a))
    if g <= 1:
        return c
    coeffs = tuple((v, a // g) for v, a in c.coeffs)
    if c.op != "le":
        if c.const % g == 0:
            return LinCon(c.op, coeffs, c.const // g)
        if c.op == "eq":
            raise _Infeasible()
        return None
    # sum a_i x_i <= -const  ->  divide and round the bound down (`//` floors)
    return LinCon("le", coeffs, -(-c.const // g))


def _substitute(c: LinCon, var: str, expr: dict[str, int], const: int) -> LinCon | None:
    """c with var = expr . x + const, tightened (see _tightened); c itself
    when var does not occur in it."""
    coeffs = dict(c.coeffs)
    a = coeffs.pop(var, 0)
    if a == 0:
        return c
    out_const = c.const + a * const
    for v, b in expr.items():
        coeffs[v] = coeffs.get(v, 0) + a * b
    return _tightened(con(c.op, coeffs, out_const))


def _check_ground(c: LinCon) -> bool:
    if c.op == "le":
        return c.const <= 0
    return (c.const == 0) == (c.op == "eq")


def _edge(c: LinCon) -> tuple[str, str, int] | None:
    """(u, v, w) meaning x_v - x_u <= w when the tight inequality c is a
    difference constraint, else None."""
    if len(c.coeffs) == 1:  # tight, so the coefficient is 1 or -1
        (v, a), = c.coeffs
        return ("$zero", v, -c.const) if a == 1 else (v, "$zero", -c.const)
    if len(c.coeffs) == 2:
        (v1, a1), (v2, a2) = c.coeffs
        if a1 == 1 and a2 == -1:
            return v2, v1, -c.const
        if a1 == -1 and a2 == 1:
            return v1, v2, -c.const
    return None


# -- exact rational simplex (phase 1 only) --------------------------------------------

def _simplex_feasible(cons: list[LinCon], extra: list[LinCon]):
    """Rational solution of the inequality system, or None if infeasible.

    Free variables are split as x = p - q with p, q >= 0; every row gets a
    slack, negative right-hand sides are negated, and phase-1 artificials are
    driven to zero with Bland's rule.
    """
    # imported here: only branch and bound needs it, and not at import time
    from fractions import Fraction

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


def _branch_and_bound(cons: list[LinCon]) -> dict[str, int] | None:
    """Breadth-first: each branch adds one bound row, and each node's simplex
    grows with its rows, so the depth stays near log2 of the nodes visited
    (depth-first descent on an unbounded polyhedron adds a row per level)."""
    queue: deque[list[LinCon]] = deque([[]])
    budget = NODE_CAP
    while queue:
        extra = queue.popleft()
        budget -= 1
        if budget <= 0:
            raise ResourceLimitError("branch-and-bound node cap")
        sol = _simplex_feasible(cons, extra)
        if sol is None:
            continue
        frac = next((v for v in sorted(sol) if sol[v].denominator != 1), None)
        if frac is None:
            return {v: int(x) for v, x in sol.items()}
        val = sol[frac]
        lo = val.numerator // val.denominator  # floor
        queue.append(extra + [con("le", {frac: 1}, -lo)])       # x <= lo
        queue.append(extra + [con("le", {frac: -1}, lo + 1)])   # x >= lo+1
    return None


def _replay(model: dict[str, int], subs: list[tuple[str, dict[str, int], int]]) -> bool:
    """Give every eliminated variable the value of its substitution, newest
    first; a variable no live inequality bounds gets a distinct value clear
    of the solved ones, so that free variables do not tie and violate an
    `ne` row over them.  Returns whether any variable got such a value."""
    spread = None
    for v, expr, const in reversed(subs):
        value = const
        for u, b in expr.items():
            x = model.get(u)
            if x is None:
                if spread is None:
                    spread = 1 + max(map(abs, model.values()), default=0)
                x = model[u] = spread
                spread += 1
            value += b * x
        model[v] = value
    return spread is not None


class System:
    """Integer feasibility of a conjunction that grows one row at a time and
    shrinks again under push/pop.

    A row added by `add` is first rewritten by the recorded substitutions
    that it mentions and tightened (`_rewritten`).  An equality is then
    eliminated at once: a variable with a unit coefficient is substituted
    (Pugh's symmetric-modulus change of variable makes one when there is
    none), and every live inequality that mentions it is replaced by its
    substituted copy.  A replaced row leaves
    the live set; the live inequalities are what the model is found over.
    The rows to replace are read from `uses`, an index from each variable to
    the positions of the live rows that mention it, in ascending position.
    A disequality (`ne`) row is rewritten in place instead, so the live ones
    keep the order they came in; the model ignores them, and one that
    becomes the ground `0 != 0` makes the system infeasible.

    Every live difference constraint is also an edge of the difference graph,
    which holds the shortest distances `dist` from a virtual source with
    0-weight edges to every node; they are unique, so they do not depend on
    the order in which the edges came.  Each edge is inserted by relaxing from
    its head only, Dijkstra over the reduced costs (Cotton-Maler); the
    insertion closes a negative cycle exactly when it would lower the edge's
    tail.  The edge of a replaced row stays, because its substituted copy and
    the substitution imply it.  While every live inequality is a difference
    constraint the distances are the model; otherwise branch-and-bound
    searches over the live inequalities.  `pop` undoes everything since the
    matching `push` from an explicit trail.

    The model is kept as data in `values` (see `refresh`): the nodes whose
    distance the trail wrote or undid, and the substitutions added or
    popped, since the last read are what it reads again.  The violated
    `ne` rows are kept too, bucketed by their number of variables, and
    re-evaluated only when a row is put or rewritten or one of its
    variables changes value.
    """

    def __init__(self, cons: list[LinCon] = ()):
        self.rows: list[LinCon | None] = []  # `le` and `ne` rows; None once replaced
        self.uses: dict[str, set[int]] = {}  # variable -> positions of live rows with it
        self.ne_uses: dict[str, set[int]] = {}  # the same for the live `ne` rows alone
        self.subs: list[tuple[str, dict[str, int], int]] = []
        self.sub_of: dict[str, int] = {}  # eliminated variable -> its position in subs
        self.sub_uses: dict[str, list[int]] = {}  # variable -> positions in subs of the
        #                                           expressions with it, ascending
        self.dist: dict[str, int] = {"$zero": 0}
        self.out: dict[str, list[tuple[str, int]]] = {"$zero": []}
        # no integer model, whatever rows join: an equality or ground row
        # failed, or the graph has a negative cycle, which is infeasible over
        # the rationals too, so branch-and-bound would find nothing either
        self.infeasible = False
        self.n_general = 0  # live inequalities that are not difference constraints
        self.trail: list[tuple] = []
        self.marks: list[tuple[int, int, int, bool, int]] = []
        # the model as of the last `refresh` that found one, and the
        # variables whose value that refresh changed
        self.values: dict[str, int] = {}
        self.changed: set[str] = set()
        self._stale: set[str] = set()  # nodes and eliminated variables to read again
        self._subs_low = 0  # the substitutions from here on are new since the last read
        self._base: int | None = None  # the source's distance then; None: read all again
        self._spread = False  # whether that read gave free variables spread values
        # the watch of the `ne` rows: the rows to evaluate again, the changed
        # variables not yet applied, and the rows filed as violated (by
        # number of variables) or loose (a variable without a value), with
        # where each position is filed (0 for loose)
        self._touched: set[int] = set()
        self._pending: set[str] = set()
        self._filed: dict[int, int] = {}
        self._bad: dict[int, set[int]] = {}
        self._loose: set[int] = set()
        for c in cons:
            self.add(c)

    @property
    def general(self) -> bool:
        return self.n_general > 0

    def push(self) -> None:
        self.marks.append((len(self.trail), len(self.rows), len(self.subs),
                           self.infeasible, self.n_general))

    def pop(self) -> None:
        mark, n_rows, n_subs, self.infeasible, self.n_general = self.marks.pop()
        trail, dist, stale = self.trail, self.dist, self._stale
        while len(trail) > mark:
            entry = trail.pop()
            kind = entry[0]
            if kind == "dist":
                dist[entry[1]] = entry[2]
                stale.add(entry[1])
            elif kind == "edge":
                self.out[entry[1]].pop()
            elif kind == "row":
                self._put(entry[1], entry[2])
            else:  # "node"
                del dist[entry[1]]
                del self.out[entry[1]]
                stale.add(entry[1])
        for i in range(n_rows, len(self.rows)):
            self._put(i, None)
        del self.rows[n_rows:]
        for v, expr, _ in reversed(self.subs[n_subs:]):
            del self.sub_of[v]
            stale.add(v)
            for u in expr:
                self.sub_uses[u].pop()
        del self.subs[n_subs:]
        self._subs_low = min(self._subs_low, n_subs)

    def add(self, row: LinCon) -> None:
        """Conjoin one row."""
        if row.op not in ("le", "eq", "ne"):
            raise InternalError(f"unknown row op {row.op!r}")
        if self.infeasible:
            return
        try:
            c = self._rewritten(_tightened(row))
            if c is not None and c.op == "eq":
                self._eliminate(c)
            elif c is not None:
                self._add_row(c)
        except _Infeasible:
            self.infeasible = True
        if not self.marks:
            self.trail.clear()  # nothing pops below the first push

    def _rewritten(self, c: LinCon | None) -> LinCon | None:
        """A tight row over live variables: the substitutions whose variable
        it mentions, in the order they were made, re-tightened after each.
        This is the row that applying every substitution in order builds,
        since the others leave it as it is, and a substitution brings in only
        variables that are live or eliminated after it: its expression was
        rewritten by every earlier one."""
        if c is None:
            return None
        sub_of, subs = self.sub_of, self.subs
        due = [sub_of[v] for v, _ in c.coeffs if v in sub_of]
        heapify(due)
        done = -1
        while due:
            k = heappop(due)
            if k == done:
                continue
            done = k
            v, expr, const = subs[k]
            c = _substitute(c, v, expr, const)
            if c is None:
                return None
            for u in expr:
                if u in sub_of:
                    heappush(due, sub_of[u])
        return c

    def _put(self, i: int, row: LinCon | None) -> None:
        """Set position i to `row`, keeping `uses` and `ne_uses` up to date,
        and the watch of the `ne` rows told."""
        uses, ne_uses = self.uses, self.ne_uses
        old = self.rows[i]
        if old is not None:
            for v, _ in old.coeffs:
                uses[v].discard(i)
            if old.op == "ne":
                for v, _ in old.coeffs:
                    ne_uses[v].discard(i)
                self._touched.add(i)
        if row is not None:
            for v, _ in row.coeffs:
                uses.setdefault(v, set()).add(i)
            if row.op == "ne":
                for v, _ in row.coeffs:
                    ne_uses.setdefault(v, set()).add(i)
                self._touched.add(i)
        self.rows[i] = row

    def _add_row(self, c: LinCon) -> None:
        self.rows.append(None)
        self._put(len(self.rows) - 1, c)
        if c.op == "ne":
            return
        edge = _edge(c)
        if edge is None:
            self.n_general += 1
        elif not self._insert(*edge):
            raise _Infeasible()

    def _eliminate(self, eq: LinCon) -> None:
        for _ in range(10000):  # a guard: each Omega step shrinks the coefficients
            v, a = next(((u, b) for u, b in eq.coeffs if abs(b) == 1), (None, 0))
            pivot = eq
            if v is None:
                # symmetric-modulus change of variable: sum hat_b_i x_i + hat_c =
                # m * s has coefficient -sign(a) on v, and v is substituted
                # through it, which shrinks the coefficients of the equality
                v, a = min(eq.coeffs, key=lambda p: (abs(p[1]), p[0]))
                m = abs(a) + 1
                hat = {u: _smod(b, m) for u, b in eq.coeffs}
                pivot = con("eq", {**hat, f"$omega{len(self.subs)}": -m},
                            _smod(eq.const, m))
                a = -1 if a > 0 else 1
            # a*v + rest + const = 0  =>  v = -(rest + const)/a
            expr = {u: -b * a for u, b in pivot.coeffs if u != v}
            const = -pivot.const * a
            self.sub_of[v] = len(self.subs)
            for u in expr:
                self.sub_uses.setdefault(u, []).append(len(self.subs))
            self.subs.append((v, expr, const))
            # in ascending position, so replaced rows are re-added in order
            for i in sorted(self.uses.get(v, ())):
                r = self.rows[i]
                self.trail.append(("row", i, r))
                if r.op == "ne":
                    self._put(i, _substitute(r, v, expr, const))
                    continue
                self._put(i, None)
                if _edge(r) is None:
                    self.n_general -= 1
                r = _substitute(r, v, expr, const)
                if r is not None:
                    self._add_row(r)
            if pivot is eq:
                return
            eq = _substitute(eq, v, expr, const)
            if eq is None:
                return
        raise InternalError("equality elimination did not terminate")

    def _insert(self, u: str, v: str, w: int) -> bool:
        """Add the edge x_v - x_u <= w and restore the shortest distances;
        False when the edge closes a negative cycle."""
        dist, out, trail, stale = self.dist, self.out, self.trail, self._stale
        for n in (u, v):
            if n not in dist:
                dist[n] = 0
                out[n] = []
                trail.append(("node", n))
                stale.add(n)
        out[u].append((v, w))
        trail.append(("edge", u))
        # gap[x] < 0 is how far x's distance falls; reduced costs are >= 0,
        # so each node is settled once, in order of its final gap
        gap = {v: dist[u] + w - dist[v]}
        if gap[v] >= 0:
            return True
        heap = [(gap[v], v)]
        while heap:
            g, x = heappop(heap)
            if g > gap[x]:
                continue  # superseded by a larger fall
            trail.append(("dist", x, dist[x]))
            stale.add(x)
            dist[x] += g
            for y, c in out[x]:
                gy = dist[x] + c - dist[y]
                if gy < gap.get(y, 0):
                    if y == u:
                        return False
                    gap[y] = gy
                    heappush(heap, (gy, y))
        return True

    def model(self) -> dict[str, int] | None:
        """Integer model of the inequalities and equalities in scope, the
        variables of the Omega steps included, or None when infeasible; a
        copy of `values` (see `refresh`)."""
        return dict(self.values) if self.refresh() else None

    def refresh(self) -> bool:
        """Bring `values` up to the rows in scope, or return False when they
        are infeasible (`values` then keeps the last model).  `changed`
        names the variables whose value (or presence) differs from the last
        model found.

        A node's value is its distance minus the source's, and an eliminated
        variable's is its substitution replayed, newest first, over the
        values so far; a variable that only a substitution mentions gets a
        distinct value clear of the solved ones (`_replay`).  When neither the
        source's distance nor the use of those spread values changes, only
        the nodes whose distance the trail wrote or undid since the last
        read, the variables of the substitutions popped since, and the
        substitutions added since or over a variable whose value changed are
        read again, newest first.  Every other case, branch-and-bound
        included, builds the model anew."""
        if self.infeasible:
            return False
        if self.general:
            model = _branch_and_bound([r for r in self.rows
                                       if r is not None and r.op == "le"])
            if model is None:
                return False
            _replay(model, self.subs)
            self._swap(model, None, False)
            return True
        dist, sub_of, sub_uses, subs = self.dist, self.sub_of, self.sub_uses, self.subs
        base = dist["$zero"]
        if base != self._base or self._spread:
            return self._rebuild(base)
        # a spread value is due, when none was at the last read, only for a
        # variable whose node or substitution was popped or that a new
        # substitution mentions
        updates = []
        for n in self._stale:
            if n in sub_of or n == "$zero":
                continue  # the replay below gives an eliminated variable its value
            d = dist.get(n)
            if d is None:
                if sub_uses.get(n):
                    return self._rebuild(base)
                updates.append((n, None))
            else:
                updates.append((n, d - base))
        low = self._subs_low
        if low < len(subs) and any(u not in dist and u not in sub_of
                                   for _, expr, _ in subs[low:] for u in expr):
            return self._rebuild(base)
        values, changed = self.values, set()
        for n, x in updates:
            if values.get(n) != x:
                if x is None:
                    del values[n]
                else:
                    values[n] = x
                changed.add(n)
        due = list(range(low, len(subs)))
        for n in changed:
            ks = sub_uses.get(n)
            if ks:
                due.extend(ks)
        if due:
            due = [-k for k in due]
            heapify(due)
            done = None
            while due:
                k = -heappop(due)
                if k == done:
                    continue
                done = k
                v, expr, const = subs[k]
                value = const
                for u, b in expr.items():
                    value += b * values[u]
                if values.get(v) != value:
                    values[v] = value
                    changed.add(v)
                    for j in sub_uses.get(v, ()):
                        heappush(due, -j)
        self._note(changed)
        return True

    def _rebuild(self, base: int) -> bool:
        model = {n: d - base for n, d in self.dist.items() if n != "$zero"}
        self._swap(model, base, _replay(model, self.subs))
        return True

    def _swap(self, model: dict[str, int], base: int | None, spread: bool) -> None:
        """Make a model built anew the kept one; `base` None reads the next
        model anew too."""
        old = self.values
        changed = {n for n, x in model.items() if old.get(n) != x}
        changed.update(n for n in old if n not in model)
        self.values, self._base, self._spread = model, base, spread
        self._note(changed)

    def _note(self, changed: set[str]) -> None:
        self.changed = changed
        self._stale = set()
        self._subs_low = len(self.subs)
        self._pending |= changed

    def violated(self) -> tuple[LinCon | None, list[LinCon]] | None:
        """None when the system is infeasible (see `refresh`); else the `ne`
        row that `values` violates with the fewest variables, the earliest
        added among equals, or None, and, in that order, every loose row:
        those over a variable without a value, which the caller must read
        under values of its own.

        It files again only the rows put or rewritten since the last call
        and the rows over a variable whose value changed since."""
        if not self.refresh():
            return None
        rows, values, filed, bad, loose = self.rows, self.values, self._filed, self._bad, self._loose
        due, ne_uses = self._touched, self.ne_uses
        for v in self._pending:
            rows_of = ne_uses.get(v)
            if rows_of:
                due |= rows_of
        self._touched = set()
        self._pending.clear()
        n_rows = len(rows)
        for i in due:
            k = filed.pop(i, None)
            if k == 0:
                loose.discard(i)
            elif k is not None:
                bucket = bad[k]
                bucket.discard(i)
                if not bucket:
                    del bad[k]
            row = rows[i] if i < n_rows else None
            if row is None or row.op != "ne":
                continue  # popped, or an `le` row at a popped `ne` row's position
            total = row.const
            for v, a in row.coeffs:
                x = values.get(v)
                if x is None:
                    filed[i] = 0
                    loose.add(i)
                    break
                total += a * x
            else:
                if total == 0:
                    k = len(row.coeffs)
                    filed[i] = k
                    bucket = bad.get(k)
                    if bucket is None:
                        bucket = bad[k] = set()
                    bucket.add(i)
        best = None
        if bad:
            k = min(bad)
            best = rows[min(bad[k])]
        return best, [rows[i] for _, i in sorted((len(rows[i].coeffs), i) for i in loose)]


def solve(cons: list[LinCon]) -> dict[str, int] | None:
    """Integer model of a conjunction of `le` and `eq` rows, or None when
    infeasible."""
    return System(cons).model()
