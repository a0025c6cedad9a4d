"""Deciding quantifier-free EUF+LIA reducts.

The built-in solver searches the preserved Boolean structure depth-first
with one backtrackable congruence closure and one push/pop LIA system per
solve, driven together: the literals of a branch are asserted into both in
place and retracted on backtrack.  A linear literal becomes a row over the
congruence classes when it is asserted, and each union of a class the LIA
system mentions adds the equality of the two class variables.  A disequality
is kept as an `ne` row next to the linear `ne` literals.  Each conjunction is
decided by linear integer feasibility over the classes; a violated `ne` row
and a functional inconsistency of the candidate model are repaired by case
splits, all through one routine whose arms are reduced literals: the two
strict sides of the row, or the two applications being equal or one of their
argument pairs differing.  Every sat verdict is re-checked by an independent
evaluator before being returned.

An external SMT-LIB process can be driven in batch mode as an alternative
backend; its model response is parsed back into the same IntModel shape.
"""

from __future__ import annotations

import shlex
import subprocess
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from . import lia
from .errors import InternalError, ProtocolError, ResourceLimitError, SpawnError
from .parser import SExpr, read_sexprs
from .reduce import (
    RAnd, RApp, RConst, REq, RFalseF, RFormula, RLin, RNot, ROr, RTerm, RTrueF,
    RVar, ReducedFormula, SymbolTable,
)

DEFAULT_BRANCH_CAP = 200000
DEFAULT_SPLIT_CAP = 20000


@dataclass
class IntModel:
    values: dict[str, int] = field(default_factory=dict)
    funcs: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    defaults: dict[str, int] = field(default_factory=dict)

    def value(self, name: str) -> int:
        return self.values.get(name, 0)

    def app(self, fn: str, args: tuple[int, ...]) -> int:
        return self.funcs.get(fn, {}).get(args, self.defaults.get(fn, 0))


@dataclass
class SolverResult:
    status: str  # 'sat' | 'unsat' | 'unknown'
    model: IntModel | None = None
    reason: str | None = None

    @staticmethod
    def sat(model: IntModel) -> "SolverResult":
        return SolverResult("sat", model=model)

    @staticmethod
    def unsat() -> "SolverResult":
        return SolverResult("unsat")

    @staticmethod
    def unknown(reason: str) -> "SolverResult":
        return SolverResult("unknown", reason=reason)


# -- independent evaluator ---------------------------------------------------------

def eval_rterm(t: RTerm, model: IntModel) -> int:
    if isinstance(t, RVar):
        return model.value(t.name)
    if isinstance(t, RConst):
        return t.value
    return model.app(t.fn, tuple(eval_rterm(a, model) for a in t.args))


def eval_reduced(f: RFormula, model: IntModel) -> bool:
    if isinstance(f, RTrueF):
        return True
    if isinstance(f, RFalseF):
        return False
    if isinstance(f, REq):
        return eval_rterm(f.lhs, model) == eval_rterm(f.rhs, model)
    if isinstance(f, RNot):
        return not eval_reduced(f.arg, model)
    if isinstance(f, RLin):
        total = f.const + sum(c * eval_rterm(t, model) for c, t in f.terms)
        return {"le": total <= 0, "eq": total == 0, "ne": total != 0}[f.op]
    if isinstance(f, RAnd):
        return all(eval_reduced(a, model) for a in f.args)
    if isinstance(f, ROr):
        return any(eval_reduced(a, model) for a in f.args)
    raise AssertionError(f)


# -- congruence closure -------------------------------------------------------------

class _CC:
    """Backtrackable congruence closure (Nieuwenhuis-Oliveras).

    Union by size without path compression, so every change is undone by
    popping an explicit trail back to the mark of the matching push().  A
    signature table keyed by (function, child representatives) finds the
    congruences a merge creates by re-signing the apps over the smaller class.
    """

    def __init__(self):
        self.ids: dict[RTerm, int] = {}
        self.terms: list[RTerm] = []
        self.args: list[tuple[int, ...]] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        self.uses: list[list[int]] = []  # per class root: apps over the class
        self.const_of: dict[int, int] = {}
        self.sigs: dict[tuple, int] = {}
        self.trail: list[tuple] = []
        self.marks: list[int] = []

    def push(self):
        self.marks.append(len(self.trail))

    def pop(self):
        mark = self.marks.pop()
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            kind = entry[0]
            if kind == "use":
                self.uses[entry[1]].pop()
            elif kind == "sig":
                del self.sigs[entry[1]]
            elif kind == "union":
                _, ra, rb, moved_const = entry
                self.parent[ra] = ra
                self.size[rb] -= self.size[ra]
                if moved_const:
                    del self.const_of[rb]
            else:  # "term"
                del self.ids[self.terms.pop()]
                self.args.pop()
                self.parent.pop()
                self.size.pop()
                self.uses.pop()
                self.const_of.pop(len(self.terms), None)

    def add(self, t: RTerm) -> int:
        i = self.ids.get(t)
        if i is not None:
            return i
        args = tuple(self.add(a) for a in t.args) if isinstance(t, RApp) else ()
        i = len(self.terms)
        self.ids[t] = i
        self.terms.append(t)
        self.args.append(args)
        self.parent.append(i)
        self.size.append(1)
        self.uses.append([])
        self.trail.append(("term",))
        if isinstance(t, RConst):
            self.const_of[i] = t.value
        elif isinstance(t, RApp):
            sig = (t.fn, tuple(self.find(a) for a in args))
            other = self.sigs.get(sig)
            if other is not None:
                self.merge(i, other)  # a fresh singleton: no uses, no constant
            else:
                self.sigs[sig] = i
                self.trail.append(("sig", sig))
                for r in sig[1]:
                    self.uses[r].append(i)
                    self.trail.append(("use", r))
        return i

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            i = parent[i]
        return i

    def merge(self, i: int, j: int) -> bool:
        """Union two classes and propagate congruences; False on a constant
        clash, which leaves partial work for the enclosing pop()."""
        pending = [(i, j)]
        while pending:
            a, b = pending.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            if self.size[ra] > self.size[rb]:
                ra, rb = rb, ra
            ca, cb = self.const_of.get(ra), self.const_of.get(rb)
            if ca is not None and cb is not None:
                return False  # one term per constant: distinct classes clash
            self.parent[ra] = rb
            self.size[rb] += self.size[ra]
            if ca is not None:
                self.const_of[rb] = ca
            self.trail.append(("union", ra, rb, ca is not None))
            for u in self.uses[ra]:
                sig = (self.terms[u].fn, tuple(self.find(x) for x in self.args[u]))
                other = self.sigs.get(sig)
                if other is None:
                    self.sigs[sig] = u
                    self.uses[rb].append(u)
                    self.trail.append(("sig", sig))
                    self.trail.append(("use", rb))
                elif self.find(other) != self.find(u):
                    pending.append((u, other))
        return True


# -- branch decision ------------------------------------------------------------------

class _Budget:
    def __init__(self, branches: int, splits: int):
        self.branches = branches
        self.splits = splits

    def spend_branch(self):
        self.branches -= 1
        if self.branches <= 0:
            raise ResourceLimitError("branch cap exhausted")

    def spend_split(self):
        self.splits -= 1
        if self.splits <= 0:
            raise ResourceLimitError("split cap exhausted")


def _row(op: str, coeffs: dict[int, int], const: int) -> lia.LinCon:
    """A linear constraint over the class variables #t<root>."""
    return lia.con(op, {f"#t{r}": a for r, a in coeffs.items()}, const)


class _Search:
    """DFS over the Boolean structure with one congruence closure and one
    LIA system: literals are asserted along the current path and retracted
    on backtrack.  A linear literal is translated over the class roots once,
    when it is asserted; a later union of a class the system mentions adds
    the equality of the two class variables (or of the variable and the
    class's constant), which eliminates one of the two."""

    def __init__(self, budget: _Budget):
        self.budget = budget
        self.cc = _CC()
        self.lia = lia.System()
        self.mentioned: dict[int, None] = {}  # roots the system has seen, in order
        self.nes: list[tuple[tuple[tuple[int, int], ...], int]] = []  # `ne` rows
        self.marks: list[tuple[int, int]] = []

    def push(self):
        self.cc.push()
        self.lia.push()
        self.marks.append((len(self.nes), len(self.mentioned)))

    def pop(self):
        self.cc.pop()
        self.lia.pop()
        n_nes, n_mentioned = self.marks.pop()
        del self.nes[n_nes:]
        while len(self.mentioned) > n_mentioned:
            self.mentioned.popitem()

    def add_row(self, op: str, coeffs: dict[int, int], const: int) -> None:
        for r, a in coeffs.items():
            if a:
                self.mentioned.setdefault(r)
        self.lia.add(_row(op, coeffs, const))

    def merge(self, i: int, j: int) -> bool:
        """Union two classes in the CC and carry every union it makes over to
        the LIA system; False on a constant clash."""
        cc = self.cc
        start = len(cc.trail)
        if not cc.merge(i, j):
            return False
        for entry in cc.trail[start:]:
            if entry[0] != "union":
                continue
            _, ra, rb, moved_const = entry
            k = cc.const_of.get(rb)
            if moved_const:  # ra brought the constant: pin rb's variable
                if rb in self.mentioned:
                    self.add_row("eq", {rb: 1}, -k)
            elif ra in self.mentioned:
                if k is None:
                    self.add_row("eq", {ra: 1, rb: -1}, 0)
                else:
                    self.add_row("eq", {ra: 1}, -k)
        return True

    def assert_lit(self, lit: RFormula) -> bool:
        """Add one literal to the current scope; False when it contradicts
        the congruence classes outright.  A disequality a != b is kept as the
        `ne` row 1*a - 1*b != 0."""
        cc = self.cc
        if isinstance(lit, REq):
            return self.merge(cc.add(lit.lhs), cc.add(lit.rhs))
        if isinstance(lit, RNot):
            self.nes.append((((1, cc.add(lit.arg.lhs)), (-1, cc.add(lit.arg.rhs))), 0))
        elif isinstance(lit, RLin):
            pairs = tuple((c, cc.add(t)) for c, t in lit.terms)
            if lit.op == "ne":
                self.nes.append((pairs, lit.const))
            else:
                self.add_row(lit.op, *self.translate(pairs, lit.const))
        elif not isinstance(lit, RTrueF):
            raise InternalError(f"unexpected literal {lit}")
        return True

    def search(self, pending: list[RFormula]) -> IntModel | None:
        """All definite conjuncts are asserted before branching, and a branch
        is pruned as soon as its definite part is already inconsistent."""
        queue = deque(pending)
        lits: list[RFormula] = []
        ors: list[ROr] = []
        while queue:
            f = queue.popleft()
            if isinstance(f, RTrueF):
                continue
            if isinstance(f, RFalseF):
                return None
            if isinstance(f, RAnd):
                queue.extendleft(reversed(f.args))
            elif isinstance(f, ROr):
                ors.append(f)
            else:
                lits.append(f)
        self.budget.spend_split()
        if not all(self.assert_lit(lit) for lit in lits):
            return None
        model = self.decide()
        if model is None or not ors:
            return model
        first, rest = ors[0], ors[1:]
        self.budget.spend_branch()
        for arm in first.args:
            self.push()
            out = self.search([arm] + rest)
            self.pop()
            if out is not None:
                return out
        return None

    def split(self, arms: list[RFormula], then: Callable[[], IntModel | None]) -> IntModel | None:
        """A case split inside the asserted conjunction: each arm literal in
        turn is asserted in its own scope and `then()` decides it; the first
        model wins."""
        self.budget.spend_split()
        for arm in arms:
            self.budget.spend_split()
            self.push()
            out = then() if self.assert_lit(arm) else None
            self.pop()
            if out is not None:
                return out
        return None

    def translate(self, pairs, const: int) -> tuple[dict[int, int], int]:
        """sum(coef * term) + const over class roots, constants folded in."""
        find, const_of = self.cc.find, self.cc.const_of
        coeffs: dict[int, int] = {}
        c = const
        for coef, i in pairs:
            r = find(i)
            val = const_of.get(r)
            if val is not None:
                c += coef * val
            else:
                coeffs[r] = coeffs.get(r, 0) + coef
        return coeffs, c

    def decide(self) -> IntModel | None:
        """Decide the asserted conjunction: integer feasibility of the linear
        atoms over the classes, with the `ne` rows translated over the current
        roots; a row that translates to 0 != 0 is a conflict."""
        pending_ne: list[tuple[dict[int, int], int]] = []
        for pairs, const in self.nes:
            coeffs, c = self.translate(pairs, const)
            if any(coeffs.values()):
                pending_ne.append((coeffs, c))
            elif c == 0:
                return None
        return self.decide_lia(pending_ne)

    def class_values(self, model_map: dict[str, int]) -> tuple[dict[int, int], list[int]]:
        """The value of every class root and of every term: solved, constant,
        or, for a class no row constrains, a distinct value clear of the
        solved ones, so that such classes neither collide in function tables
        nor violate disequalities."""
        cc = self.cc
        spread = 1 + max((abs(v) for v in model_map.values()), default=0)
        root_value: dict[int, int] = {}
        values: list[int] = []
        for i in range(len(cc.terms)):
            r = cc.find(i)
            if r not in root_value:
                v = model_map.get(f"#t{r}", cc.const_of.get(r))
                if v is None:
                    v, spread = spread, spread + 1
                root_value[r] = v
            values.append(root_value[r])
        return root_value, values

    def decide_lia(self, pending_ne: list[tuple[dict[int, int], int]]) -> IntModel | None:
        """Integer feasibility over fixed classes; violated disequalities and
        functional inconsistencies are repaired by recursive case splits."""
        model_map = self.lia.model()
        if model_map is None:
            return None
        # lazily split the first `ne` row the candidate model violates into
        # its two strict sides, `le` literals over the class representatives:
        # the classes do not change on those arms, so the translated rows stay
        # valid and the side stays asserted for the functional-consistency
        # splits below it.  A row over solved classes reads the model; only
        # one over a class no row constrains needs the value of every class
        root_value = values = None
        for coeffs, c in pending_ne:
            if root_value is None and any(f"#t{r}" not in model_map for r in coeffs):
                root_value, values = self.class_values(model_map)
            if root_value is None:
                total = c + sum(a * model_map[f"#t{r}"] for r, a in coeffs.items())
            else:
                total = c + sum(a * root_value[r] for r, a in coeffs.items())
            if total != 0:
                continue
            terms = self.cc.terms
            sides = [RLin("le", tuple((sign * a, terms[r]) for r, a in coeffs.items()),
                          sign * c + 1) for sign in (1, -1)]
            return self.split(sides, lambda: self.decide_lia(pending_ne))
        if values is None:
            root_value, values = self.class_values(model_map)

        # functional consistency under the candidate model: two apps of one
        # function that agree on their arguments must agree on their values,
        # else split on the apps being equal or one argument pair differing
        cc = self.cc
        model = IntModel()
        first: dict[tuple, int] = {}
        for i, t in enumerate(cc.terms):
            if isinstance(t, RVar):
                model.values[t.name] = values[i]
            elif isinstance(t, RApp):
                args = tuple(values[a] for a in cc.args[i])
                j = first.setdefault((t.fn, args), i)
                if values[j] != values[i]:
                    break
                model.funcs.setdefault(t.fn, {})[args] = values[i]
        else:
            return model
        t1, t2 = cc.terms[j], t
        arms = [REq(t1, t2)] + [RNot(REq(a1, a2)) for a1, a2 in zip(t1.args, t2.args)
                                if cc.find(cc.ids[a1]) != cc.find(cc.ids[a2])]
        return self.split(arms, self.decide)


# -- public solve ------------------------------------------------------------------------

def solve(reduct: ReducedFormula, *, branch_cap: int = DEFAULT_BRANCH_CAP,
          split_cap: int = DEFAULT_SPLIT_CAP) -> SolverResult:
    try:
        model = _Search(_Budget(branch_cap, split_cap)).search([reduct.formula])
    except ResourceLimitError as e:
        return SolverResult.unknown(str(e))
    if model is None:
        return SolverResult.unsat()
    # values for declared variables that no literal mentioned
    for name in reduct.table.int_vars:
        model.values.setdefault(name, 0)
    if not eval_reduced(reduct.formula, model):
        raise InternalError("solver produced a model that fails re-evaluation")
    return SolverResult.sat(model)


# -- SMT-LIB emission ----------------------------------------------------------------------

def _rterm_text(t: RTerm) -> str:
    if isinstance(t, RVar):
        return t.name
    if isinstance(t, RConst):
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if not t.args:
        return t.fn
    return "(" + " ".join([t.fn] + [_rterm_text(a) for a in t.args]) + ")"


def _rlin_text(f: RLin) -> str:
    parts = []
    for c, t in f.terms:
        if c == 1:
            parts.append(_rterm_text(t))
        else:
            parts.append(f"(* {c} {_rterm_text(t)})")
    if f.const != 0 or not parts:
        parts.append(str(f.const) if f.const >= 0 else f"(- {-f.const})")
    lhs = parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"
    if f.op == "le":
        return f"(<= {lhs} 0)"
    if f.op == "eq":
        return f"(= {lhs} 0)"
    return f"(not (= {lhs} 0))"


def rformula_text(f: RFormula) -> str:
    if isinstance(f, RTrueF):
        return "true"
    if isinstance(f, RFalseF):
        return "false"
    if isinstance(f, REq):
        return f"(= {_rterm_text(f.lhs)} {_rterm_text(f.rhs)})"
    if isinstance(f, RNot):
        return f"(not {rformula_text(f.arg)})"
    if isinstance(f, RLin):
        return _rlin_text(f)
    op = "and" if isinstance(f, RAnd) else "or"
    return f"({op} " + " ".join(rformula_text(a) for a in f.args) + ")"


def smtlib_declarations(table: SymbolTable) -> list[str]:
    """One `declare-fun` line per integer constant and function of a table."""
    lines = [f"(declare-fun {name} () Int)" for name in table.int_vars]
    for name, (arity, _) in table.funs.items():
        args = " ".join(["Int"] * arity)
        lines.append(f"(declare-fun {name} ({args}) Int)")
    return lines


def emit_smtlib(reduct: ReducedFormula) -> str:
    lines = ["(set-logic QF_UFLIA)", *smtlib_declarations(reduct.table),
             f"(assert {rformula_text(reduct.formula)})", "(check-sat)", "(get-model)"]
    return "\n".join(lines) + "\n"


# -- external backend ------------------------------------------------------------------------

def run_solver(cmd: str, script: str, timeout: float, name: str) -> str | None:
    """Feed a script to an external solver process and return its stripped
    standard output, or None when it times out.  A command that cannot be
    started (unbalanced quotes, a missing or non-executable binary) raises
    SpawnError and empty output ProtocolError; `name` labels the solver in
    both messages."""
    try:
        proc = subprocess.run(shlex.split(cmd), input=script, text=True,
                              capture_output=True, timeout=timeout)
    except (OSError, ValueError) as e:
        raise SpawnError(f"cannot launch {name}: {e}") from e
    except subprocess.TimeoutExpired:
        return None
    out = proc.stdout.strip()
    if not out:
        raise ProtocolError(f"{name} produced no output", raw=proc.stderr)
    return out


def solve_external(reduct: ReducedFormula, cmd: str, *,
                   timeout: float = 30.0) -> SolverResult:
    out = run_solver(cmd, emit_smtlib(reduct), timeout, "external solver")
    if out is None:
        return SolverResult.unknown("external solver timeout")
    lines = out.splitlines()
    verdict = lines[0].strip()
    if verdict == "unsat":
        return SolverResult.unsat()
    if verdict == "unknown":
        return SolverResult.unknown("external solver returned unknown")
    if verdict != "sat":
        raise ProtocolError(f"unexpected solver verdict {verdict!r}", raw=out)
    body = "\n".join(lines[1:])
    model = parse_model_response(body) if body.strip() else IntModel()
    return SolverResult.sat(model)


def parse_model_response(text: str) -> IntModel:
    """Parse a get-model response: a (model ...) or bare (...) list of
    define-funs, or the define-funs themselves at top level."""
    try:
        exprs = read_sexprs(text)
    except Exception as e:
        raise ProtocolError(f"unparseable model response: {e}", raw=text) from e
    model = IntModel()
    items: list[SExpr] = []
    for e in exprs:
        if not e.items:
            continue
        head = e.items[0].value
        if head == "define-fun":
            items.append(e)
        else:
            items.extend(e.items[1:] if head == "model" else e.items)
    for d in items:
        if d.items is None or len(d.items) < 5 or d.items[0].value != "define-fun":
            continue
        name = d.items[1].value
        params = d.items[2]
        body = d.items[4]
        if params.items is None:
            continue
        if not params.items:
            model.values[name] = _parse_int_value(body, text)
        else:
            arg_names = [p.items[0].value for p in params.items]
            graph: dict[tuple[int, ...], int] = {}
            default = _parse_ite_graph(body, arg_names, graph, text)
            model.funcs[name] = graph
            model.defaults[name] = default
    return model


def _parse_int_value(e: SExpr, raw: str) -> int:
    if e.is_atom:
        try:
            return int(e.value)
        except ValueError as err:
            raise ProtocolError(f"expected integer, got {e.value!r}", raw=raw) from err
    if (e.items and len(e.items) == 2 and e.items[0].value == "-"):
        return -_parse_int_value(e.items[1], raw)
    raise ProtocolError(f"expected integer value, got {e}", raw=raw)


def _parse_ite_graph(e: SExpr, arg_names: list[str], graph: dict, raw: str) -> int:
    """Fold a nested (ite (and (= x v) ...) r else) body into a finite graph."""
    if e.items is not None and e.items and e.items[0].value == "ite":
        cond, then, rest = e.items[1], e.items[2], e.items[3]
        key = _parse_cond(cond, arg_names, raw)
        graph[key] = _parse_int_value(then, raw)
        return _parse_ite_graph(rest, arg_names, graph, raw)
    return _parse_int_value(e, raw)


def _parse_cond(e: SExpr, arg_names: list[str], raw: str) -> tuple[int, ...]:
    eqs: dict[str, int] = {}

    def eat_eq(x: SExpr):
        if x.items is None or len(x.items) != 3 or x.items[0].value != "=":
            raise ProtocolError(f"unexpected model condition {x}", raw=raw)
        a, b = x.items[1], x.items[2]
        if a.is_atom and a.value in arg_names:
            eqs[a.value] = _parse_int_value(b, raw)
        elif b.is_atom and b.value in arg_names:
            eqs[b.value] = _parse_int_value(a, raw)
        else:
            raise ProtocolError(f"unexpected model condition {x}", raw=raw)

    if e.items is not None and e.items and e.items[0].value == "and":
        for x in e.items[1:]:
            eat_eq(x)
    else:
        eat_eq(e)
    try:
        return tuple(eqs[n] for n in arg_names)
    except KeyError as err:
        raise ProtocolError(f"incomplete model condition {e}", raw=raw) from err


# -- simplification-trace replay ---------------------------------------------------------------

def complete_model(reduct: ReducedFormula, model: IntModel) -> IntModel:
    """Extend a model of a simplified reduct to one of the original reduct by
    replaying the simplification trace newest-first."""
    out = IntModel(dict(model.values), {k: dict(v) for k, v in model.funcs.items()},
                   dict(model.defaults))
    for step in reversed(reduct.trace):
        kind, var, payload = step
        if kind == "subst":
            out.values[var] = eval_rterm(payload, out)
        else:  # dropped literal: choose any value satisfying it
            out.values[var] = _solve_dropped(payload, var, out)
    return out


def _solve_dropped(lit: RFormula, var: str, model: IntModel) -> int:
    def value_of(t: RTerm) -> int:
        return eval_rterm(t, model)

    if isinstance(lit, REq):
        other = lit.rhs if isinstance(lit.lhs, RVar) and lit.lhs.name == var else lit.lhs
        return value_of(other)
    if isinstance(lit, RNot):
        eq = lit.arg
        other = eq.rhs if isinstance(eq.lhs, RVar) and eq.lhs.name == var else eq.lhs
        return value_of(other) + 1
    if isinstance(lit, RLin):
        coeff = 0
        rest = lit.const
        for c, t in lit.terms:
            if isinstance(t, RVar) and t.name == var:
                coeff += c
            else:
                rest += c * value_of(t)
        if coeff == 0:
            return 0
        if lit.op == "eq":
            return -rest // coeff
        if lit.op == "ne":
            return 0 if rest != 0 else 1
        # le: coeff*v + rest <= 0; pick the bound value
        if coeff > 0:
            return (-rest) // coeff          # floor(-rest/coeff)
        return -((-rest) // (-coeff))        # ceil(rest/(-coeff))
    raise InternalError(f"cannot solve dropped literal {lit}")
