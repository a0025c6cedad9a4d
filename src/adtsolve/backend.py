"""Deciding quantifier-free EUF+LIA reducts.

The built-in solver searches the preserved Boolean structure depth-first
with one backtrackable congruence closure and one push/pop LIA system per
solve, driven together: the literals of a branch are asserted into both in
place and retracted on backtrack.  The congruence closure holds the term
equalities and the LIA system every integer fact: a linear literal or a
disequality becomes a row over the congruence classes when it is asserted (a
disequality as an `ne` row), the class variable of each constant term is
pinned to its value, and each union of a class the system mentions adds the
equality of the two class variables.  Each conjunction is decided by linear
integer feasibility over the classes; a violated `ne` row and a functional
inconsistency of the candidate model are repaired by case splits, all
through one routine: the two strict sides of the row, as `le` rows, or the
two applications being equal or one of their argument pairs differing.
Every sat verdict is re-checked by an independent evaluator before being
returned.

An external SMT-LIB process can be driven in batch mode as an alternative
backend; its model response is parsed back into the same IntModel shape.
"""

from __future__ import annotations

import shlex
import subprocess
from collections import deque
from dataclasses import dataclass, field

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
    # on sat from the built-in search: the arm taken at each disjunction
    # branched on the way to the model, outermost first
    path: tuple[int, ...] = ()

    @staticmethod
    def sat(model: IntModel, path: tuple[int, ...] = ()) -> "SolverResult":
        return SolverResult("sat", model=model, path=path)

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
                _, ra, rb = entry
                self.parent[ra] = ra
                self.size[rb] -= self.size[ra]
            else:  # "term"
                del self.ids[self.terms.pop()]
                self.args.pop()
                self.parent.pop()
                self.size.pop()
                self.uses.pop()

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
        if isinstance(t, RApp):
            sig = (t.fn, tuple(self.find(a) for a in args))
            other = self.sigs.get(sig)
            if other is not None:
                self.merge(i, other)  # a fresh singleton without uses
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

    def merge(self, i: int, j: int) -> None:
        """Union two classes and propagate congruences."""
        pending = [(i, j)]
        while pending:
            a, b = pending.pop()
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            if self.size[ra] > self.size[rb]:
                ra, rb = rb, ra
            self.parent[ra] = rb
            self.size[rb] += self.size[ra]
            self.trail.append(("union", ra, rb))
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


class _Search:
    """DFS over the Boolean structure with one congruence closure and one
    LIA system: literals are asserted along the current path and retracted
    on backtrack.  The CC holds the term equalities and the system every
    integer fact: a linear literal or disequality becomes a row over the
    class variables #t<root> once, when it is asserted, each new constant
    term's variable is pinned to its value by an `eq` row, and a later union
    of a class the system mentions adds the equality of the two class
    variables, which eliminates one of the two."""

    def __init__(self, budget: _Budget):
        self.budget = budget
        self.cc = _CC()
        self.lia = lia.System()
        self.mentioned: dict[int, None] = {}  # roots the system has seen, in order
        self.marks: list[int] = []
        self.path: list[int] = []  # arms taken to the model, innermost first

    def push(self):
        self.cc.push()
        self.lia.push()
        self.marks.append(len(self.mentioned))

    def pop(self):
        self.cc.pop()
        self.lia.pop()
        n_mentioned = self.marks.pop()
        while len(self.mentioned) > n_mentioned:
            self.mentioned.popitem()

    def add_row(self, op: str, coeffs: dict[int, int], const: int) -> None:
        for r, a in coeffs.items():
            if a:
                self.mentioned.setdefault(r)
        self.lia.add(lia.con(op, {f"#t{r}": a for r, a in coeffs.items()}, const))

    def add(self, t: RTerm) -> int:
        """The CC node of a term, with the variable of each constant term
        this adds pinned to the constant's value."""
        cc = self.cc
        start = len(cc.terms)
        i = cc.add(t)
        for j in range(start, len(cc.terms)):
            if isinstance(cc.terms[j], RConst):
                self.add_row("eq", {j: 1}, -cc.terms[j].value)
        return i

    def merge(self, i: int, j: int) -> None:
        """Union two classes in the CC and carry every union it makes over to
        the LIA system."""
        cc = self.cc
        start = len(cc.trail)
        cc.merge(i, j)
        for entry in cc.trail[start:]:
            if entry[0] == "union" and entry[1] in self.mentioned:
                self.add_row("eq", {entry[1]: 1, entry[2]: -1}, 0)

    def translate(self, pairs) -> dict[int, int]:
        """The coefficient of every class root in sum(coef * term)."""
        coeffs: dict[int, int] = {}
        for coef, t in pairs:
            r = self.cc.find(self.add(t))
            coeffs[r] = coeffs.get(r, 0) + coef
        return coeffs

    def assert_lit(self, lit: RFormula | lia.LinCon) -> None:
        """Add one literal, or a row over the system's variables, to the
        current scope.  A disequality a != b is the `ne` row 1*a - 1*b != 0.
        A row, such as a side of a violated `ne` row, mentions only classes
        the system has seen already."""
        if isinstance(lit, lia.LinCon):
            self.lia.add(lit)
        elif isinstance(lit, REq):
            self.merge(self.add(lit.lhs), self.add(lit.rhs))
        elif isinstance(lit, RNot):
            self.add_row("ne", self.translate(((1, lit.arg.lhs), (-1, lit.arg.rhs))), 0)
        elif isinstance(lit, RLin):
            self.add_row(lit.op, self.translate(lit.terms), lit.const)
        elif not isinstance(lit, RTrueF):
            raise InternalError(f"unexpected literal {lit}")

    def search(self, pending: list[RFormula],
               resume: tuple[int, ...] = ()) -> IntModel | None:
        """All definite conjuncts are asserted before branching, and a branch
        is pruned as soon as its definite part is already inconsistent.  The
        first disjunction collected is branched on, its arms in order, with
        the other disjunctions passed on behind the arm; on success the arm
        indices taken are left in `self.path`, innermost first.

        `resume` is the `path` of a model of an earlier formula G whose
        every top-level conjunct is one of this formula F's and whose
        top-level disjunctions come first among F's, in the same order (the
        unfolding loop checks this, `sizesolve._extends`).  At depth i the
        search then starts at arm `resume[i]`, passes the rest of the path
        only into that arm, and skips `decide()` at the node, and it returns
        the model a fresh search of F returns:
        - by induction on the depth, the disjunctions collected at each node
          on the path are G's there, in G's order, followed by F's extra
          ones, and the definite literals asserted include G's there;
        - so below each arm before `resume[i]`, F's conjunction of the
          literals and disjunctions left is G's with more conjuncts, and the
          search of G exhausted that arm without a model: `decide` is
          complete on a conjunction (it returns a model, returns None, or
          raises ResourceLimitError, which ends the solve as unknown), so F
          has no model there, and a fresh search of F finds none there;
        - a node on the path still branches, so its `decide()` could only
          prune, and the subtree below it is searched anyway;
        - the search state at each node is the one a fresh search reaches
          there, since push and pop restore it exactly; so from the end of
          the path on, both searches visit the same nodes in the same order
          and return the same model (up to the budget: a fresh search can
          spend its caps on the skipped arms and give up where this one does
          not).
        In the unfolding loop G is round k's reduct and F round k+1's: the
        reducer's memo returns round k's reductions, the new case clause is
        appended last, and range rows hold no disjunction.  The one reduction
        a round can change is a selector literal that the new clause guards
        (rule 2'): it drops its one-case disjunction and the Skolems in it,
        and a model of F gives one of G by setting each dropped Skolem to
        the matching unfolded variable.  When that case also drops a
        disjunction nested in the dropped part (a size-image membership with
        several cases), G's disjunctions are no longer a prefix of F's, the
        check fails, and the round searches afresh."""
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
        for lit in lits:
            self.assert_lit(lit)
        if resume:
            if not ors or resume[0] >= len(ors[0].args):
                raise InternalError("resumed path does not fit the formula")
            start = resume[0]
        else:
            model = self.decide()
            if model is None or not ors:
                return model
            start = 0
        first, rest = ors[0], ors[1:]
        self.budget.spend_branch()
        for i in range(start, len(first.args)):
            self.push()
            out = self.search([first.args[i]] + rest, resume[1:] if i == start else ())
            self.pop()
            if out is not None:
                self.path.append(i)
                return out
        return None

    def split(self, arms: list[RFormula | lia.LinCon]) -> IntModel | None:
        """A case split inside the asserted conjunction: each arm in turn is
        asserted in its own scope and decided; the first model wins."""
        self.budget.spend_split()
        for arm in arms:
            self.budget.spend_split()
            self.push()
            self.assert_lit(arm)
            out = self.decide()
            self.pop()
            if out is not None:
                return out
        return None

    def class_values(self, model_map: dict[str, int]) -> list[int]:
        """The value of every term: its class variable's in the model, where
        a class the model leaves free is given a distinct value clear of the
        solved ones and added to the model, so that such classes neither
        collide in function tables nor violate disequalities."""
        cc = self.cc
        spread = 1 + max((abs(v) for v in model_map.values()), default=0)
        root_value: dict[int, int] = {}
        values: list[int] = []
        for i in range(len(cc.terms)):
            r = cc.find(i)
            v = root_value.get(r)
            if v is None:
                name = f"#t{r}"
                v = model_map.get(name)
                if v is None:
                    v = model_map[name] = spread
                    spread += 1
                root_value[r] = v
            values.append(v)
        return values

    def decide(self) -> IntModel | None:
        """Integer feasibility of the asserted conjunction over fixed classes;
        violated disequalities and functional inconsistencies are repaired by
        recursive case splits."""
        model_map = self.lia.model()
        if model_map is None:
            return None
        # lazily split the first `ne` row the candidate model violates into
        # its two strict sides; a row over solved variables reads the model,
        # and only one over a class no row constrains needs every class value
        values = None
        for row in self.lia.nes():
            if values is None and any(v not in model_map for v, _ in row.coeffs):
                values = self.class_values(model_map)
            if row.const + sum(a * model_map[v] for v, a in row.coeffs) == 0:
                return self.split([lia.LinCon("le", tuple((v, s * a) for v, a in row.coeffs),
                                              s * row.const + 1) for s in (1, -1)])
        if values is None:
            values = self.class_values(model_map)

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
        return self.split([REq(t1, t2)] + [RNot(REq(a1, a2)) for a1, a2 in zip(t1.args, t2.args)
                                           if cc.find(cc.ids[a1]) != cc.find(cc.ids[a2])])


# -- public solve ------------------------------------------------------------------------

def solve(reduct: ReducedFormula, *, resume: tuple[int, ...] = (),
          branch_cap: int = DEFAULT_BRANCH_CAP,
          split_cap: int = DEFAULT_SPLIT_CAP) -> SolverResult:
    """Decide a reduct.  `resume` is the `path` of an earlier reduct's model
    that this one extends (see `_Search.search`); the result is the one a
    fresh search gives."""
    search = _Search(_Budget(branch_cap, split_cap))
    try:
        model = search.search([reduct.formula], resume)
    except ResourceLimitError as e:
        return SolverResult.unknown(str(e))
    if model is None:
        return SolverResult.unsat()
    # values for declared variables that no literal mentioned
    for name in reduct.table.int_vars:
        model.values.setdefault(name, 0)
    if not eval_reduced(reduct.formula, model):
        raise InternalError("solver produced a model that fails re-evaluation")
    return SolverResult.sat(model, tuple(reversed(search.path)))


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
