"""Deciding quantifier-free EUF+LIA reducts.

The built-in solver searches the preserved Boolean structure depth-first
with one backtrackable congruence closure and one push/pop LIA system per
search, driven together: the literals of a branch are asserted into both in
place and retracted on backtrack.  The congruence closure holds the term
equalities and the LIA system every integer fact: a linear literal, a
disequality included (an `ne` row), becomes a row over the congruence
classes when it is asserted, the class variable of each constant term is
pinned to its value, and each union of a class the system mentions adds the
equality of the two class variables.  Each conjunction is decided by linear
integer feasibility over the classes; a violated `ne` row and a functional
inconsistency of the candidate model are repaired by case splits, choice
points on the search's one stack like its disjunctions: the two strict sides
of the row, as `le` rows, or the two applications being equal or one of
their argument pairs differing.  One order picks the split: the system's
violated `ne` row with the fewest variables, the earliest added among equals
(fail first), and only when there is none a row over a class the system
leaves free that the candidate violates, or else a functional inconsistency.
A probe reads only what changed since the last one: the LIA system keeps
its model as data and watches the `ne` rows (see `lia.System`), and the
terms of a reduct are interned by its symbol table, so the congruence
closure finds a term it holds by identity.
An inner node of the search is settled without a decide when the model of
the conjunction it extends satisfies its literals; leaves are always
decided, so the models returned are the ones deciding every node gives.
A sat model is returned unchecked: the decision loop checks the model it
accepts once, in `models.reconstruct`'s walk over the reduct.  An external
solver's model, input from outside the program, is checked here.

A `Session` keeps one search live across the solves of a growing formula,
such as the rounds of the unfolding loop: a formula whose top-level
conjuncts begin with the last one's goes on from the leaf of the last model
with only the suffix asserted, and its verdict is the one a fresh search
gives.

An external SMT-LIB process can be driven in batch mode as an alternative
backend; its model response is parsed back into the same IntModel shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lia
from .errors import InternalError, ProtocolError, ResourceLimitError, SpawnError
from .parser import SExpr, read_sexprs
from .reduce import (
    RAnd, RApp, RConst, REq, RFalseF, RFormula, RLin, ROr, RTerm, RTrueF,
    RVar, ReducedFormula, SymbolTable, _top_conjuncts, ne_sides, rne,
)
from .semantics import _int_text

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


# -- independent evaluator ---------------------------------------------------------

def eval_rterm(t: RTerm, model: IntModel) -> int:
    """The value of a reduced term under `model` (see `IntModel.value` and
    `IntModel.app`).  Exact-type dispatch and a plain loop over the
    arguments: this runs on every node of every model check."""
    kind = type(t)
    if kind is RVar:
        return model.values.get(t.name, 0)
    if kind is RConst:
        return t.value
    values = model.values
    args = []
    for a in t.args:
        kind = type(a)
        args.append(values.get(a.name, 0) if kind is RVar
                    else a.value if kind is RConst else eval_rterm(a, model))
    graph = model.funcs.get(t.fn)
    value = graph.get(tuple(args)) if graph is not None else None
    return model.defaults.get(t.fn, 0) if value is None else value


def eval_reduced(f: RFormula, model: IntModel) -> bool:
    """Whether `model` satisfies a reduced formula; a conjunction stops at
    its first false conjunct and a disjunction at its first true arm."""
    kind = type(f)
    if kind is REq:
        return eval_rterm(f.lhs, model) == eval_rterm(f.rhs, model)
    if kind is RLin:
        total = f.const
        for c, t in f.terms:
            total += c * eval_rterm(t, model)
        op = f.op
        return total <= 0 if op == "le" else total == 0 if op == "eq" else total != 0
    if kind is ROr:
        for a in f.args:
            if eval_reduced(a, model):
                return True
        return False
    if kind is RAnd:
        for a in f.args:
            if not eval_reduced(a, model):
                return False
        return True
    if kind is RTrueF:
        return True
    if kind is RFalseF:
        return False
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
        ids = self.ids
        i = ids.get(t)
        if i is not None:
            return i
        is_app = type(t) is RApp
        if is_app:
            args = []
            for a in t.args:
                j = ids.get(a)
                args.append(self.add(a) if j is None else j)
            args = tuple(args)
        else:
            args = ()
        i = len(self.terms)
        ids[t] = i
        self.terms.append(t)
        self.args.append(args)
        self.parent.append(i)
        self.size.append(1)
        self.uses.append([])
        self.trail.append(("term",))
        if is_app:
            sig = (t.fn, tuple([self.find(a) for a in args]))
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
    """The splits left of a call's cap, and the branches taken so far: a
    node splits before it branches, so the split cap bounds both."""

    def __init__(self, splits: int):
        self.splits = splits
        self.branches = 0

    def spend_split(self):
        self.splits -= 1
        if self.splits <= 0:
            raise ResourceLimitError("split cap exhausted")


def _conjuncts(pending: list[RFormula]) -> tuple[list[RFormula], list[ROr]] | None:
    """The literals and the disjunctions of a conjunction, each in order, or
    None when one of its conjuncts is false."""
    stack = pending[::-1]
    lits: list[RFormula] = []
    ors: list[ROr] = []
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is RAnd:
            stack.extend(reversed(f.args))
        elif kind is ROr:
            ors.append(f)
        elif kind is RFalseF:
            return None
        elif kind is not RTrueF:
            lits.append(f)
    return lits, ors


class _Search:
    """DFS over the Boolean structure with one congruence closure and one
    LIA system: literals are asserted along the current path and retracted
    on backtrack.  The CC holds the term equalities and the system every
    integer fact: a linear literal (a disequality is an `ne` row) becomes a
    row over the class variables #t<root> once, when it is asserted, each
    new constant term's variable is pinned to its value by an `eq` row, and
    a later union of a class the system mentions adds the equality of the
    two class variables, which eliminates one of the two.

    The open choice points, disjunctions and case splits alike, live on
    one explicit stack, so a search that returned a model still holds the
    path to it and can go on from there (`extend`)."""

    def __init__(self, budget: _Budget):
        self.budget = budget
        self.cc = _CC()
        self.lia = lia.System()
        self.mentioned: dict[int, None] = {}  # roots the system has seen, in order
        self.names: list[str] = []  # the system's variable of each CC id, #t<id>
        self.marks: list[int] = []
        # open choice points, outermost first: [disjunctions, arm taken, a
        # model of the node's conjunction, None for a case split]; the node
        # of frames[j] lives in scope depth j, the arm below it in j + 1
        self.frames: list[list] = []
        # literals added by `extend`, each batch with the depth of its scope
        self.carried: list[tuple[int, list[RFormula]]] = []
        self.leaf_model: IntModel | None = None  # the model `search` last returned

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
        names = self.names
        self.lia.add(lia.con(op, {names[r]: a for r, a in coeffs.items()}, const))

    def add(self, t: RTerm) -> int:
        """The CC node of a term, with the variable of each constant term
        this adds pinned to the constant's value.  A term the CC holds is
        found by one lookup, by identity for a term of the reduct's table
        (`SymbolTable.app`)."""
        cc, names = self.cc, self.names
        i = cc.ids.get(t)
        if i is not None:
            return i
        start = len(cc.terms)
        i = cc.add(t)
        for j in range(start, len(cc.terms)):
            if j == len(names):  # an id that a pop freed keeps its name
                names.append(f"#t{j}")
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
        current scope.  A row, such as a side of a violated `ne` row,
        mentions only classes the system has seen already."""
        if isinstance(lit, lia.LinCon):
            self.lia.add(lit)
        elif isinstance(lit, REq):
            self.merge(self.add(lit.lhs), self.add(lit.rhs))
        elif isinstance(lit, RLin):
            self.add_row(lit.op, self.translate(lit.terms), lit.const)
        elif not isinstance(lit, RTrueF):
            raise InternalError(f"unexpected literal {lit}")

    def search(self, pending: list[RFormula],
               witness: IntModel | None = None) -> IntModel | None:
        """Search from the node of the conjunction `pending`, in the current
        scope; `witness`, when given, is a model of the conjunction asserted
        so far.  A node asserts all its definite conjuncts and is pruned as
        soon as they are inconsistent.  It branches on the first disjunction
        collected, its arms in order, with the other disjunctions passed on
        behind the arm; a node that `decide` splits opens a split frame
        (model None) on the split's arms instead, followed by its own
        disjunctions.  A node that gets a model pops the split frames on top
        of the stack with their scopes, and the node that split goes on with
        that model in its own scope.  A split's arms cover every model of
        its node, so the search is complete on a conjunction.  On a model
        the choice points of its path stay open.

        An inner node (one with disjunctions left) is not decided when its
        witness, a model of the conjunction the node extends, satisfies the
        node's literals (`_settles`): a complete search would not prune it,
        and the witness stands in for its model.  An arm's witness is its
        parent's model, on the parent's frame, and the node `extend` adds
        below a leaf has the leaf's; a split arm has none.  A leaf is always
        decided, and `decide` reads only the asserted conjunction, so every
        model returned is the one a search that decides every node returns;
        only the splits spent, and so the split cap, can tell the two apart."""
        ors: list[ROr] = []
        while True:
            parts = _conjuncts(pending)
            if parts is not None:
                lits, ors = parts[0], parts[1] + ors
                self.budget.spend_split()
                for lit in lits:
                    self.assert_lit(lit)
                if ors and witness is not None and self._settles(witness, lits):
                    model = witness
                else:
                    model = self.decide()
                if type(model) is list:
                    self.budget.spend_split()
                    self.frames.append([[ROr(tuple(model))] + ors, -1, None])
                elif model is not None:
                    while self.frames and self.frames[-1][2] is None:
                        self.frames.pop()
                        self.pop()
                    if not ors:
                        self.leaf_model = model
                        return model
                    self.budget.branches += 1
                    self.frames.append([ors, -1, model])
            step = self._next_arm()
            if step is None:
                return None
            arm, ors, witness = step
            pending = [arm]

    def _settles(self, witness: IntModel, lits: list[RFormula]) -> bool:
        """Whether a model of the conjunction a node extends satisfies the
        node's own literals, and so is a model of the node's conjunction."""
        return all(eval_reduced(lit, witness) for lit in lits)

    def _next_arm(self) -> tuple[RFormula | lia.LinCon, list[ROr], IntModel | None] | None:
        """Leave the current node for the next arm of the innermost open
        choice point, in a new scope, and return the arm, the disjunctions
        passed on behind it and the model of the node it extends, or None
        once every choice point is exhausted.  A node whose carried literals
        had to be re-asserted keeps its model when that model satisfies them
        (`_settles`); else it is re-entered in its own scope, without a
        witness, on the arms it has left, and so decided again."""
        frames = self.frames
        while frames:
            frame = frames[-1]
            ors, arm, model = frame
            if arm >= 0:
                self.pop()
                lits = self._restore()
                if lits and not self._settles(model, lits):
                    frames.pop()
                    return RTrueF(), [ROr(ors[0].args[arm + 1:])] + ors[1:], None
            arm += 1
            if arm < len(ors[0].args):
                frame[1] = arm
                self.push()
                return ors[0].args[arm], ors[1:], model
            frames.pop()
        return None

    def _restore(self) -> list[RFormula]:
        """Re-assert in the current scope the carried literals that the last
        pop retracted, and return them."""
        depth = len(self.marks)
        lits: list[RFormula] = []
        while self.carried and self.carried[-1][0] > depth:
            lits[:0] = self.carried.pop()[1]
        if lits:
            self.carried.append((depth, lits))
            for lit in lits:
                self.assert_lit(lit)
        return lits

    def extend(self, added: list[RFormula]) -> IntModel | None:
        """Go on, after `search` returned a model of a formula G, with the
        formula F that conjoins G with `added`.  The new literals are
        asserted in the scope of the model's leaf and carried: a pop that
        retracts them re-asserts them one scope up (`_restore`).  The new
        disjunctions are appended behind those of every open choice point
        and become the leaf's own, since a node's disjunctions are its arm's
        followed by those passed on from above, which end in the top-level
        ones.  The search then goes on from the leaf.

        The verdict is F's.  Every node visited from here on is a node of
        F's search tree, in F's order, with F's literals of that node
        asserted, though the new ones come later than in a fresh search.
        The nodes not visited lie in the subtrees that the search of G
        exhausted before its model.  G has no model in such a subtree: each
        of its leaves was decided and had none, or lies below a node that
        had none (the search is complete on a conjunction, or raises
        ResourceLimitError, which ends the solve as unknown), and a node
        settled by its witness instead was an inner node, whose arms were
        all searched.  F's conjunction at each node implies G's there, so
        a fresh search of F finds no model in those subtrees either.  A node
        on the path, like the node added below the leaf, keeps its model
        only when that model satisfies the new literals re-asserted in its
        scope; else it is re-entered and decided again, and pruned when a
        fresh search of F would prune it.  The model can differ from a fresh
        search's, because the new literals are asserted in another order,
        and so can an unknown: a fresh search can spend its split cap on the
        arms skipped here."""
        parts = _conjuncts(added)
        if parts is None:
            return None
        lits, ors = parts
        for frame in self.frames:
            frame[0].extend(ors)
        self.carried.append((len(self.marks), lits))
        return self.search(added, self.leaf_model)

    def candidate(self, model_map: dict[str, int]
                  ) -> tuple[IntModel, tuple[int, int] | None, dict[str, int]]:
        """The candidate model that a solution of the system gives the
        terms, built in one pass over the CC terms, with the first functional
        inconsistency met and the values given to free classes.

        A term's value is its class variable's in `model_map`, where a class
        the map leaves free is given a distinct value clear of the solved
        ones, so that such classes neither collide in function tables nor
        violate disequalities; every class gets one, in the order of the
        terms, and these values are returned by variable (the map itself is
        the system's and is only read).  Two apps of one function whose
        arguments have the same values must have the same value: the CC ids
        of the first two that do not are returned with the model, else
        None."""
        cc = self.cc
        names, parent, cc_args = self.names, cc.parent, cc.args
        spread = None
        free: dict[str, int] = {}
        root_value: dict[int, int] = {}
        values: list[int] = []
        model = IntModel()
        var_values, funcs = model.values, model.funcs
        first: dict[tuple, int] = {}
        clash = None
        for i, t in enumerate(cc.terms):
            r = i
            while parent[r] != r:
                r = parent[r]
            v = root_value.get(r)
            if v is None:
                v = model_map.get(names[r])
                if v is None:
                    if spread is None:
                        spread = 1 + max(map(abs, model_map.values()), default=0)
                    v = free[names[r]] = spread
                    spread += 1
                root_value[r] = v
            values.append(v)
            kind = type(t)
            if kind is RVar:
                var_values[t.name] = v
            elif kind is RApp:
                args = tuple([values[a] for a in cc_args[i]])
                j = first.setdefault((t.fn, args), i)
                if j == i:
                    funcs.setdefault(t.fn, {})[args] = v
                elif values[j] != v and clash is None:
                    clash = (j, i)
        return model, clash, free

    def decide(self) -> IntModel | list[RFormula | lia.LinCon] | None:
        """One probe of the asserted conjunction: None when its system is
        infeasible, else the arms of a case split, which together cover every
        model, or the candidate model when no split is due.  One order picks
        the split: the violated `ne` row of the system, the one with the
        fewest variables, the earliest added among equals (fail first); when
        there is none, the first loose row (over a class the system leaves
        free), in the same order, that the candidate's values violate; else
        the candidate's first functional clash.  A row splits into its two
        strict sides, as `le` rows, and a clash into the two applications
        being equal or one of their argument pairs differing.

        The system keeps its model and the violated rows from probe to probe
        and reads again only what changed since the last one
        (`lia.System.violated`), so the candidate (`candidate`, one pass over
        the terms) is built only when the system violates no row.  A
        one-variable row x != k splits into two bounds on x, and when k is
        one of x's bounds one side fails as soon as it is added, so the split
        costs one failed probe; the rows over several variables are then
        split under the tighter bounds.  Each split covers every integer
        point of its scope, so the order changes no verdict; only the split
        cap sees it."""
        pick = self.lia.violated()
        if pick is None:
            return None
        best, loose = pick
        if best is None:
            model_map = self.lia.values
            model, clash, free = self.candidate(model_map)
            best = next((row for row in loose
                         if row.const + sum(a * (free[v] if v in free else model_map[v])
                                            for v, a in row.coeffs) == 0), None)
        if best is not None:
            return [lia.LinCon("le", tuple((v, s * a) for v, a in best.coeffs), s * best.const + 1)
                    for s in (1, -1)]
        if clash is None:
            return model
        cc = self.cc
        t1, t2 = cc.terms[clash[0]], cc.terms[clash[1]]
        return [REq(t1, t2)] + [rne(a1, a2) for a1, a2 in zip(t1.args, t2.args)
                                if cc.find(cc.ids[a1]) != cc.find(cc.ids[a2])]


# -- public solve ------------------------------------------------------------------------

class Session:
    """One built-in search kept live across the solves of a growing formula,
    as the rounds of the unfolding loop are.

    After a sat answer the search keeps the scopes and open choice points of
    the path to its model.  A solve of a formula whose top-level conjuncts
    begin with those of the last one, as each round's reduct extends the
    last by a suffix (`Reducer.reduce_flat`), goes on with only the suffix
    (`_Search.extend`).  Any other formula, and any formula after an unsat
    or unknown answer, starts a new search.  `top` lists the top-level
    conjuncts of the formula the search holds; it grows in place while the
    search goes on, and is a new list when the search starts anew.  A solve
    given no session runs in a fresh one."""

    def __init__(self):
        self.search: _Search | None = None
        self.top: list[RFormula] = []

    def added(self, top: list[RFormula]) -> list[RFormula] | None:
        """The conjuncts of `top` beyond the live search's formula, or None
        when there is no live search or `top` does not begin with its
        formula."""
        n = len(self.top)
        if self.search is None or top[:n] != self.top:
            return None
        return top[n:]


def solve(reduct: ReducedFormula, *, session: Session | None = None,
          split_cap: int = DEFAULT_SPLIT_CAP) -> SolverResult:
    """Decide a reduct in `session`, or in a fresh one: the session's live
    search goes on when the reduct extends the formula it holds, and a new
    search starts otherwise; the split cap is per call.  The verdict is the
    one a fresh search gives (see `_Search.extend`).  A sat model is
    returned unchecked (`models.reconstruct` checks it)."""
    if session is None:
        session = Session()
    budget = _Budget(split_cap)
    top = _top_conjuncts(reduct.formula)
    added = session.added(top)
    if added is None:  # a new search, as an extension of the empty formula
        session.search, session.top, added = _Search(budget), [], top
    try:
        session.search.budget = budget
        session.top.extend(added)
        model = session.search.extend(added)
    except ResourceLimitError as e:
        session.search = None
        return SolverResult("unknown", reason=str(e))
    if model is None:
        session.search = None
        return SolverResult("unsat")
    # the search keeps its model as the witness of the node a later solve
    # adds below the leaf (`_Search.extend`); the caller's copy gets values
    # filled in here and may have them repointed
    model = IntModel(dict(model.values), model.funcs, model.defaults)
    # values for declared variables that no literal mentioned
    for name in reduct.table.int_vars:
        model.values.setdefault(name, 0)
    return SolverResult("sat", model)


# -- SMT-LIB emission ----------------------------------------------------------------------

def _rterm_text(t: RTerm) -> str:
    if isinstance(t, RVar):
        return t.name
    if isinstance(t, RConst):
        return _int_text(t.value)
    if not t.args:
        return t.fn
    return "(" + " ".join([t.fn] + [_rterm_text(a) for a in t.args]) + ")"


def _rlin_text(f: RLin) -> str:
    """A row as SMT-LIB; the disequality row of `rne` prints as (not (= a b))."""
    sides = ne_sides(f)
    if sides is not None:
        return f"(not (= {_rterm_text(sides[0])} {_rterm_text(sides[1])}))"
    parts = []
    for c, t in f.terms:
        if c == 1:
            parts.append(_rterm_text(t))
        else:
            parts.append(f"(* {_int_text(c)} {_rterm_text(t)})")
    if f.const != 0 or not parts:
        parts.append(_int_text(f.const))
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
    # imported here: only an external solver needs them, and not at import time
    import shlex
    import subprocess

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
    """Decide a reduct with an external SMT-LIB solver; an unreadable
    response, or a model that fails the reduct, is a protocol error."""
    out = run_solver(cmd, emit_smtlib(reduct), timeout, "external solver")
    if out is None:
        return SolverResult("unknown", reason="external solver timeout")
    lines = out.splitlines()
    verdict = lines[0].strip()
    if verdict == "unsat":
        return SolverResult("unsat")
    if verdict == "unknown":
        return SolverResult("unknown", reason="external solver returned unknown")
    if verdict != "sat":
        raise ProtocolError(f"unexpected solver verdict {verdict!r}", raw=out)
    body = "\n".join(lines[1:])
    model = parse_model_response(body) if body.strip() else IntModel()
    if not eval_reduced(reduct.formula, model):
        raise ProtocolError("external solver's model does not satisfy the reduct", raw=out)
    return SolverResult("sat", model)


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


def complete_model(reduct: ReducedFormula, model: IntModel) -> IntModel:
    """The identity, which nothing calls: `perfbench/tracing.py` wraps this
    name, and ROADMAP item 1's benchmark change deletes it."""
    return model
