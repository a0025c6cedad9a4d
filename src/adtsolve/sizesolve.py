"""The decision loop: one solve pipeline for every formula.

`run_loop` reduces, solves, and then either reconstructs and checks an ADT
model or unfolds one more variable and repeats.  A round's formula is the
last one's top-level conjuncts followed by a case clause, so with one
reducer for every round its reduct is the last reduct followed by the
clause's reduction and the new variables' range rows, and one backend
session searches on from the previous round's model with only that suffix.  A clause that guards a variable can change an old conjunct's
reduction; then the reduct does not begin with the last one, and the
session starts a new search.
The acceptance test evaluates only the conjuncts that mention a variable
it repoints; the model a round accepts is checked once on the whole reduct,
by `reconstruct`, and once on the input formula, by `check_model`.
Depth mode, used for size-free formulas, accepts the first model.
Size mode tests the termination conditions: an unsat reduct settles the
input, and a sat reduct is accepted once every ADT variable's integer value
coincides with the value of some unfolded variable of the same sort.
Otherwise one more variable is unfolded into its constructor cases and the
loop repeats, up to a fuel bound; running out of fuel yields an unknown
verdict carrying the expandingness diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import backend
from .backend import eval_reduced
from .errors import AdtSolveError, InternalError
from .models import ReconstructionStats, check_model, reconstruct
from .normalize import FlatFormula, flatten, to_nnf
# the benchmark's tracer wraps `simplify` under this module's name, so it stays
from .reduce import (
    DEPTH_MODE, SIZE_MODE, ReducedFormula, Reducer, RFormula,
    _top_conjuncts, _var_occurrences, reduce, simplify,  # noqa: F401
)
from .signature import ExpandingReport, Signature, check_expanding, ensure_valid
from .terms import (
    AdtModel, And, Ctor, Eq, Formula, Not, Or, SizeAtom, Var, conj, disj, free_vars,
)

DEFAULT_FUEL = 100
_STARVATION_AGE = 4


class AlreadyUnfoldedError(AdtSolveError):
    pass


class UnknownVariableError(AdtSolveError):
    pass


@dataclass
class UnfoldState:
    """Formula under unfolding: tagged conjuncts plus unfolding bookkeeping."""

    sig: Signature
    conjuncts: list[tuple[str, Formula]] = field(default_factory=list)
    var_sorts: dict[str, str] = field(default_factory=dict)
    int_vars: set[str] = field(default_factory=set)
    registry: dict[str, object] = field(default_factory=dict)
    var_partition: dict[str, str] = field(default_factory=dict)
    unfolded: set[str] = field(default_factory=set)
    rounds: int = 0
    fuel: int = DEFAULT_FUEL
    sites: dict[str, tuple[str, int]] = field(default_factory=dict)
    waiting_age: dict[str, int] = field(default_factory=dict)
    counter: int = 0

    def flat(self) -> FlatFormula:
        return FlatFormula(
            formula=conj([f for _, f in self.conjuncts]),
            registry=self.registry,
            var_sorts=self.var_sorts,
            int_vars=self.int_vars,
        )

    def part(self, tag: str) -> FlatFormula:
        """The conjuncts of one part, with the variables they mention."""
        formula = conj([f for t, f in self.conjuncts if t == tag])
        fv = free_vars(formula)
        names = {v.name for v in fv.adt}
        return FlatFormula(
            formula=formula,
            registry=self.registry,
            var_sorts={n: s for n, s in self.var_sorts.items() if n in names},
            int_vars=set(fv.ints),
        )

    def root_of(self, name: str) -> str:
        while name in self.sites:
            name = self.sites[name][0]
        return name


def make_state(parts: list[tuple[str, FlatFormula]], sig: Signature,
               fuel: int = DEFAULT_FUEL) -> UnfoldState:
    """The unfolding state of one or more tagged flat formulas: one part when
    deciding, partitions A and B when interpolating.  A part enters as its
    top-level conjuncts, and unfolding appends a variable's cases tagged with
    its part, so each round's formula extends the last one by a conjunct.
    Each variable belongs to the first part that mentions it, so a variable
    shared by A and B stays with A."""
    state = UnfoldState(sig=sig, fuel=fuel)
    for tag, flat in parts:
        phi = flat.formula
        state.conjuncts += [(tag, c) for c in (phi.args if isinstance(phi, And) else (phi,))]
        for name, sort in flat.var_sorts.items():
            if name not in state.var_sorts:
                state.var_sorts[name] = sort
                state.var_partition[name] = tag
        state.int_vars.update(flat.int_vars)
        state.registry.update(flat.registry)
    return state


def unfold_step(state: UnfoldState, name: str) -> UnfoldState:
    """Conjoin the constructor-case disjunction for one variable."""
    if name not in state.var_sorts:
        raise UnknownVariableError(name)
    if name in state.unfolded:
        raise AlreadyUnfoldedError(name)
    sort = state.var_sorts[name]
    partition = state.var_partition[name]
    x = Var(name, sort)
    cases = []
    state.rounds += 1
    for decl in state.sig.ctors_of(sort):
        args = []
        for _, arg_sort in decl.args:
            state.counter += 1
            fresh = f"_u{state.counter}"
            while fresh in state.var_sorts or fresh in state.int_vars:
                state.counter += 1
                fresh = f"_u{state.counter}"
            state.var_sorts[fresh] = arg_sort
            state.var_partition[fresh] = partition
            state.sites[fresh] = (name, state.rounds)
            args.append(Var(fresh, arg_sort))
        cases.append(Eq(Ctor(decl.name, tuple(args)), x))
    state.conjuncts.append((partition, disj(cases)))
    state.unfolded.add(name)
    state.waiting_age.pop(name, None)
    return state


@dataclass
class Diagnosis:
    text: str
    report: ExpandingReport | None = None
    mismatches: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class SizeSolveResult:
    status: str  # 'sat' | 'unsat' | 'unknown'
    model: AdtModel | None = None
    diagnosis: Diagnosis | None = None
    rounds: int = 0
    state: UnfoldState | None = None
    reduct: ReducedFormula | None = None  # the query of the last round solved


def _select_variable(state: UnfoldState, mismatched: list[str],
                     model: backend.IntModel, reduct: ReducedFormula) -> str:
    """Smallest current size value first, ties by creation order; a variable
    kept waiting too long is served by age to preserve systematic fairness."""
    for v in mismatched:
        state.waiting_age[v] = state.waiting_age.get(v, 0) + 1
    for v in list(state.waiting_age):
        if v not in mismatched:
            state.waiting_age.pop(v)
    starved = [v for v in mismatched if state.waiting_age.get(v, 0) >= _STARVATION_AGE]
    order = {n: i for i, n in enumerate(state.var_sorts)}  # creation order
    if starved:
        return min(starved, key=lambda v: order[v])

    def size_of(v: str) -> int:
        fn = reduct.table.by_origin.get(("size", state.var_sorts[v]))
        return model.app(fn, (model.value(v),)) if fn else 0

    return min(mismatched, key=lambda v: (size_of(v), order[v]))


class _Mentions:
    """The top-level conjuncts of a solved reduct that mention each
    variable.  Over a session, which extends its `top` list in place while
    its search goes on, the index lasts as long as that list and scans only
    the conjuncts each round adds; without one, every reduct is indexed
    afresh."""

    def __init__(self, session: backend.Session | None):
        self.session = session
        self.top: list[RFormula] | None = None
        self.seen = 0
        self.by_var: dict[str, list[RFormula]] = {}

    def of(self, reduct: ReducedFormula) -> dict[str, list[RFormula]]:
        top = self.session.top if self.session else _top_conjuncts(reduct.formula)
        if top is not self.top:
            self.top, self.seen, self.by_var = top, 0, {}
        for f in top[self.seen:]:
            names: dict[str, int] = {}
            _var_occurrences(f, names)
            for name in names:
                self.by_var.setdefault(name, []).append(f)
        self.seen = len(top)
        return self.by_var


def _mismatched(state: UnfoldState, model: backend.IntModel,
                reduct: ReducedFormula, index: _Mentions) -> list[str]:
    """Acceptance test: the ADT variables whose value matches no unfolded
    variable of the same sort.  Unconstrained variables are repointed at
    unfolded values first when the formula stays satisfied.

    A variable of a sort the reduct maps to indices (`table.enum_sorts`)
    never mismatches: its range constraint pins its value to a constructor
    index, `reconstruct` maps that index to its nullary constructor, of size
    1, the one size the reduct's size-image constraint allows the sort, and
    distinct indices are distinct terms.  So the value already names a term
    that satisfies everything the reduct says of it, and unfolding the
    variable would only restate its range."""
    enum_sorts = reduct.table.enum_sorts
    values_of_unfolded: dict[str, set[int]] = {}
    for u in state.unfolded:
        values_of_unfolded.setdefault(state.var_sorts[u], set()).add(model.value(u))
    mentions: dict[str, list[RFormula]] | None = None
    for v, sort in state.var_sorts.items():
        candidates = values_of_unfolded.get(sort, set())
        if sort in enum_sorts or not candidates or model.value(v) in candidates:
            continue
        if mentions is None:
            # the search's model satisfies the whole reduct (`reconstruct`
            # checks the one accepted), and repointing a variable can only
            # falsify the conjuncts that mention it
            mentions = index.of(reduct)
        old = model.value(v)
        for w in sorted(candidates):
            model.values[v] = w
            if all(eval_reduced(f, model) for f in mentions.get(v, ())):
                break
            model.values[v] = old
    return [v for v, sort in state.var_sorts.items()
            if sort not in enum_sorts
            and model.value(v) not in values_of_unfolded.get(sort, set())]


def reduction_mode(phi: Formula) -> str:
    """Size mode for formulas with size atoms, depth mode for the rest."""
    return SIZE_MODE if _has_size_atoms(phi) else DEPTH_MODE


def decide(phi: Formula, sig: Signature, fuel: int = DEFAULT_FUEL,
           opt: bool = True, external_cmd: str | None = None) -> SizeSolveResult:
    """Decide a well-typed formula: size-free formulas in depth mode, where
    the first model is accepted, formulas with size atoms in size mode, with
    at most `fuel` unfoldings.  `opt` turns the reducer's two optimizations
    on or off together (`reduce.Reducer`), and `external_cmd`, when given,
    solves each reduct in that external SMT solver."""
    ensure_valid(sig)
    state = make_state([("A", flatten(to_nnf(phi), sig))], sig, fuel=fuel)
    return run_loop(state, reduction_mode(phi), opt=opt, external_cmd=external_cmd)


def run_loop(state: UnfoldState, mode: str, opt: bool = True,
             external_cmd: str | None = None) -> SizeSolveResult:
    """The one solve pipeline: reduce, solve, and either reconstruct and
    check a model or unfold one more variable and repeat.  Depth mode
    accepts the first model; size mode accepts a model once it passes the
    acceptance test.  One reducer serves every round, so a round reduces
    only its new case clause and its reduct extends the last one by a
    suffix, and one `backend.Session` keeps the built-in search live across
    the rounds, so a round searches on from the previous round's model with
    only that suffix; the session starts a new search when a reduct does
    not begin with the last one."""
    sig = state.sig
    reducer = Reducer(sig, mode, opt)
    session = None if external_cmd else backend.Session()
    index = _Mentions(session)
    while True:
        reduct = reduce(state.flat(), sig, mode, opt, reducer)
        if external_cmd:
            result = backend.solve_external(reduct, external_cmd)
        else:
            result = backend.solve(reduct, session=session)
        if result.status == "unsat":
            return SizeSolveResult("unsat", rounds=state.rounds, state=state, reduct=reduct)
        if result.status == "unknown":
            return SizeSolveResult(
                "unknown", rounds=state.rounds, state=state, reduct=reduct,
                diagnosis=Diagnosis(f"backend gave up: {result.reason}"))
        model = result.model
        mismatched = _mismatched(state, model, reduct, index) if mode == SIZE_MODE else []
        if not mismatched:
            stats = ReconstructionStats()
            adt_model = reconstruct(reduct, model, stats)
            ok, diag = check_model(sig, adt_model, state.flat().formula)
            if not ok:
                raise InternalError(f"reconstructed model failed validation: {diag}")
            if mode == SIZE_MODE and stats.case3_pairs:
                var_pairs = {(model.value(v), s) for v, s in state.var_sorts.items()}
                if var_pairs & set(stats.case3_pairs):
                    raise InternalError("fresh term drawn for a constrained variable "
                                        "after the acceptance test fired")
            return SizeSolveResult("sat", model=adt_model, rounds=state.rounds,
                                   state=state, reduct=reduct)
        if state.rounds >= state.fuel:
            report = check_expanding(sig)
            lines = ["fuel exhausted before the unfolding loop converged"]
            lines += [report.cycle_line(s) for s in report.non_expanding_sorts]
            if report.all_expanding:
                lines.append("all sorts expanding: raise the fuel limit to decide")
            return SizeSolveResult(
                "unknown", rounds=state.rounds, state=state, reduct=reduct,
                diagnosis=Diagnosis("\n".join(lines), report,
                                    [(v, model.value(v)) for v in mismatched]))
        target = _select_variable(state, mismatched, model, reduct)
        unfold_step(state, target)


def _has_size_atoms(f: Formula) -> bool:
    """Whether a size atom occurs in `f`.  A size atom is a literal, so only
    the connectives are walked, on a stack: terms may nest deeper than the
    recursion limit."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, SizeAtom):
            return True
        if isinstance(g, (And, Or)):
            stack.extend(g.args)
        elif isinstance(g, Not):
            stack.append(g.arg)
    return False


def completeness_report(sig: Signature) -> str:
    """Human-readable completeness verdict for the size decision loop."""
    report = check_expanding(sig)
    if report.all_expanding:
        return ("decision procedure complete: all sorts expanding; "
                "systematic unfolding terminates on every formula")
    lines = ["decision procedure incomplete: unknown verdicts are possible"]
    lines += [report.cycle_line(s) for s in report.non_expanding_sorts]
    return "\n".join(lines)
