"""Craig interpolation for ADT formulas via reduction.

Interpolation runs on the shared solve pipeline.  `sizesolve.make_state`
builds one unfolding state from the two partitions (a variable shared by A
and B belongs to A), and `sizesolve.run_loop` checks the conjunction in size
mode, unfolding as needed.  When it is unsat, `reduce.reduce_partitions`
reduces each partition of the final state against one shared symbol table
(size mode keeps the reduced vocabulary back-translatable: the size
functions map to the term-size operator, where depth functions would have no
ADT counterpart).  The two reducts go to an external interpolating solver
through `backend.run_solver`, with the declarations of `emit_smtlib`.  The
EUF+LIA interpolant it returns is read by the script parser over the
reduct's integer vocabulary, translated back to the ADT vocabulary and
verified against both implications before being returned; a backend
interpolant that fails verification is a protocol error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .backend import rformula_text, run_solver, smtlib_declarations
from .errors import (
    BackendUnsupportedError, InputError, InternalError, ProtocolError,
    UnknownSymbolError, UntranslatableError,
)
from .normalize import flatten, to_nnf
from .parser import INT_SORT, parse_formula, read_sexprs
from .reduce import (
    RAnd, RApp, RConst, REq, RFormula, RLin, ROr, RTRUE, RFALSE, RTerm,
    RTrueF, RFalseF, RVar, ReducedFormula, SymbolTable, SIZE_MODE,
    linear_atom, ne_sides, reduce_partitions, req, rand, ror,
)
from .signature import Signature, ensure_valid
from .sizesolve import DEFAULT_FUEL, decide, make_state, run_loop
from .terms import (
    AdtModel, And, Ctor, Eq, FalseF, Formula, IntAdd, IntApp, IntConst, IntExpr,
    IntMul, IntVar, Not, Or, Sel, SizeAtom, SizeOf, Term, TRUE, FALSE, Tester,
    TrueF, Var, conj, disj, free_vars,
)


@dataclass
class InterpolationProblem:
    a: Formula
    b: Formula
    sig: Signature

    def shared_vars(self) -> tuple[frozenset[Var], frozenset[str]]:
        fa, fb = free_vars(self.a), free_vars(self.b)
        return fa.adt & fb.adt, fa.ints & fb.ints


@dataclass
class InterpolatingBackend:
    cmd: str
    dialect: str = "smtinterpol"  # or 'cvc5'
    timeout: float = 60.0


@dataclass
class InterpolationOutcome:
    kind: str  # 'interpolant' | 'not-unsat' | 'untranslatable' | 'unknown'
    interpolant: Formula | None = None
    model: AdtModel | None = None
    raw: str = ""
    diagnosis: str = ""


def interpolate(prob: InterpolationProblem, backend: InterpolatingBackend,
                fuel: int = DEFAULT_FUEL, opt: bool = True) -> InterpolationOutcome:
    """Full pipeline: joint satisfiability check, partitioned reduction,
    external interpolant, back-translation, self-verification."""
    sig = prob.sig
    ensure_valid(sig)
    state = make_state([("A", flatten(to_nnf(prob.a), sig, prefix="_ta")),
                        ("B", flatten(to_nnf(prob.b), sig, prefix="_tb"))],
                       sig, fuel=fuel)
    joint = run_loop(state, SIZE_MODE, opt=opt)
    if joint.status == "sat":
        return InterpolationOutcome("not-unsat", model=joint.model)
    if joint.status == "unknown":
        return InterpolationOutcome("unknown", diagnosis=joint.diagnosis.text)

    part_a, part_b = reduce_partitions([("A", state.part("A")),
                                        ("B", state.part("B"))],
                                       sig, opt)
    raw = _query_interpolant(part_a, part_b, backend)
    try:
        reduced_i = parse_reduced(raw, part_a.table)
        interpolant = back_translate(reduced_i, part_a.table)
    except UntranslatableError as e:
        return InterpolationOutcome("untranslatable", raw=e.raw or raw,
                                    diagnosis=str(e))
    if not validate_interpolant(interpolant, prob, fuel=fuel):
        raise ProtocolError(f"backend interpolant failed verification: {raw}",
                            raw=raw)
    return InterpolationOutcome("interpolant", interpolant=interpolant, raw=raw)


# -- external interpolating backends -----------------------------------------------------

def interpolation_script(part_a: ReducedFormula, part_b: ReducedFormula,
                         dialect: str) -> str:
    decls = smtlib_declarations(part_a.table)
    a_text = rformula_text(part_a.formula)
    b_text = rformula_text(part_b.formula)
    if dialect == "smtinterpol":
        lines = ["(set-option :produce-interpolants true)", "(set-logic QF_UFLIA)"]
        lines += decls
        lines.append(f"(assert (! {a_text} :named partA))")
        lines.append(f"(assert (! {b_text} :named partB))")
        lines.append("(check-sat)")
        lines.append("(get-interpolants partA partB)")
    elif dialect == "cvc5":
        lines = ["(set-logic QF_UFLIA)", "(set-option :produce-interpolants true)"]
        lines += decls
        lines.append(f"(assert {a_text})")
        lines.append(f"(get-interpolant itp (not {b_text}))")
    else:
        raise BackendUnsupportedError(f"unknown interpolation dialect {dialect!r}")
    return "\n".join(lines) + "\n"


def _query_interpolant(part_a: ReducedFormula, part_b: ReducedFormula,
                       backend: InterpolatingBackend) -> str:
    script = interpolation_script(part_a, part_b, backend.dialect)
    out = run_solver(backend.cmd, script, backend.timeout, "interpolating solver")
    if out is None:
        raise ProtocolError("interpolating solver timeout")
    if backend.dialect == "smtinterpol":
        lines = out.splitlines()
        if lines[0].strip() != "unsat":
            raise ProtocolError(f"expected unsat, got {lines[0]!r}", raw=out)
        body = "\n".join(lines[1:]).strip()
        exprs = read_sexprs(body)
        if not exprs or exprs[0].items is None or not exprs[0].items:
            raise ProtocolError("no interpolant in response", raw=out)
        return str(exprs[0].items[0])
    # cvc5: (define-fun itp () Bool <term>)
    exprs = read_sexprs(out)
    for e in exprs:
        if e.items and e.items[0].value == "define-fun":
            return str(e.items[4])
    raise ProtocolError("no define-fun in interpolant response", raw=out)


# -- parsing reduced-vocabulary formulas ---------------------------------------------------

def parse_reduced(text: str, table: SymbolTable) -> RFormula:
    """Parse an SMT-LIB Boolean term over the reduced vocabulary, in which
    every table constant is an Int constant and every table function an
    Int-valued uninterpreted function.  Reader errors are untranslatable."""
    int_vars = dict.fromkeys(table.int_vars, INT_SORT)
    ufuns = {name: ((INT_SORT,) * arity, INT_SORT)
             for name, (arity, _) in table.funs.items()}
    try:
        phi = parse_formula(text, Signature((), ()), int_vars, ufuns)
    except (InputError, UnknownSymbolError) as e:
        raise UntranslatableError(str(e), raw=text) from e
    return _reduced(to_nnf(phi))


_PLAIN = (IntConst, IntVar, IntApp)


def _reduced(f: Formula) -> RFormula:
    """An NNF formula over the reduced vocabulary as a reduced formula; an
    equation between plain terms stays an equation, for `back_translate`,
    and a disequality between them is the `ne` row that `rne` builds."""
    if isinstance(f, And):
        return rand([_reduced(a) for a in f.args])
    if isinstance(f, Or):
        return ror([_reduced(a) for a in f.args])
    if isinstance(f, TrueF):
        return RTRUE
    if isinstance(f, FalseF):
        return RFALSE
    # over an empty signature every literal is an integer comparison
    if f.op == "eq" and isinstance(f.lhs, _PLAIN) and isinstance(f.rhs, _PLAIN):
        return req(_rterm(f.lhs), _rterm(f.rhs))
    return linear_atom(f, _rterm)


def _rterm(e: IntExpr) -> RTerm:
    if isinstance(e, IntConst):
        return RConst(e.value)
    if isinstance(e, IntVar):
        return RVar(e.name)
    if isinstance(e, IntApp):
        return RApp(e.fn, tuple(_rterm(a) for a in e.args))
    raise UntranslatableError("compound argument to uninterpreted function")


# -- back-translation -------------------------------------------------------------------------

def back_translate(phi: RFormula, table: SymbolTable) -> Formula:
    """Map a reduced-vocabulary formula back to the ADT language; raises
    UntranslatableError for depth functions, arithmetic on ADT variables of
    non-enumeration sorts, or head indices outside the constructor range."""
    bt = _BackTranslator(table)
    return bt.formula(phi)


class _Index(NamedTuple):
    term: Term
    sort: str
    head_index: bool  # ctorId_S(term); otherwise an enumeration variable


class _BackTranslator:
    def __init__(self, table: SymbolTable):
        self.table = table
        self.sig = table.sig

    def fail(self, what: str, node) -> UntranslatableError:
        return UntranslatableError(what, raw=rformula_text(node) if not
                                   isinstance(node, (RVar, RConst, RApp)) else str(node))

    # classification of reduced terms
    def adt_term(self, t: RTerm) -> tuple[Term, str] | None:
        """ADT term and its sort, if the reduced term stands for one."""
        if isinstance(t, RVar):
            origin = self.table.origin_of_var(t.name)
            if origin[0] == "var":
                return Var(origin[1], origin[2]), origin[2]
            return None
        if isinstance(t, RApp):
            origin = self.table.origin_of_fun(t.fn)
            if origin is None:
                return None
            if origin[0] == "ctor":
                decl = self.sig.ctor(origin[1])
                args = []
                for a, (_, arg_sort) in zip(t.args, decl.args):
                    got = self.adt_term(a)
                    if got is None and isinstance(a, RConst) \
                            and arg_sort in self.table.enum_sorts:
                        # fixed index-to-constructor mapping of the
                        # enumeration optimization, applied argument-wise
                        ctors = self.sig.ctors_of(arg_sort)
                        if 0 <= a.value < len(ctors):
                            got = (Ctor(ctors[a.value].name, ()), arg_sort)
                    if got is None or got[1] != arg_sort:
                        return None
                    args.append(got[0])
                return Ctor(decl.name, tuple(args)), decl.sort
            if origin[0] == "sel":
                _, ctor_name, j = origin
                decl = self.sig.ctor(ctor_name)
                got = self.adt_term(t.args[0])
                if got is None or got[1] != decl.sort:
                    return None
                return Sel(ctor_name, j, got[0]), decl.args[j][1]
            return None
        return None

    def int_expr(self, t: RTerm) -> IntExpr | None:
        """Integer expression, if the reduced term stands for one."""
        if isinstance(t, RConst):
            return IntConst(t.value)
        if isinstance(t, RVar):
            origin = self.table.origin_of_var(t.name)
            return IntVar(origin[1]) if origin[0] == "int" else None
        if isinstance(t, RApp):
            origin = self.table.origin_of_fun(t.fn)
            if origin is None:
                return None
            if origin[0] == "size":
                got = self.adt_term(t.args[0])
                if got is None or got[1] != origin[1]:
                    return None
                return SizeOf(got[0])
            if origin[0] == "uf":
                args = [self.int_expr(a) for a in t.args]
                if any(a is None for a in args):
                    return None
                return IntApp(origin[1], tuple(args))
            return None
        return None

    def index_term(self, t: RTerm) -> _Index | None:
        """A head-index application ctorId_S(s) or an enumeration variable,
        whose integer value is a constructor index of its sort."""
        if isinstance(t, RApp):
            origin = self.table.origin_of_fun(t.fn)
            if origin is not None and origin[0] == "ctorid":
                got = self.adt_term(t.args[0])
                if got is not None and got[1] == origin[1]:
                    return _Index(*got, True)
        elif isinstance(t, RVar):
            origin = self.table.origin_of_var(t.name)
            if origin[0] == "var" and origin[2] in self.table.enum_sorts:
                return _Index(Var(origin[1], origin[2]), origin[2], False)
        return None

    def has_index(self, idx: _Index, i: int) -> Formula:
        """The term is the i-th constructor: a tester for head indices, an
        equation with the constant for enumeration variables."""
        name = self.sig.ctors_of(idx.sort)[i].name
        return Tester(name, idx.term) if idx.head_index else Eq(idx.term, Ctor(name, ()))

    def check_range(self, idx: _Index, value: int, node: RTerm):
        if not 0 <= value < len(self.sig.ctors_of(idx.sort)):
            raise self.fail("head index compared to a value outside the "
                            "constructor range" if idx.head_index else
                            "enumeration value outside the constructor range", node)

    def index_set(self, idx: _Index, allowed: Callable[[int], bool]) -> Formula:
        """The term is one of the constructors whose index is allowed."""
        n = len(self.sig.ctors_of(idx.sort))
        indices = [i for i in range(n) if allowed(i)]
        if not indices:
            return FALSE
        if len(indices) == n:
            return TRUE
        if len(indices) == n - 1:
            return Not(self.has_index(idx, next(i for i in range(n) if not allowed(i))))
        return disj([self.has_index(idx, i) for i in indices])

    # formulas
    def formula(self, f: RFormula) -> Formula:
        if isinstance(f, RTrueF):
            return TRUE
        if isinstance(f, RFalseF):
            return FALSE
        if isinstance(f, RAnd):
            return conj([self.formula(a) for a in f.args])
        if isinstance(f, ROr):
            return disj([self.formula(a) for a in f.args])
        if isinstance(f, REq):
            return self.atom(f.lhs, f.rhs, negate=False)
        if isinstance(f, RLin):
            return self.linear(f)
        raise InternalError(f"unexpected reduced formula {f}")

    def atom(self, lhs: RTerm, rhs: RTerm, negate: bool) -> Formula:
        # head indices and enumeration variables compared with constants
        for a, b in ((lhs, rhs), (rhs, lhs)):
            idx = self.index_term(a)
            if idx is not None and isinstance(b, RConst):
                self.check_range(idx, b.value, a)
                if negate and idx.head_index:
                    return self.index_set(idx, lambda i: i != b.value)
                out = self.has_index(idx, b.value)
                return Not(out) if negate else out
        # ADT term equality
        ta, tb = self.adt_term(lhs), self.adt_term(rhs)
        if ta is not None and tb is not None and ta[1] == tb[1]:
            out = Eq(ta[0], tb[0])
            return Not(out) if negate else out
        # integer equality
        ia, ib = self.int_expr(lhs), self.int_expr(rhs)
        if ia is not None and ib is not None:
            return SizeAtom("ne" if negate else "eq", ia, ib)
        raise self.fail("equality mixes untranslatable operands", REq(lhs, rhs))

    def linear(self, f: RLin) -> Formula:
        sides = ne_sides(f)
        if sides is not None:
            return self.atom(*sides, negate=True)
        # a head index or enumeration variable against a constant: c*i + const
        # OP 0 with c = +-1 allows a set of constructor indices; only head
        # indices reject out-of-range values of eq and ne atoms
        if len(f.terms) == 1 and abs(f.terms[0][0]) == 1:
            c, t = f.terms[0]
            idx = self.index_term(t)
            if idx is not None:
                value = -f.const * c
                if f.op != "le" and idx.head_index:
                    self.check_range(idx, value, t)
                    if f.op == "eq":
                        return self.has_index(idx, value)
                if f.op == "eq":
                    return self.index_set(idx, lambda i: i == value)
                if f.op == "ne":
                    return self.index_set(idx, lambda i: i != value)
                return self.index_set(idx, (lambda i: i <= value) if c == 1
                                      else (lambda i: i >= value))
        # otherwise every operand must be an integer expression
        exprs: list[IntExpr] = []
        for c, t in f.terms:
            e = self.int_expr(t)
            if e is None:
                raise self.fail("arithmetic over an ADT variable of a "
                                "non-enumeration sort", f)
            exprs.append(e if c == 1 else IntMul(c, e))
        lhs: IntExpr
        if not exprs:
            lhs = IntConst(0)
        elif len(exprs) == 1:
            lhs = exprs[0]
        else:
            lhs = IntAdd(tuple(exprs))
        return SizeAtom(f.op, lhs, IntConst(-f.const))


# -- verification ----------------------------------------------------------------------------

def validate_interpolant(interpolant: Formula, prob: InterpolationProblem,
                         fuel: int = DEFAULT_FUEL) -> bool:
    """Vocabulary containment plus both implications, decided by our own solver."""
    shared_adt, shared_int = prob.shared_vars()
    fv = free_vars(interpolant)
    if not fv.adt <= shared_adt or not fv.ints <= shared_int:
        return False
    first = decide(And((prob.a, Not(interpolant))), prob.sig, fuel=fuel)
    if first.status != "unsat":
        return False
    second = decide(And((prob.b, interpolant)), prob.sig, fuel=fuel)
    return second.status == "unsat"
