"""Evaluation of terms and formulas under explicit ADT models, and printing.

Constructors are absolutely free; selectors are total.  A selector applied to
a wrong-headed term takes the model's recorded override if present, and
otherwise the fixed default witness: the first term of the target sort in
enumeration order.  Term size counts constructor occurrences.
"""

from __future__ import annotations

from .errors import UnboundVariableError
from .signature import Signature, minimal_term
from .terms import (
    AdtModel, And, Ctor, Eq, FalseF, Formula, IntAdd, IntConst, IntExpr,
    IntMul, IntVar, Not, Or, Sel, SizeAtom, SizeOf, Term, Tester, TrueF, Var,
    ground_size,
)


def eval_term(sig: Signature, model: AdtModel, t: Term) -> Ctor:
    """The value of `t` under `model`: a variable's is looked up, and any
    other term is evaluated in post-order on an explicit stack, since terms
    may nest deeper than the recursion limit."""
    if isinstance(t, Var):
        return _value(model, t)
    out: list[Ctor] = []  # the values of the terms done, in order
    todo: list[tuple[Term, bool]] = [(t, False)]  # (term, its arguments done)
    while todo:
        t, done = todo.pop()
        if isinstance(t, Var):
            out.append(_value(model, t))
        elif not done:
            todo.append((t, True))
            args = t.args if isinstance(t, Ctor) else (t.arg,)
            todo += [(a, False) for a in reversed(args)]
        elif isinstance(t, Ctor):
            n = len(out) - len(t.args)
            args = tuple(out[n:])
            del out[n:]
            out.append(Ctor(t.ctor, args))
        else:
            out.append(_select(sig, model, t, out.pop()))
    return out[0]


def _value(model: AdtModel, v: Var) -> Ctor:
    if v.name not in model.adt:
        raise UnboundVariableError(v.name)
    return model.adt[v.name]


def _select(sig: Signature, model: AdtModel, t: Sel, arg: Ctor) -> Ctor:
    """The value of selector `t` on the value `arg`."""
    if arg.ctor == t.ctor:
        return arg.args[t.index]
    override = model.selector_overrides.get((t.ctor, t.index, arg))
    if override is not None:
        return override
    target_sort = sig.ctor(t.ctor).args[t.index][1]
    return minimal_term(sig, target_sort)


def eval_int(sig: Signature, model: AdtModel, e: IntExpr) -> int:
    if isinstance(e, IntConst):
        return e.value
    if isinstance(e, IntVar):
        if e.name not in model.ints:
            raise UnboundVariableError(e.name)
        return model.ints[e.name]
    if isinstance(e, SizeOf):
        return ground_size(eval_term(sig, model, e.arg))
    if isinstance(e, IntAdd):
        return sum(eval_int(sig, model, a) for a in e.args)
    if isinstance(e, IntMul):
        return e.coeff * eval_int(sig, model, e.arg)
    if e.fn not in model.funcs:
        raise UnboundVariableError(f"uninterpreted function {e.fn} has no model")
    return model.funcs[e.fn].get(tuple(eval_int(sig, model, a) for a in e.args), 0)


_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
}


def evaluate(sig: Signature, model: AdtModel, phi: Formula) -> bool:
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Tester):
        return eval_term(sig, model, phi.arg).ctor == phi.ctor
    if isinstance(phi, Eq):
        return eval_term(sig, model, phi.lhs) == eval_term(sig, model, phi.rhs)
    if isinstance(phi, SizeAtom):
        return _CMP[phi.op](eval_int(sig, model, phi.lhs), eval_int(sig, model, phi.rhs))
    if isinstance(phi, Not):
        return not evaluate(sig, model, phi.arg)
    if isinstance(phi, And):
        return all(evaluate(sig, model, a) for a in phi.args)
    if isinstance(phi, Or):
        return any(evaluate(sig, model, a) for a in phi.args)
    raise AssertionError(phi)


# -- printing ------------------------------------------------------------------

def print_term(sig: Signature, t: Term) -> str:
    """A term as SMT-LIB text, from an explicit stack of the terms and texts
    still to write: a model term nests as deep as the input's chains."""
    parts, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Ctor) and t.args:
            todo += [")"] + [x for a in reversed(t.args) for x in (a, " ")] + ["(" + t.ctor]
        elif isinstance(t, Sel):
            todo += [")", t.arg, f"({sig.selector_name(t.ctor, t.index)} "]
        else:
            parts.append(t if isinstance(t, str) else t.name if isinstance(t, Var) else t.ctor)
    return "".join(parts)


def print_int_expr(sig: Signature, e: IntExpr) -> str:
    if isinstance(e, IntConst):
        return _int_text(e.value)
    if isinstance(e, IntVar):
        return e.name
    if isinstance(e, SizeOf):
        return f"(adt.size {print_term(sig, e.arg)})"
    if isinstance(e, IntAdd):
        return "(+ " + " ".join(print_int_expr(sig, a) for a in e.args) + ")"
    if isinstance(e, IntMul):
        return f"(* {_int_text(e.coeff)} {print_int_expr(sig, e.arg)})"
    if not e.args:
        return e.fn
    return "(" + " ".join([e.fn] + [print_int_expr(sig, a) for a in e.args]) + ")"


def _int_text(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


_OP_TEXT = {"eq": "=", "le": "<=", "lt": "<", "ge": ">=", "gt": ">"}


def print_formula(sig: Signature, phi: Formula) -> str:
    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, Tester):
        return f"((_ is {phi.ctor}) {print_term(sig, phi.arg)})"
    if isinstance(phi, Eq):
        return f"(= {print_term(sig, phi.lhs)} {print_term(sig, phi.rhs)})"
    if isinstance(phi, SizeAtom):
        lhs, rhs = print_int_expr(sig, phi.lhs), print_int_expr(sig, phi.rhs)
        if phi.op == "ne":
            return f"(distinct {lhs} {rhs})"
        return f"({_OP_TEXT[phi.op]} {lhs} {rhs})"
    if isinstance(phi, Not):
        return f"(not {print_formula(sig, phi.arg)})"
    if isinstance(phi, And):
        return "(and " + " ".join(print_formula(sig, a) for a in phi.args) + ")"
    if isinstance(phi, Or):
        return "(or " + " ".join(print_formula(sig, a) for a in phi.args) + ")"
    raise AssertionError(phi)


def print_model(sig: Signature, model: AdtModel, var_sorts: dict[str, str],
                ufuns: dict[str, tuple[tuple[str, ...], str]] | None = None) -> str:
    """SMT-LIB define-fun lines for the declared constants (`var_sorts`), then
    for the declared functions (`ufuns`) and every function the model holds,
    each a nested ite over its graph (default 0).  A declared symbol the model
    does not assign, because no assertion uses it, gets its sort's minimal
    term, 0, or the function that is 0 everywhere."""
    lines = []
    for name, sort in var_sorts.items():
        if sort == "Int":
            value = _int_text(model.ints.get(name, 0))
        else:
            value = print_term(sig, model.adt[name] if name in model.adt
                               else minimal_term(sig, sort))
        lines.append(f"(define-fun {name} () {sort} {value})")
    arities = {name: len(args) for name, (args, _) in (ufuns or {}).items()}
    for name, graph in model.funcs.items():
        arities.setdefault(name, len(next(iter(graph))))
    for name, arity in arities.items():
        body = "0"
        for args, value in sorted(model.funcs.get(name, {}).items(), reverse=True):
            conds = [f"(= x{i} {_int_text(a)})" for i, a in enumerate(args)]
            cond = conds[0] if arity == 1 else "(and " + " ".join(conds) + ")"
            body = f"(ite {cond} {_int_text(value)} {body})"
        params = " ".join(f"(x{i} Int)" for i in range(arity))
        lines.append(f"(define-fun {name} ({params}) Int {body})")
    return "\n".join(lines)
