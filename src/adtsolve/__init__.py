"""Deciding and interpolating algebraic data type constraints by reduction
to uninterpreted functions plus linear integer arithmetic."""

from .signature import (
    CtorDecl, Signature, cardinality, check_expanding, ctor_index,
    count_terms_of_size, enumerate_terms, num_ctors, relativized_size_image,
    size_image, validate,
)
from .semilinear import EventuallyPeriodicSet
from .terms import AdtModel, And, Ctor, Eq, Formula, Not, Or, Sel, Term, Tester, Var
from .semantics import evaluate, print_formula, print_model, print_term
from .parser import parse_script
from .normalize import flatten, to_nnf
from .reduce import reduce, simplify
from .backend import SolverResult, emit_smtlib, solve, solve_external
from .models import check_model, reconstruct
from .sizesolve import completeness_report, decide, unfold_step
from .interp import (
    InterpolatingBackend, InterpolationProblem, back_translate, interpolate,
    validate_interpolant,
)

__all__ = [
    "AdtModel", "And", "Ctor", "CtorDecl", "Eq",
    "EventuallyPeriodicSet", "Formula", "InterpolatingBackend",
    "InterpolationProblem", "Not", "Or", "Sel", "Signature",
    "SolverResult", "Term", "Tester", "Var", "back_translate", "cardinality",
    "check_expanding", "check_model", "completeness_report",
    "count_terms_of_size", "ctor_index", "decide", "emit_smtlib",
    "enumerate_terms", "evaluate", "flatten", "interpolate",
    "num_ctors", "parse_script", "print_formula", "print_model", "print_term",
    "reconstruct", "reduce", "relativized_size_image", "simplify", "size_image",
    "solve", "solve_external", "to_nnf", "unfold_step",
    "validate", "validate_interpolant",
]
