import pytest
from hypothesis import given

from adtsolve.normalize import flatten, fresh_var_count, is_flat, to_nnf
from adtsolve.semantics import evaluate
from adtsolve.signature import enumerate_terms
from adtsolve.terms import (
    AdtModel, And, Ctor, Eq, FALSE, Not, Or, Sel, SizeAtom, SizeOf, TRUE,
    Tester, Var, free_vars,
)
from tests.test_semantics import formulas


def count_function_symbols(phi):
    """Constructor and selector occurrences, plus one per size-of."""
    total = 0

    def term(t):
        nonlocal total
        if isinstance(t, (Ctor, Sel)):
            total += 1
            kids = t.args if isinstance(t, Ctor) else (t.arg,)
            for k in kids:
                term(k)

    def walk(f):
        nonlocal total
        if isinstance(f, Tester):
            term(f.arg)
        elif isinstance(f, Eq):
            term(f.lhs)
            term(f.rhs)
        elif isinstance(f, SizeAtom):
            def expr(e):
                nonlocal total
                if isinstance(e, SizeOf):
                    total += 1
                    term(e.arg)
                elif hasattr(e, "args"):
                    for a in e.args:
                        expr(a)
                elif hasattr(e, "arg"):
                    expr(e.arg)
            expr(f.lhs)
            expr(f.rhs)
        elif isinstance(f, Not):
            walk(f.arg)
        elif isinstance(f, (And, Or)):
            for a in f.args:
                walk(a)

    walk(phi)
    return total


# -- NNF --------------------------------------------------------------------------

def test_nnf_pushes_negation(fml):
    phi = Not(And((Tester("nil", Var("x", "CList")),
                   Not(Tester("cons", Var("z", "CList"))))))
    out = to_nnf(phi)
    assert out == Or((Not(Tester("nil", Var("x", "CList"))),
                      Tester("cons", Var("z", "CList"))))


def test_nnf_keeps_negated_tester(fml):
    phi = Not(Tester("cons", Var("x", "CList")))
    assert to_nnf(phi) == phi


def test_nnf_negates_size_atoms_arithmetically(fml):
    phi = Not(fml("(= (adt.size x) 3)"))
    out = to_nnf(phi)
    assert isinstance(out, SizeAtom)
    assert out.op == "ne"
    assert to_nnf(Not(fml("(<= (adt.size x) 3)"))).op == "gt"


def test_nnf_constants():
    assert to_nnf(Not(TRUE)) == FALSE
    assert to_nnf(And((TRUE, FALSE))) == FALSE


# -- flattening -------------------------------------------------------------------

def test_flatten_example_shape(lists_sig, fml):
    phi = fml("(and ((_ is cons) x) (not (= y blue)) "
              "(or (= (head x) red) (= x (cons y nil))))")
    flat = flatten(to_nnf(phi), lists_sig)
    assert is_flat(flat.formula)
    # three named subterms: blue, red, nil
    assert sorted(flat.registry) == ["_t1", "_t2", "_t3"]
    assert flat.registry["_t1"] == Ctor("blue")
    assert flat.registry["_t2"] == Ctor("red")
    assert flat.registry["_t3"] == Ctor("nil")
    top = flat.formula
    assert isinstance(top, And)
    assert Tester("cons", Var("x", "CList")) in top.args
    assert Eq(Ctor("blue"), Var("_t1", "Colour")) in top.args
    assert Not(Eq(Var("y", "Colour"), Var("_t1", "Colour"))) in top.args
    (disj,) = [a for a in top.args if isinstance(a, Or)]
    left, right = disj.args
    assert Eq(Ctor("red"), Var("_t2", "Colour")) in left.args
    assert Eq(Sel("cons", 0, Var("x", "CList")), Var("_t2", "Colour")) in left.args
    assert Eq(Ctor("nil"), Var("_t3", "CList")) in right.args
    assert Eq(Ctor("cons", (Var("y", "Colour"), Var("_t3", "CList"))),
              Var("x", "CList")) in right.args


def test_flatten_variable_equation_unchanged(lists_sig, fml):
    phi = fml("(= x z)")
    flat = flatten(to_nnf(phi), lists_sig)
    assert flat.formula == phi
    assert not flat.registry


def test_flatten_nested_selector_equisatisfiable(lists_sig, fml):
    phi = fml("(= (head (tail x)) red)")
    flat = flatten(to_nnf(phi), lists_sig)
    assert is_flat(flat.formula)
    assert _sat_assignments(lists_sig, phi, ["x"]) == \
        _sat_assignments_flat(lists_sig, flat, ["x"])


def test_flatten_sizes_define_one_variable_per_term(lists_sig, fml):
    phi = fml("(= (+ (adt.size x) (adt.size x)) (+ (adt.size z) 1))")
    flat = flatten(to_nnf(phi), lists_sig)
    assert is_flat(flat.formula)
    size_defs = [a for a in flat.formula.args
                 if isinstance(a, SizeAtom) and isinstance(a.lhs, SizeOf)]
    assert len(size_defs) == 2  # |x| and |z| named once each


def _sat_assignments(sig, phi, names, bound=6):
    out = set()
    fv = sorted(v.name for v in free_vars(phi).adt)
    pools = {n: list(enumerate_terms(sig, _sort_of(phi, n), bound)) for n in fv}
    import itertools
    for combo in itertools.product(*(pools[n] for n in fv)):
        model = AdtModel(dict(zip(fv, combo)))
        if evaluate(sig, model, phi):
            out.add(tuple(model.adt[n] for n in names))
    return out


def _sat_assignments_flat(sig, flat, names, bound=6):
    """Oracle over the flat formula: fresh variables are determined by their
    registry entries."""
    from adtsolve.semantics import eval_term
    out = set()
    source = [n for n in flat.var_sorts if n not in flat.registry]
    pools = {n: list(enumerate_terms(sig, flat.var_sorts[n], bound)) for n in source}
    from adtsolve.terms import ground_size
    import itertools
    for combo in itertools.product(*(pools[n] for n in source)):
        model = AdtModel(dict(zip(source, combo)))
        for fresh, definition in flat.registry.items():
            if fresh in flat.var_sorts:  # ADT definition
                model.adt[fresh] = eval_term(sig, model, definition)
            elif isinstance(definition, SizeOf):  # size definition
                model.ints[fresh] = ground_size(eval_term(sig, model, definition.arg))
        if evaluate(sig, model, flat.formula):
            out.add(tuple(model.adt[n] for n in names))
    return out


def _sort_of(phi, name):
    for v in free_vars(phi).adt:
        if v.name == name:
            return v.sort
    raise KeyError(name)


@given(formulas())
def test_flatten_invariants_random(lists_sig, phi):
    flat = flatten(to_nnf(phi), lists_sig)
    assert is_flat(flat.formula)
    assert fresh_var_count(flat) <= max(1, count_function_symbols(phi))


@given(formulas())
def test_flatten_equisatisfiable_random(lists_sig, phi):
    fv = free_vars(phi)
    if len(fv.adt) > 2:
        return
    flat = flatten(to_nnf(phi), lists_sig)
    names = sorted(v.name for v in fv.adt)
    assert _sat_assignments(lists_sig, phi, names, bound=5) == \
        _sat_assignments_flat(lists_sig, flat, names, bound=5)


def test_free_vars_of_a_deep_numeral_under_the_default_recursion_limit():
    numeral = Ctor("z")
    for _ in range(10000):
        numeral = Ctor("s", (numeral,))
    x = Var("x", "Nat")
    fv = free_vars(And((Eq(x, numeral), Not(Tester("z", Sel("s", 0, x))))))
    assert fv.adt == {x} and not fv.ints


def _numeral(n):
    term = Ctor("one")
    for _ in range(n):
        term = Ctor("succ", (term,))
    return term


@pytest.mark.parametrize("kind", ["numeral", "selector chain"])
def test_flatten_a_deep_term_under_the_default_recursion_limit(nat_sig, kind):
    # one fresh name per level, innermost first, each defined once
    n = 10000
    if kind == "numeral":
        term, level = _numeral(n), (lambda t: Ctor("succ", (t,)))
    else:
        term, level = Var("y", "Nat"), (lambda t: Sel("succ", 0, t))
        for _ in range(n):
            term = level(term)
    x = Var("x", "Nat")
    flat = flatten(to_nnf(Eq(x, term)), nat_sig)
    names = [Var(f"_t{i}", "Nat") for i in range(1, n + 1)]
    if kind == "numeral":
        defs = [Eq(Ctor("one"), names[0])]
    else:
        defs, names = [], [Var("y", "Nat")] + names[:-1]
    defs += [Eq(level(a), b) for a, b in zip(names, names[1:])]
    assert is_flat(flat.formula) and fresh_var_count(flat) == len(defs)
    assert flat.formula.args == tuple(defs) + (Eq(level(names[-1]), x),)


def test_equal_deep_terms_share_their_names(nat_sig):
    # two equal numerals that are distinct objects: one name per level
    n = 10000
    x, y = Var("x", "Nat"), Var("y", "Nat")
    flat = flatten(to_nnf(And((Eq(x, _numeral(n)), Eq(y, _numeral(n))))), nat_sig)
    assert fresh_var_count(flat) == n
    first, second = flat.formula.args[:n + 1], flat.formula.args[n + 1:]
    assert first[:-1] == second[:-1]
    assert (first[-1].rhs, second[-1].rhs) == (x, y)
