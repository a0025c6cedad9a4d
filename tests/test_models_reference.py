"""The three-walk reconstruction that `models.reconstruct` replaced, kept as
the reference its one walk over the reduct is compared against: the check
of the whole reduct by `eval_reduced`, a second walk that adds every
application the model reads through a default value to the function graphs,
and a third that reads the satisfied branch and evaluates its applications
again.  Every reconstruction of the size loop on the CList and Nat fixtures,
the bundled inputs and 160 random-signature formulas is made by both, and
must give the same model, printed alike, and the same statistics, pair
order included.
"""

from __future__ import annotations

import copy
import glob
import os
import random
from typing import Iterator

import pytest
from hypothesis import given

from adtsolve import sizesolve
from adtsolve.backend import IntModel, eval_reduced, eval_rterm
from adtsolve.errors import InternalError
from adtsolve.models import ReconstructionStats, _build_terms, _enum_term, reconstruct
from adtsolve.parser import parse_script
from adtsolve.reduce import (
    RApp, REq, RFormula, ROr, RAnd, RTerm, RTrueF, ReducedFormula, iter_literals,
)
from adtsolve.sizesolve import decide
from adtsolve.signature import ctor_at
from adtsolve.terms import AdtModel, Ctor, Term
from tests.test_backend import _session_fixture
from tests.test_models import pipeline
from tests.test_semantics import formulas

INPUTS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "inputs", "*.smt2")))


# -- the reference ------------------------------------------------------------------

def ref_reconstruct(reduct: ReducedFormula, int_model: IntModel,
                    stats: ReconstructionStats | None = None) -> AdtModel:
    if not eval_reduced(reduct.formula, int_model):
        raise InternalError("model does not satisfy the reduct")
    model = _with_default_apps(reduct.formula, int_model)
    table = reduct.table
    sig = table.sig
    flat = reduct.flat
    stats = stats if stats is not None else ReconstructionStats()
    enum_sorts = table.enum_sorts

    arg_sort: dict[str, str] = {}
    for fname, (_, origin) in table.funs.items():
        if origin[0] == "ctorid":
            arg_sort[fname] = origin[1]
        elif origin[0] == "sel":
            arg_sort[fname] = sig.ctor(origin[1]).sort
    d_pairs: dict[tuple[int, str], None] = {}
    for lit in _branch(reduct.formula, model):
        for app in _lit_apps(lit):
            sort = arg_sort.get(app.fn)
            if sort is not None and sort not in enum_sorts:
                d_pairs.setdefault((eval_rterm(app.args[0], model), sort))

    dep: dict[tuple[int, str], tuple[str, list[tuple[int, str]]]] = {}
    for (a, sort) in d_pairs:
        cid = model.app(table.ctorid_fun(sort), (a,))
        if not (0 <= cid < len(sig.ctors_of(sort))):
            continue
        decl = ctor_at(sig, sort, cid)
        children = []
        for j, (_, arg_sort_j) in enumerate(decl.args):
            cj = model.app(table.sel_fun(decl.name, j), (a,))
            children.append((cj, arg_sort_j))
        dep[(a, sort)] = (decl.name, children)

    pairs: dict[tuple[int, str], None] = dict(d_pairs)
    for _, children in dep.values():
        for (c, s) in children:
            if s not in enum_sorts:
                pairs.setdefault((c, s))
    for name, sort in flat.var_sorts.items():
        if sort not in enum_sorts:
            pairs.setdefault((model.value(name), sort))

    gamma = _build_terms(sig, pairs, dep, enum_sorts, stats)

    def gamma_term(pair: tuple[int, str]) -> Term:
        if pair[1] in enum_sorts:
            return _enum_term(sig, *pair)
        return gamma[pair]

    adt: dict[str, Term] = {}
    for name, sort in flat.var_sorts.items():
        adt[name] = gamma_term((model.value(name), sort))
    ints = {name: model.value(name) for name in sorted(flat.int_vars)}

    overrides: dict[tuple[str, int, Term], Term] = {}
    funcs = {origin[1]: dict(model.funcs.get(fname) or {(0,) * arity: 0})
             for fname, (arity, origin) in table.funs.items() if origin[0] == "uf"}
    for fname, (_, origin) in table.funs.items():
        if origin[0] != "sel":
            continue
        _, ctor_name, j = origin
        decl = sig.ctor(ctor_name)
        target_sort = decl.args[j][1]
        for args, val in model.funcs.get(fname, {}).items():
            src_pair = (args[0], decl.sort)
            tgt_pair = (val, target_sort)
            if decl.sort in enum_sorts or (src_pair not in gamma):
                continue
            if target_sort not in enum_sorts and tgt_pair not in gamma:
                continue
            src = gamma[src_pair]
            if isinstance(src, Ctor) and src.ctor != ctor_name:
                overrides[(ctor_name, j, src)] = gamma_term(tgt_pair)
    return AdtModel(adt, ints, overrides, funcs)


def _branch(f: RFormula, model: IntModel) -> Iterator[RFormula]:
    if isinstance(f, RAnd):
        for a in f.args:
            yield from _branch(a, model)
    elif isinstance(f, ROr):
        arm = next((a for a in f.args if eval_reduced(a, model)), None)
        if arm is None:
            raise InternalError("no satisfied disjunct in a sat model")
        yield from _branch(arm, model)
    elif not isinstance(f, RTrueF):
        yield f


def _lit_apps(lit: RFormula) -> Iterator[RApp]:
    terms = [lit.lhs, lit.rhs] if isinstance(lit, REq) else [t for _, t in lit.terms]
    for t in terms:
        yield from _apps(t)


def _apps(t: RTerm) -> Iterator[RApp]:
    if isinstance(t, RApp):
        for a in t.args:
            yield from _apps(a)
        yield t


def _with_default_apps(f: RFormula, model: IntModel) -> IntModel:
    out = IntModel(model.values, {fn: dict(g) for fn, g in model.funcs.items()},
                   model.defaults)
    for lit in iter_literals(f):
        for app in _lit_apps(lit):
            args = tuple(eval_rterm(a, out) for a in app.args)
            out.funcs.setdefault(app.fn, {}).setdefault(args, out.app(app.fn, args))
    return out


# -- differential tests -------------------------------------------------------------

def _outcome(rebuild, reduct, model, stats):
    """The model and statistics `rebuild` gives, the model printed too (its
    dicts' order shows), or the error it raises with its message."""
    try:
        got = rebuild(reduct, model, stats)
    except InternalError as e:
        return type(e), str(e)
    return got, repr(got), stats


def _assert_same(reduct, model, stats=None):
    stats = stats if stats is not None else ReconstructionStats()
    want = _outcome(ref_reconstruct, reduct, model, copy.deepcopy(stats))
    assert _outcome(reconstruct, reduct, model, stats) == want
    return want


@pytest.fixture
def paired(monkeypatch):
    """Every reconstruction of the size loop is made by the reference too;
    returns the list of the models built."""
    built = []

    def both(reduct, model, stats):
        got = _assert_same(reduct, model, stats)
        built.append(got[0])
        return got[0]

    monkeypatch.setattr(sizesolve, "reconstruct", both)
    return built


@given(formulas())
def test_lists_match_the_reference(lists_sig, paired, phi):
    decide(phi, lists_sig, fuel=10)


@pytest.mark.parametrize("name", ["distinct-3-4", "guard"])
def test_session_fixtures_match_the_reference(paired, name):
    # CList distinct(3, 4) and a guard case, over several rounds
    script, fuel = _session_fixture(name)
    assert decide(script.formula(), script.sig, fuel=fuel).status == "sat"
    assert paired


def test_nat_matches_the_reference(nat_sig, paired):
    from adtsolve.parser import parse_formula

    texts = ("(= x (succ (succ y)))", "(not (= x y))",
             "(and ((_ is succ) x) (= (pred x) y) (not (= y one)))",
             "(and (not (= x y)) (> (adt.size x) (adt.size y)))", "(= (adt.size x) 3)")
    for text in texts:
        phi = parse_formula(text, nat_sig, {"x": "Nat", "y": "Nat"})
        assert decide(phi, nat_sig).status == "sat"
    assert len(paired) == len(texts)


@pytest.mark.parametrize("path", INPUTS, ids=os.path.basename)
def test_bundled_inputs_match_the_reference(paired, path):
    with open(path) as f:
        script = parse_script(f.read())
    for phi in script.queries():
        decide(phi, script.sig)


def test_random_signatures_match_the_reference(paired):
    from adtsolve.corpus import GenConfig, random_formula, random_signature

    rng = random.Random(11)
    for _ in range(4):
        sigs = [random_signature(rng) for _ in range(3)]
        for i in range(40):
            phi = random_formula(rng, sigs[i % 3], GenConfig(n_vars=rng.randint(1, 3),
                                                             size_atoms=True))
            decide(phi, sigs[i % 3], fuel=20)
    assert len(paired) > 80


def test_a_model_that_fails_the_reduct_raises_alike(lists_sig, fml):
    reduct, res = pipeline(lists_sig, fml("(and ((_ is cons) x) (= (head x) red))"))
    assert res.status == "sat"
    broken = IntModel(dict(res.model.values), {}, {})
    want = _assert_same(reduct, broken)
    assert want == (InternalError, "model does not satisfy the reduct")
