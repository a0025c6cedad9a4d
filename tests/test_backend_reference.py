"""Every probe of the built-in search against the full-rebuild reference.

`_Search.decide` reads the LIA model that `lia.System` keeps as data and
the `ne` rows it watches (`System.violated`), and reads again only what
changed since the last probe.  This file keeps the probe that rebuilt
everything, as the reference: a model built anew from the distances and the
substitutions (`reference_model`), a list of the live `ne` rows filtered
from all rows (`reference_nes`), a scan of all of them, and a candidate
model that walks every CC term and adds the values it gives free classes to
the map it reads (`reference_candidate`).  Each probe of every search is
made by both, on the same search state, and must give the same model
values and function tables, the same split arms, or None.
"""

import pytest

from adtsolve import backend, lia
from adtsolve.backend import IntModel, _Search
from adtsolve.reduce import REq, RLin, RApp, RVar
from tests.test_backend import SESSION_FIXTURES, _session_fixture, _stateless_reducts


def reference_model(system):
    """`System.model` as a rebuild: the distances minus the source's, then
    the substitutions replayed newest first, a variable no inequality bounds
    getting a distinct value clear of the solved ones."""
    if system.infeasible:
        return None
    if system.general:
        model = lia._branch_and_bound([r for r in system.rows
                                       if r is not None and r.op == "le"])
        if model is None:
            return None
    else:
        base = system.dist["$zero"]
        model = {n: d - base for n, d in system.dist.items() if n != "$zero"}
    spread = None
    for v, expr, const in reversed(system.subs):
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
    return model


def reference_nes(system):
    """The live `ne` rows, in the order they were added, from all rows."""
    return [r for r in system.rows if r is not None and r.op == "ne"]


def reference_candidate(search, model_map):
    """The candidate model in one pass over the CC terms, adding the value
    of each class the map leaves free to the map, with the first functional
    inconsistency met."""
    cc = search.cc
    names, parent, cc_args = search.names, cc.parent, cc.args
    spread = None
    root_value, values = {}, []
    model = IntModel()
    first, clash = {}, None
    for i, t in enumerate(cc.terms):
        r = i
        while parent[r] != r:
            r = parent[r]
        v = root_value.get(r)
        if v is None:
            v = model_map.get(names[r])
            if v is None:
                if spread is None:
                    spread = 1 + max((abs(x) for x in model_map.values()), default=0)
                v = model_map[names[r]] = spread
                spread += 1
            root_value[r] = v
        values.append(v)
        if type(t) is RVar:
            model.values[t.name] = v
        elif type(t) is RApp:
            args = tuple(values[a] for a in cc_args[i])
            j = first.setdefault((t.fn, args), i)
            if j == i:
                model.funcs.setdefault(t.fn, {})[args] = v
            elif values[j] != v and clash is None:
                clash = (j, i)
    return model, clash


def reference_decide(search):
    """The probe that rebuilds the model, scans every `ne` row for the
    violated one with the fewest variables, the earliest among equals, and
    walks every CC term."""
    model_map = reference_model(search.lia)
    if model_map is None:
        return None
    found, best = None, None
    for row in reference_nes(search.lia):
        if best is not None and len(row.coeffs) >= len(best.coeffs):
            continue
        if found is None and any(v not in model_map for v, _ in row.coeffs):
            found = reference_candidate(search, model_map)
        if row.const + sum(a * model_map[v] for v, a in row.coeffs) == 0:
            best = row
            if len(row.coeffs) == 1:
                break
    if best is not None:
        return [lia.LinCon("le", tuple((v, s * a) for v, a in best.coeffs), s * best.const + 1)
                for s in (1, -1)]
    model, clash = found or reference_candidate(search, model_map)
    if clash is None:
        return model
    cc = search.cc
    t1, t2 = cc.terms[clash[0]], cc.terms[clash[1]]
    return [REq(t1, t2)] + [RLin("ne", ((1, a1), (-1, a2)), 0)
                            for a1, a2 in zip(t1.args, t2.args)
                            if cc.find(cc.ids[a1]) != cc.find(cc.ids[a2])]


@pytest.fixture
def paired_probes(monkeypatch):
    """Make every probe twice, the reference first, and check that both
    give the same result; returns the count of each kind of result."""
    decide = _Search.decide
    kinds = {"model": 0, "split": 0, "none": 0}

    def paired(self):
        want = reference_decide(self)
        got = decide(self)
        if want is None:
            assert got is None
            kinds["none"] += 1
        elif type(want) is list:
            assert got == want
            kinds["split"] += 1
        else:
            assert (got.values, got.funcs, got.defaults) == \
                (want.values, want.funcs, want.defaults)
            kinds["model"] += 1
        return got

    monkeypatch.setattr(_Search, "decide", paired)
    return kinds


def test_stateless_probes_match_the_reference(paired_probes):
    for reduct in _stateless_reducts():
        backend.solve(reduct)
    assert all(paired_probes.values()), paired_probes


@pytest.mark.parametrize("name", SESSION_FIXTURES)
def test_session_probes_match_the_reference(paired_probes, name):
    # every probe of every round on the live session of the size loop
    from adtsolve.sizesolve import decide

    script, fuel = _session_fixture(name)
    assert decide(script.formula(), script.sig, fuel=fuel).rounds > 1
    assert paired_probes["model"], paired_probes
