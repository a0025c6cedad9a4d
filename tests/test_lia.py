import itertools

import pytest
from hypothesis import example, given, strategies as st

from adtsolve import lia
from adtsolve.errors import InternalError


def brute(cons, lo=-8, hi=8):
    vars_ = sorted({v for c in cons for v, _ in c.coeffs})
    for vals in itertools.product(range(lo, hi + 1), repeat=len(vars_)):
        env = dict(zip(vars_, vals))
        if all(_holds(c, env) for c in cons):
            return env
    return None


def _holds(c, env):
    total = c.const + sum(a * env[v] for v, a in c.coeffs)
    return {"le": total <= 0, "eq": total == 0, "ne": total != 0}[c.op]


def test_equality_conflict():
    assert lia.solve([lia.con("eq", {"t": 1}, -1),
                      lia.con("eq", {"t": 1}, -3)]) is None


def test_parity_conflict():
    # 2x = 2y + 1 has no integer solution
    assert lia.solve([lia.con("eq", {"x": 2, "y": -2}, -1)]) is None


def test_parity_via_two_equations():
    # y = 2k and y = 2j + 1
    cons = [lia.con("eq", {"y": 1, "k": -2}, 0),
            lia.con("eq", {"y": 1, "j": -2}, -1)]
    assert lia.solve(cons) is None


def test_gcd_tightening():
    # 1 <= 2x <= 1 forces the impossible x = 1/2
    assert lia.solve([lia.con("le", {"x": 2}, -1),
                      lia.con("le", {"x": -2}, 1)]) is None


def test_no_unit_coefficient_equality():
    model = lia.solve([lia.con("eq", {"x": 3, "y": 5}, -7)])
    assert model is not None
    assert 3 * model["x"] + 5 * model["y"] == 7


def test_difference_system():
    cons = [lia.con("le", {"x": 1, "y": -1}, 1),   # x <= y - 1
            lia.con("le", {"y": 1, "z": -1}, 1),   # y <= z - 1
            lia.con("le", {"z": 1}, -10),          # z <= 10
            lia.con("le", {"x": -1}, 5)]           # x >= 5
    model = lia.solve(cons)
    assert model is not None
    assert model["x"] < model["y"] < model["z"] <= 10
    assert model["x"] >= 5


def test_difference_cycle_infeasible():
    cons = [lia.con("le", {"x": 1, "y": -1}, 1),
            lia.con("le", {"y": 1, "x": -1}, 1)]
    assert lia.solve(cons) is None


def test_a_distance_that_falls_twice_settles_at_the_larger_fall():
    # v - u <= -10 lowers v by 10; through v alone y2 falls 6, through y1 it
    # falls 10, so y2's first heap entry is superseded when it is popped
    rows = [lia.con("le", {"y2": 1, "v": -1}, -4), lia.con("le", {"y2": 1, "y1": -1}, 0),
            lia.con("le", {"y1": 1, "v": -1}, 0), lia.con("le", {"v": 1, "u": -1}, 10)]
    s = lia.System(rows[:3])
    s.push()
    s.add(rows[3])
    model = s.model()
    assert model is not None and all(_holds(c, model) for c in rows)


@st.composite
def systems(draw):
    nv = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(nv)]
    cons = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = {v: draw(st.integers(-3, 3)) for v in vs}
        op = draw(st.sampled_from(["le", "eq"]))
        cons.append(lia.con(op, coeffs, draw(st.integers(-6, 6))))
    return cons


@given(systems())
# the Omega step must substitute the variable its row was built for, or the
# coefficients need not shrink (a = 2, b = 4, c = -25 is a solution)
@example([lia.con("eq", {"a": 2, "b": -3}, 8),
          lia.con("eq", {"a": 1, "b": 4, "c": 1}, 7)])
# a variable the replay of an eliminated equality reads must be in the model
@example([lia.con("eq", {"a": 1, "b": -1}, 0)])
def test_against_brute_force(cons):
    got = lia.solve(cons)
    reference = brute(cons)
    if reference is not None:
        assert got is not None, (cons, reference)
    if got is not None:
        assert all(_holds(c, got) for c in cons), (cons, got)


# -- a push/pop system ------------------------------------------------------------

def test_added_row_leaves_difference_logic():
    # a = b + c is eliminated by substituting a, so a - d <= 0 becomes
    # b + c - d <= 0 and branch-and-bound decides the larger system
    base = [lia.con("eq", {"a": 1, "b": -1, "c": -1}, 0),
            lia.con("le", {"b": 1, "c": -1}, 1)]
    s = lia.System(base)
    parent = s.model()
    assert not s.general
    row = lia.con("le", {"a": 1, "d": -1}, 0)
    s.push()
    s.add(row)
    assert s.general
    model = s.model()
    assert model == lia.solve(base + [row])
    assert all(_holds(c, model) for c in base + [row])
    s.pop()
    assert not s.general
    assert s.model() == parent


EXT_VARS = ["v0", "v1", "v2", "v3"]


@st.composite
def ext_rows(draw, op=None, names=EXT_VARS + ["w"]):
    """Mostly difference rows; w never occurs in a base system."""
    op = op or draw(st.sampled_from(["le", "le", "eq"]))
    vs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        signs = [1, -1] if len(vs) > 1 else [draw(st.sampled_from([1, -1]))]
        coeffs = dict(zip(vs, signs))
    else:
        coeffs = {v: draw(st.integers(-3, 3)) for v in vs}
    return lia.con(op, coeffs, draw(st.integers(-6, 6)))


@st.composite
def ext_bases(draw):
    rows = draw(st.lists(ext_rows(op="le", names=EXT_VARS), max_size=5))
    eqs = draw(st.lists(ext_rows(op="eq", names=EXT_VARS), max_size=2))
    return rows + eqs


@given(ext_bases(), st.lists(st.one_of(st.none(), ext_rows()), max_size=8))
# an infeasible extension: x < y, then y <= x
@example([lia.con("le", {"x": 1, "y": -1}, 1)],
         [lia.con("le", {"y": 1, "x": -1}, 0), None])
# substitution turns a < b into a false ground row when a = b
@example([lia.con("eq", {"a": 1, "b": -1}, 0)],
         [lia.con("le", {"a": 1, "b": -1}, 1), None])
# a row over a variable new to the system, then a cycle through it
@example([lia.con("le", {"x": 1, "y": -1}, 0), lia.con("le", {"x": -1}, 2)],
         [lia.con("le", {"w": 1, "x": -1}, 3), lia.con("le", {"x": 1, "w": -1}, -2),
          None, None])
def test_push_add_pop_match_from_scratch(base, steps):
    """After every push-and-add or pop (None) the model equals a from-scratch
    solve of the current rows, and a pop restores the parent's model."""
    s = lia.System(base)
    applied, before = [], []
    for step in steps:
        if step is None:
            if not applied:
                continue
            s.pop()
            applied.pop()
            assert s.model() == before.pop()
        else:
            before.append(s.model())
            s.push()
            s.add(step)
            applied.append(step)
        model = s.model()
        assert model == lia.solve(base + applied), (base, applied)
        if model is not None:
            assert all(_holds(c, model) for c in base + applied)


def feasible_in_box(cons, bound):
    """Brute force: some integer point with every coordinate in
    [-bound, bound] satisfies every row.  Each row is checked as soon as its
    last variable has a value."""
    vars_ = sorted({v for c in cons for v, _ in c.coeffs})
    due = [[] for _ in vars_]
    for c in cons:
        if not c.coeffs:
            if not _holds(c, {}):
                return False
            continue
        due[max(vars_.index(v) for v, _ in c.coeffs)].append(c)

    def extend(i, env):
        if i == len(vars_):
            return True
        for x in range(-bound, bound + 1):
            env[vars_[i]] = x
            if all(_holds(c, env) for c in due[i]) and extend(i + 1, env):
                return True
        del env[vars_[i]]
        return False

    return extend(0, {})


def _uses(s):
    """The index from variable to live row positions, recomputed."""
    out = {}
    for i, r in enumerate(s.rows):
        for v, _ in r.coeffs if r is not None else ():
            out.setdefault(v, set()).add(i)
    return out


def _nes(s):
    """The live `ne` rows of a system, in the order they were added."""
    return [r for r in s.rows if r is not None and r.op == "ne"]


BOX = 6
# the rows of corpus-1909 in the order the backend adds them
CORPUS_1909 = [
    lia.con("le", {"t7": -1}, 0),
    lia.con("eq", {"t7": 1, "t8": -3}, -2),
    lia.con("le", {"t8": -1}, 0),
    lia.con("le", {"t10": -1}, 0),
    lia.con("eq", {"t10": 1, "t11": -3}, -2),
    lia.con("le", {"t11": -1}, 0),
    lia.con("eq", {"t12": 1, "t10": -1, "t7": -1}, -1),
    lia.con("le", {"t12": -1}, 3),
    lia.con("eq", {"t12": 1, "t18": -3}, -2),
    lia.con("le", {"t18": -1}, 0),
]


class SequentialSystem(lia.System):
    """A system whose rows go through every substitution in the order they
    were made, as `add` once rewrote them; the reference for the rewrite by
    only the substitutions a row mentions."""

    def _rewritten(self, c):
        for v, expr, const in self.subs:
            if c is None:
                break
            c = lia._substitute(c, v, expr, const)
        return c


@st.composite
def omega_rows(draw, names=EXT_VARS[:3]):
    """An equality with no unit coefficient, eliminated by Omega steps."""
    vs = draw(st.lists(st.sampled_from(names), min_size=2, max_size=3, unique=True))
    return lia.con("eq", {v: draw(st.sampled_from([-3, -2, 2, 3])) for v in vs},
                   draw(st.integers(-6, 6)))


@given(st.lists(st.one_of(st.none(), ext_rows(names=EXT_VARS[:3]),
                          ext_rows(op="ne", names=EXT_VARS[:3]),
                          ext_rows(op="eq", names=EXT_VARS[:3]), omega_rows()), max_size=10))
@example(CORPUS_1909 + [None] * 4)
# no unit coefficient: the Omega step eliminates through a fresh variable,
# and the `ne` rows over v0 and v1 are rewritten over it
@example([lia.con("eq", {"v0": 3, "v1": 5}, -7), lia.con("le", {"v0": 1}, -2),
          lia.con("ne", {"v0": 1}, 1), None, lia.con("ne", {"v1": 1, "v2": -1}, 0),
          lia.con("eq", {"v1": 2, "v2": -3}, 1), None, None])
# an equality makes an `ne` row the ground 0 != 0, and a pop undoes it
@example([lia.con("ne", {"v0": 1, "v1": -1}, 0), lia.con("eq", {"v0": 1, "v1": -1}, 0),
          None, lia.con("ne", {"v0": 2, "v1": -2}, 1)])
# two Omega eliminations, then rows over the variables they eliminated: a
# substitution brings in an Omega variable that a later one eliminates
@example([lia.con("eq", {"v0": 2, "v1": 3}, -1), lia.con("eq", {"v1": 2, "v2": -3}, 4),
          lia.con("le", {"v0": 1, "v2": -1}, 0), lia.con("ne", {"v1": 1}, 1), None,
          lia.con("eq", {"v0": 3, "v2": 2}, 0), lia.con("le", {"v1": -1, "v0": 1}, 2)])
def test_push_add_pop_against_brute_force(steps):
    """Every variable is boxed at the bottom of the stack, so feasibility of
    the `le` and `eq` rows must equal brute force over the box; every model
    satisfies every such row in scope, each live `ne` row is violated
    exactly when the row in scope it was rewritten from is, and every pop
    restores the model from before its push and keeps the index from
    variable to live rows exact.  The model leaves the `ne` rows
    to the caller, so only a row that the equalities make ground and false
    turns the system infeasible.  Every row and substitution equals the one
    of a system that rewrites each row by every substitution in order."""
    names = sorted({v for step in steps if step is not None for v, _ in step.coeffs})
    box = [lia.con("le", {v: sign}, -BOX) for v in names for sign in (1, -1)]
    s, ref = lia.System(box), SequentialSystem(box)
    applied, before = [], []
    for step in steps:
        if step is None:
            if not applied:
                continue
            s.pop()
            ref.pop()
            applied.pop()
            assert s.model() == before.pop()
        else:
            before.append(s.model())
            for system in (s, ref):
                system.push()
                system.add(step)
            applied.append(step)
        assert (s.rows, s.subs, s.infeasible) == (ref.rows, ref.subs, ref.infeasible)
        assert s.sub_of == {v: k for k, (v, _, _) in enumerate(s.subs)}
        assert {v: rows for v, rows in s.uses.items() if rows} == _uses(s)
        model = s.model()
        scope = [c for c in applied if c.op != "ne"]
        if model is None:
            assert not feasible_in_box(applied, BOX), applied
            continue
        assert feasible_in_box(scope, BOX), applied
        assert all(_holds(c, model) for c in box + scope), (applied, model)
        assert (sum(not _holds(r, model) for r in _nes(s))
                == sum(not _holds(c, model) for c in applied if c.op == "ne")), applied


def test_replaced_rows_are_re_added_in_order():
    """x = 2w replaces the first and the third row, and their copies join
    in the order of the rows they replace."""
    s = lia.System([lia.con("le", {"x": 1, "y": -1}, 0), lia.con("le", {"y": 1}, -3),
                    lia.con("le", {"x": 2, "z": 1}, 0)])
    s.add(lia.con("eq", {"x": 1, "w": -2}, 0))
    assert [r for r in s.rows if r is not None] == [
        lia.con("le", {"y": 1}, -3), lia.con("le", {"w": 2, "y": -1}, 0),
        lia.con("le", {"w": 4, "z": 1}, 0)]
    assert {v: rows for v, rows in s.uses.items() if rows} == _uses(s)


def test_replaced_row_leaves_the_live_set():
    """In corpus-1909 the eighth row leaves `-t11 - t8 <= 0` over live
    variables, which is no difference constraint; the ninth eliminates t11,
    and the replaced row's copy `-t18 + 1 <= 0` is one, so branch-and-bound
    is no longer needed."""
    s = lia.System(CORPUS_1909[:8])
    assert s.general
    assert lia.con("le", {"t11": -1, "t8": -1}, 0) in s.rows
    s.add(CORPUS_1909[8])
    assert lia.con("le", {"t18": -1}, 1) in s.rows
    assert lia.con("le", {"t11": -1, "t8": -1}, 0) not in s.rows
    s.add(CORPUS_1909[9])
    assert not s.general
    model = s.model()
    assert all(_holds(c, model) for c in CORPUS_1909)


def test_ne_rows_are_tightened_and_substituted():
    s = lia.System([lia.con("eq", {"a": 1, "b": -1}, 0)])
    # 2a - 2c + 1 != 0 always holds; 2a - 2c != 0 is a - c != 0 over b
    s.add(lia.con("ne", {"a": 2, "c": -2}, 1))
    s.add(lia.con("ne", {"a": 2, "c": -2}, 0))
    assert _nes(s) == [lia.con("ne", {"b": 1, "c": -1}, 0)]
    assert s.model() is not None
    s.push()
    s.add(lia.con("eq", {"b": 1, "c": -1}, 0))  # 0 != 0
    assert s.model() is None
    s.pop()
    s.push()
    s.add(lia.con("ne", {}, 0))
    assert s.model() is None
    s.pop()
    assert _nes(s) == [lia.con("ne", {"b": 1, "c": -1}, 0)]


def test_free_variables_get_distinct_values():
    # after a = u and b = w the ne row is u - w != 0, and no inequality
    # bounds u or w: the replay must not give both the same value
    s = lia.System([lia.con("le", {"x": 1}, -5), lia.con("eq", {"a": 1, "u": -1}, 0),
                    lia.con("eq", {"b": 1, "w": -1}, 0), lia.con("ne", {"a": 1, "b": -1}, 0)])
    assert _nes(s) == [lia.con("ne", {"u": 1, "w": -1}, 0)]
    model = s.model()
    assert all(_holds(c, model) for c in _nes(s))
    assert model["a"] != model["b"] and {model["u"], model["w"]}.isdisjoint({model["x"]})


def test_branch_and_bound_on_an_unbounded_polyhedron(monkeypatch):
    # depth-first branching adds a bound row per level here, each node's
    # simplex grows with them, and the first model comes at node 69 after
    # minutes; breadth first finds one at node 23
    rows = [
        lia.con("le", {"v0": 2, "v1": 5, "v2": -5, "v3": 5, "v4": -5}, 9),
        lia.con("le", {"v0": -6, "v1": -5, "v2": 5, "v3": 1, "v4": -2}, 7),
        lia.con("le", {"v0": 4, "v1": 4, "v2": -2, "v3": -5}, 0),
        lia.con("eq", {"v0": 1, "v1": -2, "v2": -2, "v3": -6, "v4": 6}, 1),
    ]
    assert all(_holds(r, {"v0": -1, "v1": 5, "v2": 4, "v3": 2, "v4": 5}) for r in rows)
    simplex = lia._simplex_feasible
    calls = []

    def counted(cons, extra):
        calls.append(len(extra))
        assert len(calls) <= 40, "no model within 40 simplex calls"
        return simplex(cons, extra)

    monkeypatch.setattr(lia, "_simplex_feasible", counted)
    model = lia.System(rows).model()
    assert model is not None
    assert all(_holds(r, model) for r in rows)


def test_unknown_op_raises_at_add():
    with pytest.raises(InternalError):
        lia.System().add(lia.LinCon("lt", (("x", 1),), 0))


def _scan(s, model):
    """A full scan of the live `ne` rows under `model`: the violated ones and
    the loose ones (over a variable without a value), each as (number of
    variables, position), in the order of the pick."""
    bad, loose = [], []
    for i, r in enumerate(s.rows):
        if r is None or r.op != "ne":
            continue
        if any(v not in model for v, _ in r.coeffs):
            loose.append((len(r.coeffs), i))
        elif _holds(lia.LinCon("eq", r.coeffs, r.const), model):
            bad.append((len(r.coeffs), i))
    return sorted(bad), sorted(loose)


@given(ext_bases(), st.lists(st.tuples(st.one_of(st.none(), ext_rows(), ext_rows(op="ne")),
                                       st.booleans()), max_size=12))
# a pop removes the substitution that gave w a spread value, and the `ne`
# row over w is loose again
@example([lia.con("le", {"v0": 1}, -2)],
         [(lia.con("ne", {"w": 1, "v0": -1}, 0), True),
          (lia.con("eq", {"w": 1, "v1": -1}, 0), True),
          (None, True), (None, False), (lia.con("ne", {"w": 1}, -1), True)])
# v1 has a node only between the push and the pop, so the substitution of
# v0 over it needs a spread value again after the pop
@example([lia.con("eq", {"v0": 1, "v1": -1}, 0)],
         [(lia.con("le", {"v1": 1}, -2), True), (None, True)])
# a loose row over the free w sorts after the violated v0 != 0 and is read
@example([lia.con("le", {"v0": 1}, 0)],
         [(lia.con("ne", {"v0": 1}, 0), False),
          (lia.con("ne", {"w": 1, "v0": -1}, 0), True)])
# a pop frees the position of a watched `ne` row, and an `le` row takes it
@example([], [(lia.con("ne", {"v0": 1}, 0), True), (None, False),
              (lia.con("le", {"v0": 1}, 0), True)])
def test_watched_ne_rows_and_changed_values_match_a_full_scan(base, steps):
    """After every push-and-add or pop (None), the model equals a from-scratch
    solve of the rows in scope, the changed-variable record equals the diff
    of the last two models found, and, at the steps that read them (the
    flag), the violated rows, the loose rows and the pick equal a full scan
    of the live `ne` rows under the model."""
    s = lia.System(base)
    applied, last = [], s.model()
    for step, read in steps:
        if step is None:
            if not applied:
                continue
            s.pop()
            applied.pop()
        else:
            s.push()
            s.add(step)
            applied.append(step)
        model = s.model()
        assert model == lia.solve(base + applied), (base, applied)
        if model is None:
            continue
        if last is not None:
            assert s.changed == {v for v in model.keys() | last.keys()
                                 if model.get(v) != last.get(v)}
        last = model
        if not read:
            continue
        bad, loose = _scan(s, model)
        got = s.violated()
        assert not s.changed  # nothing changed since the read above
        assert sorted((k, i) for i, k in s._filed.items() if k) == bad
        assert sorted((len(s.rows[i].coeffs), i) for i in s._loose) == loose
        assert got[0] == (s.rows[bad[0][1]] if bad else None)
        assert got[1] == [s.rows[i] for _, i in loose]
