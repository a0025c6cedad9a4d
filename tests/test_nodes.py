"""The node classes are compact and immutable: every `Node` class of
`adtsolve`, and every frozen dataclass left, is slotted, so its instances
carry no `__dict__`, and refuses assignment; the reader interns its atoms, so
each name of a script is one string however often it occurs."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import adtsolve
from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_script
from adtsolve.reduce import reduce
from adtsolve.terms import Ctor, Node, Sel, Var


def _frozen_dataclasses():
    """Every `Node` class and every frozen dataclass defined in a module of
    the package (but `__main__`, which runs the command line when
    imported)."""
    found = []
    for info in pkgutil.iter_modules(adtsolve.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"adtsolve.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and (
                    (issubclass(cls, Node) and cls is not Node)
                    or (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)):
                found.append(cls)
    return found


FROZEN = _frozen_dataclasses()
INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "inputs")


def test_the_walk_finds_every_node_module():
    modules = {cls.__module__ for cls in FROZEN}
    assert {"adtsolve.terms", "adtsolve.reduce", "adtsolve.signature",
            "adtsolve.semilinear"} <= modules
    assert len(FROZEN) >= 32
    assert len([cls for cls in FROZEN if issubclass(cls, Node)]) >= 31


def test_signature_is_the_only_frozen_dataclass_left():
    # each frozen dataclass costs about 1 ms of `import adtsolve`
    frozen = [cls for cls in FROZEN if not issubclass(cls, Node)]
    assert [cls.__name__ for cls in frozen] == ["Signature"]


def test_import_leaves_the_external_solver_and_simplex_modules_out():
    # only an external solver needs `subprocess` and `shlex`, and only
    # branch and bound `fractions`: they are imported on first use
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys\nbefore = set(sys.modules)\nimport adtsolve\n"
            "print(sorted({'subprocess', 'shlex', 'fractions'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_frozen_dataclass_instances_have_no_dict(cls):
    x = object.__new__(cls)  # no field needs a value to show the layout
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(x, "extra", 1)
    # a frozen slotted class of Python 3.11 raises TypeError here, later
    # versions FrozenInstanceError
    with pytest.raises((AttributeError, TypeError)):
        x.extra = 1
    if issubclass(cls, Node):
        # the annotations document the fields, which the slots define
        assert tuple(cls.__annotations__) == cls._fields
    field = next(iter(cls.__slots__), None)
    if field is not None:
        with pytest.raises(AttributeError):
            setattr(x, field, 1)
        object.__setattr__(x, field, 1)
        with pytest.raises(AttributeError):
            delattr(x, field)


def test_parsed_and_reduced_nodes_have_no_dict():
    with open(os.path.join(INPUTS, "lists.smt2")) as f:
        script = parse_script(f.read())
    reduct = reduce(flatten(to_nnf(script.formula()), script.sig), script.sig)
    nodes = list(_nodes(script.formula())) + list(_nodes(reduct.formula))
    assert len(nodes) > 50
    assert not [x for x in nodes if hasattr(x, "__dict__")]


def test_each_name_of_a_script_is_one_string():
    script = parse_script("""
        (declare-datatypes ((Colour 0) (CList 0)) (((red) (green) (blue))
                           ((nil) (cons (head Colour) (tail CList)))))
        (declare-const xs CList)
        (declare-const ys CList)
        (assert ((_ is cons) xs))
        (assert (= ys (tail xs)))
        (assert (not (= xs ys)))
    """)
    occurrences: dict[str, list[str]] = {}
    for x in _nodes(script.formula()):
        if isinstance(x, Var):
            occurrences.setdefault(x.name, []).append(x.name)
            occurrences.setdefault(x.sort, []).append(x.sort)
    for decl in script.sig.ctors:
        occurrences.setdefault(decl.sort, []).append(decl.sort)
    assert len(occurrences["xs"]) == 3 and len(occurrences["ys"]) == 2
    assert len(occurrences["CList"]) > 5
    for name, strings in occurrences.items():
        assert all(s is strings[0] for s in strings), name


def _chain(n, base):
    """tl(tl(...tl(base)...)) n selectors deep, built bottom-up."""
    t = base
    for _ in range(n):
        t = Sel("cons", 1, t)
    return t


def test_deep_selector_chains_compare_without_recursion():
    # equal chains and constructors over them, built apart, compare on an
    # explicit stack under the default recursion limit
    assert sys.getrecursionlimit() < 10_000
    x, y = Var("x", "L"), Var("y", "L")
    a, b, c = _chain(10_000, x), _chain(10_000, x), _chain(10_000, y)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c
    head = Var("h", "Colour")
    assert Ctor("cons", (head, a)) == Ctor("cons", (head, b))
    assert Ctor("cons", (head, a)) != Ctor("cons", (head, c))
    assert Ctor("cons", (head, a)) != a


def _nodes(root):
    """Every `Node` below `root`, on an explicit stack."""
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Node):
            yield x
            stack.extend(getattr(x, f) for f in x._fields)
