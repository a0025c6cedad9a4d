"""The frozen dataclasses that `terms.Node` replaced, kept as the reference
its classes are compared against: every `Node` class gets a twin made by
`dataclasses.make_dataclass` with the same fields, frozen, and on the nodes
of every bundled input (the parsed formula, its reduct before and after
simplification, the decided model, the signature's analyses), each node and
its twin give the same `==`, `hash()` and `repr()`, with `NotImplemented`
between classes."""

from __future__ import annotations

import copy
import dataclasses
import glob
import os
import pickle
import random

import pytest

from adtsolve.normalize import flatten, to_nnf
from adtsolve.parser import parse_script
from adtsolve.reduce import RFALSE, RTRUE, reduce, simplify
from adtsolve.signature import (
    CtorDecl, Signature, check_expanding, size_image, validate,
)
from adtsolve.sizesolve import decide, reduction_mode
from adtsolve.terms import FALSE, TRUE, Node, free_vars

INPUTS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                       os.pardir, "scripts", "inputs", "*.smt2")))
# no bundled input scales or subtracts
SCALED = "(declare-const a Int)\n(assert (< (* 2 (- a)) 3))\n"


def _node_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


# the frozen dataclass each class was, of its fields in order
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
         for cls in _node_classes()}


def twin(x):
    """`x` with every node in it replaced by its twin, but in a frozenset,
    whose order a rebuild may change (its nodes are compared one by one)."""
    if isinstance(x, Node):
        return TWINS[type(x)](*(twin(getattr(x, f)) for f in x._fields))
    if isinstance(x, tuple):
        return tuple(twin(a) for a in x)
    return x


def _nodes(root):
    """Every node below `root`, in preorder."""
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, frozenset, list)):
            stack.extend(reversed(list(x)))
        elif isinstance(x, dict):
            stack.extend(reversed(list(x.items())))
        elif isinstance(x, Node):
            yield x
            stack.extend(getattr(x, f) for f in reversed(x._fields))


def _roots(text: str) -> list:
    """The nodes a run of every command makes from one script."""
    script = parse_script(text)
    sig, phi = script.sig, script.formula()
    reduct = reduce(flatten(to_nnf(phi), sig), sig, reduction_mode(phi))
    roots = [phi, free_vars(phi), sig.ctors, reduct.formula, simplify(reduct).formula,
             check_expanding(sig)]
    roots += [size_image(sig, s) for s in sig.sorts]
    res = decide(phi, sig)
    if res.model is not None:
        roots.append(res.model.adt)
    return roots


SPECIAL = [TRUE, FALSE, RTRUE, RFALSE,
           validate(Signature(("S", "T"), (CtorDecl("c", "S", (("f", "U"),)),)))]


@pytest.fixture(scope="module")
def pairs():
    """(node, an equal node built apart) over every bundled input."""
    found = []
    texts = [SCALED]
    for path in INPUTS:
        with open(path) as f:
            texts.append(f.read())
    for text in texts:
        found += zip(_nodes(_roots(text)), _nodes(_roots(text)))
    found += zip(_nodes(SPECIAL), _nodes(SPECIAL))
    return found


def test_the_inputs_make_every_node_class(pairs):
    assert {type(x) for x, _ in pairs} == set(TWINS)
    assert len(TWINS) >= 31


def test_each_node_hashes_and_prints_as_its_twin(pairs):
    for x, y in pairs:
        assert x == y and twin(x) == twin(y)
        assert hash(x) == hash(twin(x)) == hash(y), x
        assert repr(x) == repr(twin(x))


def test_each_node_compares_as_its_twin(pairs):
    rng = random.Random(0)
    nodes = [x for x, _ in pairs]
    by_class: dict[type, list] = {}
    for x in nodes:
        by_class.setdefault(type(x), []).append(x)
    for x in nodes:
        for y in (rng.choice(by_class[type(x)]), rng.choice(nodes)):
            assert (x == y) is (twin(x) == twin(y)), (x, y)
            assert (x != y) is (twin(x) != twin(y)), (x, y)
            if type(x) is not type(y):
                assert x.__eq__(y) is NotImplemented
                assert twin(x).__eq__(twin(y)) is NotImplemented


def test_each_node_copies_and_pickles_to_an_equal_node(pairs):
    for x, _ in pairs[::7]:
        for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(copied) is type(x) and copied == x
