import pytest
from hypothesis import HealthCheck, settings

from adtsolve.signature import CtorDecl, Signature
from adtsolve.parser import parse_formula

# signatures and parsers are immutable, so sharing fixtures across examples is fine
settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture])
settings.load_profile("suite")


COLOUR_CTORS = (
    CtorDecl("red", "Colour"),
    CtorDecl("green", "Colour"),
    CtorDecl("blue", "Colour"),
)
CLIST_CTORS = (
    CtorDecl("nil", "CList"),
    CtorDecl("cons", "CList", (("head", "Colour"), ("tail", "CList"))),
)


@pytest.fixture
def lists_sig():
    return Signature(("Colour", "CList"), COLOUR_CTORS + CLIST_CTORS)


@pytest.fixture
def nat_sig():
    return Signature(("Nat",), (
        CtorDecl("one", "Nat"),
        CtorDecl("succ", "Nat", (("pred", "Nat"),)),
    ))


@pytest.fixture
def mixed_sig():
    return Signature(("Colour", "CList", "Nat"), COLOUR_CTORS + CLIST_CTORS + (
        CtorDecl("one", "Nat"),
        CtorDecl("succ", "Nat", (("pred", "Nat"),)),
    ))


@pytest.fixture
def two_cycle_sig():
    return Signature(("Colour", "CList", "S1", "S2"), COLOUR_CTORS + CLIST_CTORS + (
        CtorDecl("f1", "S1", (("s2", "S2"),)),
        CtorDecl("f2", "S2", (("s1", "S1"),)),
        CtorDecl("null", "S2"),
        CtorDecl("col", "S2", (("list", "CList"),)),
    ))


@pytest.fixture
def three_cycle_sig():
    return Signature(("Colour", "CList", "S1", "S2", "S3"),
                     COLOUR_CTORS + CLIST_CTORS + (
        CtorDecl("f1", "S1", (("s2", "S2"),)),
        CtorDecl("f2", "S2", (("s3", "S3"),)),
        CtorDecl("f3", "S3", (("s1", "S1"),)),
        CtorDecl("null", "S3"),
        CtorDecl("col", "S3", (("list", "CList"),)),
    ))


# trees and forests of them: the two sorts form one strongly connected
# component of the sort graph
FOREST_SIG = Signature(("Tree", "Forest"), (
    CtorDecl("leaf", "Tree"),
    CtorDecl("node", "Tree", (("children", "Forest"),)),
    CtorDecl("fnil", "Forest"),
    CtorDecl("fcons", "Forest", (("fhead", "Tree"), ("ftail", "Forest"))),
))


@pytest.fixture
def forest_sig():
    return FOREST_SIG


@pytest.fixture
def fml(lists_sig):
    """Parse a formula over the list signature with standard variables."""
    vars_ = {"x": "CList", "y": "Colour", "z": "CList", "c": "Colour",
             "l": "CList", "k": "Int", "n": "Int"}

    def parse(text):
        return parse_formula(text, lists_sig, vars_)

    return parse
