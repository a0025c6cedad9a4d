"""Seeded generators for the three benchmark workloads.

Every generator returns a list of `Instance` records whose `text` is a
complete SMT-LIB script; the solver only ever sees that text.  The same seed
yields the same texts.  Known answers are computed here from the construction
(chain), in closed form (distinct), or left to the model check and the
bounded oracle (corpus), never from the solver pipeline.

`chain` and `unfold` lay their instance sizes on fixed ladders, because the
cost of one instance is steep in its size (about n^2 for a sat chain, 1.8x per
step of n for an unsat chain), so drawn sizes would make seeds measure
different amounts of work.  The seed draws the colour declaration order, the
variable names and the instance order there.  `corpus` likewise keeps its
content fixed and lets the seed draw names and order (see CORPUS_CONTENT_SEED).
"""

from __future__ import annotations

import random
import re
from dataclasses import asdict, dataclass, field

WORKLOADS = ("corpus", "chain", "unfold")

COLOURS = ("red", "green", "blue")
DEFAULT_FUEL = 100


@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    text: str
    expected: str | None  # 'sat' | 'unsat' | None: checked by model and oracle
    fuel: int = DEFAULT_FUEL
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def clist_header(colours: tuple[str, ...]) -> str:
    ctors = " ".join(f"({c})" for c in colours)
    return ("(declare-datatypes ((Colour 0) (CList 0))\n"
            f"  (({ctors})\n"
            "   ((nil) (cons (head Colour) (tail CList)))))")


def _script(header: str, decls: list[str], asserts: list[str]) -> str:
    body = [header] + decls + [f"(assert {a})" for a in asserts] + ["(check-sat)"]
    return "\n".join(body) + "\n"


# -- corpus: the repository's own random generator -----------------------------------

CORPUS_SIZE = 2000
CORPUS_SIG_GROUP = 10      # instances that share one random signature
CORPUS_SIZE_EVERY = 5      # every fifth instance carries size atoms
# The generator's draws come from this fixed seed; the benchmark seed draws
# the name tag of each signature and the instance order.  With content drawn
# from the benchmark seed, ten seeds of 2000 instances gave decide-time sums
# whose interquartile range was 0.31 of their median, because a handful of
# size instances per seed take a quarter of the time.
CORPUS_CONTENT_SEED = 0


def signature_text(sig) -> str:
    names = " ".join(f"({s} 0)" for s in sig.sorts)
    bodies = []
    for s in sig.sorts:
        ctors = []
        for c in sig.ctors_of(s):
            args = "".join(f" ({sel} {sort})" for sel, sort in c.args)
            ctors.append(f"({c.name}{args})")
        bodies.append("(" + " ".join(ctors) + ")")
    return f"(declare-datatypes ({names})\n  ({' '.join(bodies)}))"


def corpus(seed: int) -> list[Instance]:
    from adtsolve.corpus import GenConfig, random_formula, random_signature
    from adtsolve.semantics import print_formula
    from adtsolve.terms import free_vars

    content = random.Random(CORPUS_CONTENT_SEED)
    rng = random.Random(seed)
    out = []
    for i in range(CORPUS_SIZE):
        if i % CORPUS_SIG_GROUP == 0:
            sig = random_signature(content)
            header = signature_text(sig)
            # every symbol of the signature is <letters><tag>_<suffix>
            tag = re.match(r"[A-Za-z]+(\d+)_", sig.sorts[0]).group(1)
            retag = (re.compile(rf"\b([A-Za-z]+){tag}_"), rf"\g<1>{rng.randrange(10000)}_")
        sized = i % CORPUS_SIZE_EVERY == CORPUS_SIZE_EVERY - 1
        phi = random_formula(content, sig, GenConfig(n_vars=content.randint(1, 3),
                                                     size_atoms=sized))
        decls = [f"(declare-const {v.name} {v.sort})"
                 for v in sorted(free_vars(phi).adt, key=lambda v: v.name)]
        text = _script(header, decls, [print_formula(sig, phi)])
        family = "corpus-size" if sized else "corpus-depth"
        out.append(Instance(f"corpus-{i}", family, retag[0].sub(retag[1], text), None))
    rng.shuffle(out)
    return out


# -- chain: one large conjunction, no unfolding loop -----------------------------------

# sat: the search stops at the first consistent branch; cost ~ n^2
CHAIN_SAT_LADDER = (10, 15, 20, 25, 30, 35, 40, 45)
# unsat: heads restricted to the first two declared colours plus
# head x0 != head x2, so the search must be exhausted.  Cost grows by ~1.8x
# per step: n = 12 takes ~2 s, n = 14 ~6 s, and n = 20 returns unknown after
# ~57 s, when the backend's 20k split cap runs out, although the answer is unsat.  Restricting to
# any other pair of colours is about three times cheaper.
CHAIN_UNSAT_LADDER = (6, 7, 8, 9, 10, 11, 12)


def chain_text(n: int, colours: tuple[str, ...], two: tuple[str, str] | None,
               names: list[str]) -> str:
    """x_{i+1} = tail x_i for i < n, every x_i a cons, adjacent heads differ;
    with `two`, heads are restricted to those colours and head x_0 != head x_2."""
    x = names
    asserts = []
    for i in range(n):
        asserts.append(f"((_ is cons) {x[i]})")
        asserts.append(f"(= {x[i + 1]} (tail {x[i]}))")
    asserts.append(f"((_ is cons) {x[n]})")
    for i in range(n):
        asserts.append(f"(not (= (head {x[i]}) (head {x[i + 1]})))")
    if two:
        a, b = two
        for i in range(n + 1):
            asserts.append(f"(or (= (head {x[i]}) {a}) (= (head {x[i]}) {b}))")
        asserts.append(f"(not (= (head {x[0]}) (head {x[2]})))")
    decls = [f"(declare-const {v} CList)" for v in x[:n + 1]]
    return _script(clist_header(colours), decls, asserts)


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    tag = rng.randrange(1000)
    return [f"{prefix}{tag}_{i}" for i in range(n)]


def chain(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for n in CHAIN_SAT_LADDER:
        colours = tuple(rng.sample(COLOURS, 3))
        names = _names(rng, "x", n + 1)
        out.append(Instance(f"chain-sat-{n}", "chain-sat",
                            chain_text(n, colours, None, names), "sat",
                            params={"n": n, "names": names}))
    for n in CHAIN_UNSAT_LADDER:
        colours = tuple(rng.sample(COLOURS, 3))
        two = (colours[0], colours[1])
        out.append(Instance(f"chain-unsat-{n}", "chain-unsat",
                            chain_text(n, colours, two, _names(rng, "x", n + 1)),
                            "unsat", params={"n": n}))
    rng.shuffle(out)
    return out


# -- unfold: size-mode families that run the unfolding loop ----------------------------

def distinct_count(k: int) -> int:
    """Number of CList terms (over three colours) with size <= k: a list of
    length m has size 2m + 1, so this is sum_{j <= (k - 1) / 2} 3^j."""
    if k < 1:
        return 0
    return sum(3 ** j for j in range((k - 1) // 2 + 1))


def distinct_text(n: int, k: int, colours: tuple[str, ...], names: list[str]) -> str:
    asserts = [f"(not (= {names[i]} {names[j]}))"
               for i in range(n) for j in range(i + 1, n)]
    asserts += [f"(<= (adt.size {v}) {k})" for v in names]
    decls = [f"(declare-const {v} CList)" for v in names]
    return _script(clist_header(colours), decls, asserts)


def nat_text(names: list[str]) -> str:
    x, y = names
    asserts = [f"(not (= {x} {y}))", f"(= (adt.size {x}) (adt.size {y}))"]
    return _script("(declare-datatypes ((Nat 0)) (((one) (succ (pred Nat)))))",
                   [f"(declare-const {x} Nat)", f"(declare-const {y} Nat)"], asserts)


# (n, k): sat with 5 to 16 rounds, then unsat with 3 rounds.  The unsat pairs
# whose loop runs longer, such as (5, 3) with 11 rounds, take ~5 s each.
UNFOLD_DISTINCT = ((2, 3), (3, 4), (4, 3), (5, 5), (2, 1), (3, 2), (4, 2))
# Nat x != y with |x| = |y| is unsat, but Nat is non-expanding, so the loop
# runs until the fuel is spent and answers unknown; cost ~ fuel^2.5
UNFOLD_NAT_FUEL = (10, 14, 18, 22, 26)


def unfold(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for n, k in UNFOLD_DISTINCT:
        colours = tuple(rng.sample(COLOURS, 3))
        text = distinct_text(n, k, colours, _names(rng, "d", n))
        expected = "sat" if n <= distinct_count(k) else "unsat"
        out.append(Instance(f"distinct-{n}-{k}", "distinct", text, expected,
                            params={"n": n, "k": k}))
    for fuel in UNFOLD_NAT_FUEL:
        text = nat_text(_names(rng, "m", 2))
        out.append(Instance(f"nat-{fuel}", "nat", text, "unsat", fuel=fuel))
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> list[Instance]:
    if workload == "corpus":
        return corpus(seed)
    if workload == "chain":
        return chain(seed)
    if workload == "unfold":
        return unfold(seed)
    raise ValueError(f"unknown workload {workload!r}")
