"""Eventually periodic subsets of the naturals.

These are the executable form of semilinear subsets of N: a finite set of
exceptional members below a threshold, then membership decided by residue
modulo a period.  The size analyses compute on them in the plain form
`(threshold, period, bits)`, where `bits` holds membership below
`threshold + period`, with the operations a grammar's least fixpoint
needs: union, Minkowski sum, shift by a weight and star.  Each returns the
canonical form (`normalize`): the least period and, for that period, the
least threshold, so equal sets compare equal.  `from_bits` turns a form
into an `EventuallyPeriodicSet`.

No form or scratch bitset is wider than `MAX_BITS`: thresholds and periods
can grow exponentially with a grammar, and past that width an operation
raises ResourceLimitError.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InternalError, ResourceLimitError
from .terms import Node

MAX_BITS = 1 << 16

Form = tuple[int, int, int]  # (threshold, period, bits below threshold + period)
EMPTY: Form = (0, 1, 0)
ZERO: Form = (1, 1, 1)  # {0}


class EventuallyPeriodicSet(Node):
    """exceptions below `threshold`, then `n in S iff n % period in residues`."""

    __slots__ = ("exceptions", "threshold", "period", "residues")
    exceptions: frozenset[int]
    threshold: int
    period: int
    residues: frozenset[int]

    def __init__(self, exceptions: frozenset[int], threshold: int, period: int,
                 residues: frozenset[int]):
        if period < 1:
            raise InternalError("period must be positive")
        if any(r < 0 or r >= period for r in residues):
            raise InternalError("residues must lie in [0, period)")
        if any(e < 0 or e >= threshold for e in exceptions):
            raise InternalError("exceptions must lie in [0, threshold)")
        self._init(exceptions, threshold, period, residues)

    @staticmethod
    def from_bits(threshold: int, period: int, bits: int) -> "EventuallyPeriodicSet":
        """The set with members `bits` below `threshold + period` that
        repeats with `period` from `threshold` on, in canonical form."""
        t, p, b = normalize(threshold, period, bits)
        return EventuallyPeriodicSet(frozenset(n for n in range(t) if b >> n & 1), t, p,
                                     frozenset(n % p for n in range(t, t + p) if b >> n & 1))

    # -- queries -----------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return n in self.exceptions
        return (n % self.period) in self.residues

    @property
    def is_empty(self) -> bool:
        return not self.exceptions and not self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    # -- presentation ------------------------------------------------------

    def describe(self) -> str:
        if self.is_empty:
            return "{}"
        if self.is_finite:
            return "{" + ", ".join(str(m) for m in sorted(self.exceptions)) + "}"
        res = sorted(self.residues)
        if self.period == 1:
            tail = f"{{n : n >= {self.threshold}}}"
        else:
            rs = ", ".join(str(r) for r in res)
            tail = f"{{n >= {self.threshold} : n mod {self.period} in {{{rs}}}}}"
        if self.exceptions:
            head = ", ".join(str(m) for m in sorted(self.exceptions))
            return f"{{{head}}} u " + tail
        return tail


# -- arithmetic on forms ----------------------------------------------------

def _ones(width: int) -> int:
    if width > MAX_BITS:
        raise ResourceLimitError(f"eventually periodic set wider than {MAX_BITS} bits")
    return (1 << width) - 1


def normalize(t: int, p: int, bits: int) -> Form:
    """The canonical form of the set with members `bits` below t + p that
    repeats with period p from t on.  The least period divides p, and d | p
    is a period iff the block of p bits from t repeats after d; dividing p
    by each of its prime factors while that holds finds it.  Then bit n of
    `bits ^ bits >> p` is set iff n and n + p differ in membership, so the
    least threshold is one past the highest such n."""
    bits &= _ones(t + p)
    block = bits >> t
    n, q = p, 2
    while n > 1:
        if q * q > n:
            q = n  # the prime left
        if n % q:
            q += 1
            continue
        while n % q == 0:
            n //= q
        while p % q == 0 and not (block ^ block >> p // q) & ((1 << p - p // q) - 1):
            p //= q
    t = ((bits ^ bits >> p) & ((1 << t) - 1)).bit_length()
    return t, p, bits & ((1 << t + p) - 1)


def _bits_below(a: Form, limit: int) -> int:
    """The members of `a` below `limit`: its block repeated by doubling."""
    t, p, bits = a
    block, width = bits >> t, p
    while t + width < limit:
        block |= block << width
        width *= 2
    return (bits | block << t) & _ones(limit)


def union(*sets: Form) -> Form:
    """Repeats with the lcm of the periods from the largest threshold on."""
    t = max((a[0] for a in sets), default=0)
    p = lcm(*(a[1] for a in sets))
    bits = 0
    for a in sets:
        bits |= _bits_below(a, t + p)
    return normalize(t, p, bits)


def plus(a: Form, b: Form) -> Form:
    """The Minkowski sum {x + y : x in a, y in b}.  With L = lcm of the
    periods, n >= ta + tb + L is in it iff n + L is: n = x + y has x >= ta
    or y >= tb, which takes L more; n + L = x + y has x >= ta + L or
    y >= tb + L, which gives L back."""
    if not a[2] or not b[2]:
        return EMPTY
    p = lcm(a[1], b[1])
    t = a[0] + b[0] + p
    x, y = _bits_below(a, t + p), _bits_below(b, t + p)
    if x.bit_count() > y.bit_count():
        x, y = y, x
    out = 0
    while x:  # shift the denser operand by each member of the sparser
        low = x & -x
        out |= y << low.bit_length() - 1
        x ^= low
    return normalize(t, p, out)


def shift(a: Form, w: int) -> Form:
    """{x + w : x in a}."""
    return normalize(a[0] + w, a[1], a[2] << w)


def star(a: Form) -> Form:
    """The sums of members of `a`, 0 included.  With g the gcd of the
    members and m the least member, the sums are multiples of g, and once
    they hold m/g consecutive multiples of g, adding m covers every later
    one; the first such run starts the periodic part.  The sums below a
    width W are built by doubling shifts, each member not yet a sum joining
    in turn; W starts at 2(t + p + m) and doubles, up to `MAX_BITS`, until a
    run lies below it."""
    t, p, bits = a
    members = _bits_below(a, t + 2 * p) & ~1  # from t + p on they repeat
    if not members:
        return ZERO
    m = (members & -members).bit_length() - 1
    g = 0
    while members and g != 1:
        g = gcd(g, (members & -members).bit_length() - 1)
        members &= members - 1
    width = 2 * (t + p + m)
    while True:
        width = min(width, MAX_BITS)
        mask = _ones(width)
        out = 1
        gens = _bits_below(a, width) & ~out
        while gens:
            n = (gens & -gens).bit_length() - 1
            while n < width:
                out |= (out << n) & mask
                n *= 2
            gens &= ~out
        run, length = out, 1  # bit i: the multiples i, i + g, ... of length
        while length < m // g:
            step = min(length, m // g - length)
            run &= run >> step * g
            length += step
        if run:
            return normalize((run & -run).bit_length() - 1, g, out)
        if width == MAX_BITS:
            raise ResourceLimitError(f"eventually periodic set wider than {MAX_BITS} bits")
        width *= 2
