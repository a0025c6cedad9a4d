"""Eventually periodic subsets of the naturals.

These are the executable form of semilinear subsets of N: a finite set of
exceptional members below a threshold, then membership decided by residue
modulo a period.  All constructors normalize to the canonical form with
minimal period and, for that period, minimal threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable

from .errors import InternalError


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@dataclass(frozen=True)
class EventuallyPeriodicSet:
    """exceptions below `threshold`, then `n in S iff n % period in residues`."""

    exceptions: frozenset[int]
    threshold: int
    period: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.period < 1:
            raise InternalError("period must be positive")
        if any(r < 0 or r >= self.period for r in self.residues):
            raise InternalError("residues must lie in [0, period)")
        if any(e < 0 or e >= self.threshold for e in self.exceptions):
            raise InternalError("exceptions must lie in [0, threshold)")

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(exceptions: Iterable[int], threshold: int, period: int,
             residues: Iterable[int]) -> "EventuallyPeriodicSet":
        """Build from arbitrary (consistent) data and normalize."""
        exc = set(exceptions)
        res = set(residues)
        # Fold members >= threshold mandated by residues into the tail; members
        # listed as exceptions but >= threshold must agree with the tail.
        for e in list(exc):
            if e >= threshold:
                if (e % period) not in res:
                    raise InternalError("exception above threshold disagrees with tail")
                exc.discard(e)
        return _normalize(exc, threshold, period, res)

    @staticmethod
    def empty() -> "EventuallyPeriodicSet":
        return EventuallyPeriodicSet(frozenset(), 0, 1, frozenset())

    @staticmethod
    def finite(members: Iterable[int]) -> "EventuallyPeriodicSet":
        ms = set(members)
        if any(m < 0 for m in ms):
            raise InternalError("members must be naturals")
        if not ms:
            return EventuallyPeriodicSet.empty()
        return _normalize(ms, max(ms) + 1, 1, set())

    @staticmethod
    def from_window(member: Callable[[int], bool], threshold: int,
                    period: int) -> "EventuallyPeriodicSet":
        """Build from a membership oracle known to be periodic beyond `threshold`."""
        exc = {n for n in range(threshold) if member(n)}
        res = {n % period for n in range(threshold, threshold + period) if member(n)}
        return _normalize(exc, threshold, period, res)

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

    def min(self) -> int | None:
        cands = set(self.exceptions)
        if self.residues:
            cands.update(self.threshold + ((r - self.threshold) % self.period)
                         for r in self.residues)
        return min(cands) if cands else None

    # -- algebra -----------------------------------------------------------

    def union(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        per = self.period * other.period // gcd(self.period, other.period)
        thr = max(self.threshold, other.threshold)
        exc = {n for n in range(thr) if n in self or n in other}
        res = set()
        for r in range(per):
            n = thr + ((r - thr) % per)
            if n in self or n in other:
                res.add(r)
        return _normalize(exc, thr, per, res)

    def __or__(self, other: "EventuallyPeriodicSet") -> "EventuallyPeriodicSet":
        return self.union(other)

    def shifted(self, c: int) -> "EventuallyPeriodicSet":
        """S + c for a constant c >= 0."""
        if c < 0:
            raise InternalError("negative shift")
        exc = {e + c for e in self.exceptions}
        res = {(r + c) % self.period for r in self.residues}
        return _normalize(exc, self.threshold + c, self.period, res)

    def minkowski_steps(self, step: int, k: int) -> "EventuallyPeriodicSet":
        """Minkowski sum with {0, step, 2*step, ..., k*step}."""
        acc = self
        for i in range(1, k + 1):
            acc = acc.union(self.shifted(i * step))
        return acc

    def plus_multiples(self, step: int) -> "EventuallyPeriodicSet":
        """Minkowski sum with all multiples of `step` (the limit of minkowski_steps)."""
        if step < 1:
            raise InternalError("step must be positive")
        if self.is_empty:
            return self

        def member(m: int) -> bool:
            return any((m - i * step) in self for i in range(m // step + 1))

        g = gcd(step, self.period)
        thr = self.threshold + step * (self.period // g + 2)
        if self.exceptions:
            thr += max(self.exceptions) + step + 1
        return EventuallyPeriodicSet.from_window(member, thr, step)

    def tail_only(self) -> "EventuallyPeriodicSet":
        """The set with all exceptional members dropped (purely periodic part)."""
        return _normalize(set(), self.threshold, self.period, set(self.residues))

    def eventually_contains(self, other: "EventuallyPeriodicSet") -> bool:
        """True iff all but finitely many members of `other` belong to `self`."""
        per = self.period * other.period // gcd(self.period, other.period)
        thr = max(self.threshold, other.threshold)
        for r in range(per):
            n = thr + ((r - thr) % per)
            if n in other and n not in self:
                return False
        return True

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


def _normalize(exc: set[int], thr: int, per: int, res: set[int]) -> EventuallyPeriodicSet:
    # minimal period: smallest divisor of per that the residue set is invariant under
    for d in _divisors(per):
        proj = {r % d for r in res}
        if all(((r % d) in proj) == (r in res) for r in range(per)):
            per = d
            res = proj
            break
    # minimal threshold for that period
    while thr > 0:
        n = thr - 1
        if (n in exc) == ((n % per) in res):
            exc.discard(n)
            thr -= 1
        else:
            break
    exc = {e for e in exc if e < thr}
    if not res and exc:
        thr = max(exc) + 1
    if not res and not exc:
        thr = 0
        per = 1
    return EventuallyPeriodicSet(frozenset(exc), thr, per, frozenset(res))
