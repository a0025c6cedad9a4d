"""Eventually periodic subsets of the naturals.

These are the executable form of semilinear subsets of N: a finite set of
exceptional members below a threshold, then membership decided by residue
modulo a period.  `from_window` builds one from a membership oracle and
normalizes it to the canonical form with minimal period and, for that
period, minimal threshold, so equal sets compare equal.
"""

from __future__ import annotations

from typing import Callable

from .errors import InternalError
from .terms import Node


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


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
