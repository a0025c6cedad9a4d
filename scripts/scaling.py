"""Time `decide` on the sat chain and the two-colour chain as n doubles.

    python scripts/scaling.py                 # n = 160, 320, 640
    python scripts/scaling.py 20 40 80        # any sizes, ascending

For each family and size it prints the verdict, the best of two wall times
of `decide` (time.perf_counter, parsing excluded), the best of two times
spent in its `sizesolve.reduce` calls, and the splits the backend spent;
then the ratio of the time at the largest size to the time at the one
before it, for `decide` and for `reduce`.  The instances are `chain_text` of
`perfbench/gen.py`: x_{i+1} = tail x_i, every x_i a cons, adjacent heads
differ, and for the two-colour chain heads restricted to two colours with
head x_0 != head x_2 (unsat).  The script exits 1 when a verdict is not
the known one (sat chain: sat; two-colour chain: unsat), and sets no
time limit.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from gen import chain_text  # noqa: E402

from adtsolve import backend, decide, parse_script, sizesolve  # noqa: E402

COLOURS = ("red", "green", "blue")
FAMILIES = (("chain", None, "sat"), ("two-colour chain", COLOURS[:2], "unsat"))


def splits_spent(script) -> tuple[str, float, int, float]:
    """One decide: its verdict, wall time, the splits of its solves and the
    seconds spent in its reductions."""
    spent = []
    reducing = []

    class Counted(backend._Budget):
        def __init__(self, splits):
            super().__init__(splits)
            spent.append((self, splits))

    def timed_reduce(*args, **kwargs):
        started = time.perf_counter()
        try:
            return untimed(*args, **kwargs)
        finally:
            reducing.append(time.perf_counter() - started)

    budget, backend._Budget = backend._Budget, Counted
    untimed, sizesolve.reduce = sizesolve.reduce, timed_reduce
    try:
        started = time.perf_counter()
        res = decide(script.formula(), script.sig)
        elapsed = time.perf_counter() - started
    finally:
        backend._Budget = budget
        sizesolve.reduce = untimed
    return res.status, elapsed, sum(cap - b.splits for b, cap in spent), sum(reducing)


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or [160, 320, 640]
    ok = True
    for family, two, expected in FAMILIES:
        times, reduce_times = [], []
        for n in sizes:
            text = chain_text(n, COLOURS, two, [f"x{i}" for i in range(n + 1)])
            script = parse_script(text)
            runs = [splits_spent(script) for _ in range(2)]
            status, splits = runs[0][0], runs[0][2]
            best = min(r[1] for r in runs)
            best_reduce = min(r[3] for r in runs)
            times.append(best)
            reduce_times.append(best_reduce)
            ok &= status == expected
            print(f"{family} n={n}: {status} in {best:.3f} s "
                  f"({best_reduce:.3f} s in reduce), {splits} splits")
        if len(times) > 1:
            print(f"{family}: {sizes[-1]}/{sizes[-2]} = {times[-1] / times[-2]:.2f}x, "
                  f"reduce {reduce_times[-1] / reduce_times[-2]:.2f}x")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
