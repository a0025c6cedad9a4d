"""The measured process: one fresh interpreter per workload run.

    python3 perfbench/worker.py --inputs FILE --mode setup --out FILE
    python3 perfbench/worker.py --inputs FILE --mode measure --seconds S
                                --trace 0|1 --out FILE [--spans FILE]

`setup` imports adtsolve and parses every instance between two sets of
reference jobs, then exits; the parent times the whole process.  `measure`
decides the instances round-robin, one closed-loop caller with no threads,
until `--seconds` have passed and every instance was decided at least once,
with reference jobs interleaved (`Reference`).  With `--trace 1` it spends half the time untraced and then
decides every instance once more with the layer wrappers installed.  Model
checks run after the timed passes, before tracing, and the untraced scripts
are dropped so that tracing runs with the same amount of live memory.  The
result goes to `--out` as JSON; nothing is printed on standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
import time


def _build(depth: int, i: int) -> tuple:
    if depth == 0:
        return ("leaf", i % 7)
    return ("node", i % 3, _build(depth - 1, 3 * i + 1), _build(depth - 1, 3 * i + 2))


def _walk(t: tuple, acc: dict) -> int:
    if t[0] == "leaf":
        acc[t[1]] = acc.get(t[1], 0) + 1
        return 1
    return 1 + _walk(t[2], acc) + _walk(t[3], acc)


class Reference:
    """Interleaves reference jobs with the measured decides.  Decides are
    grouped into blocks of at least BLOCK_S seconds; after each block,
    reference jobs run for REF_SHARE of the block's time, and every decide
    of the block is divided by the mean job time of the jobs run right
    before and right after it.  The machine's speed drifts by up to 2x over
    seconds to minutes, and the solver and the job slow down together, so
    the ratio is steady where the seconds are not."""

    BLOCK_S = 0.2
    REF_SHARE = 0.15

    def __init__(self):
        self.pending: list[tuple[list[float], float]] = []
        self.block_s = 0.0
        self.job_s: list[float] = []

    @staticmethod
    def job() -> int:
        """A fixed piece of pure-Python work, independent of adtsolve: builds
        and walks trees of nested tuples with dict and set traffic, as the
        solver's term code does.  The collector is off so that the job never
        pays for the solver's live objects."""
        gc.disable()
        try:
            acc: dict = {}
            n = 0
            for i in range(3):
                t = _build(8, i)
                n += _walk(t, acc) + len({hash(t[2]) % 997, hash(t[3]) % 997})
            return n + len(sorted(acc.items()))
        finally:
            gc.enable()

    def add(self, into: list[float], seconds: float) -> None:
        self.pending.append((into, seconds))
        self.block_s += seconds
        if self.block_s >= self.BLOCK_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        spent, jobs = 0.0, 0
        while jobs < 2 or spent < self.REF_SHARE * self.block_s:
            started = time.perf_counter()
            self.job()
            spent += time.perf_counter() - started
            jobs += 1
        job = spent / jobs
        # the block ran between the previous jobs and these: use both
        divisor = (self.job_s[-1] + job) / 2 if self.job_s else job
        self.job_s.append(job)
        for into, seconds in self.pending:
            into.append(seconds / divisor)
        self.pending, self.block_s = [], 0.0


def run_passes(adtsolve, instances, scripts, seconds: float):
    """Round-robin decides until the time is used up.  Returns per-instance
    times in seconds and in reference jobs, the status of every pass, the
    reference job times, and first-pass sat models.

    Every decide gets a copy of the signature as `parse_script` left it, so
    the signature caches are as cold in later passes as in the first."""
    n = len(instances)
    samples: list[list[float]] = [[] for _ in range(n)]
    relative: list[list[float]] = [[] for _ in range(n)]
    statuses: list[list[str]] = [[] for _ in range(n)]
    models: dict[int, object] = {}
    parsed = [dict(script.sig._cache) for script in scripts]
    ref = Reference()
    ref.job()  # the first call pays for nothing the later ones do not
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        for i, (inst, script) in enumerate(zip(instances, scripts)):
            if not first and time.perf_counter() >= deadline:
                break
            phi = script.formula()
            sig = dataclasses.replace(script.sig, _cache=dict(parsed[i]))
            res = None  # the previous result is freed outside the timed region
            started = time.perf_counter()
            try:
                res = adtsolve.decide(phi, sig, fuel=inst["fuel"])
            except Exception as e:  # noqa: BLE001 - counted as a failed operation
                status = f"error: {type(e).__name__}: {e}"
            else:
                status = res.status
                if first and status == "sat":
                    models[i] = res.model
            elapsed = time.perf_counter() - started
            samples[i].append(elapsed)
            ref.add(relative[i], elapsed)
            statuses[i].append(status)
        ref.flush()
        first = False
    return samples, relative, statuses, ref.job_s, models


def chain_structure_ok(inst, model) -> bool:
    """x_{i+1} is the tail of x_i, every x_i is a cons, adjacent heads differ."""
    names = inst["params"]["names"]
    terms = [model.adt.get(v) for v in names]
    if any(t is None or t.ctor != "cons" for t in terms):
        return False
    for a, b in zip(terms, terms[1:]):
        if a.args[1] != b or a.args[0] == b.args[0]:
            return False
    return True


def check_model(inst, script, model) -> bool:
    from adtsolve.semantics import evaluate
    if not evaluate(script.sig, model, script.formula()):
        return False
    return inst["family"] != "chain-sat" or chain_structure_ok(inst, model)


SETUP_JOBS = 20  # reference jobs before and after the set-up work


def setup(instances, out: str) -> None:
    """Imports adtsolve and parses every instance, with reference jobs just
    before and after, so that the parent can take the set-up time at a
    fixed machine speed.  Writes the jobs' total and mean time to `out`."""
    def jobs() -> float:
        started = time.perf_counter()
        for _ in range(SETUP_JOBS):
            Reference.job()
        return time.perf_counter() - started

    spent = jobs()
    import adtsolve
    for inst in instances:
        adtsolve.parse_script(inst["text"])
    spent += jobs()
    with open(out, "w") as f:
        json.dump({"jobs_s": spent, "job_s": spent / (2 * SETUP_JOBS)}, f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=["setup", "measure"], required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    with open(args.inputs) as f:
        instances = json.load(f)
    if args.mode == "setup":
        setup(instances, args.out)
        return 0
    import adtsolve
    scripts = [adtsolve.parse_script(inst["text"]) for inst in instances]

    budget = args.seconds / 2 if args.trace else args.seconds
    samples, relative, statuses, job_s, models = run_passes(adtsolve, instances, scripts,
                                                            budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    model_ok = {i: check_model(instances[i], scripts[i], m) for i, m in models.items()}
    out = {"samples": samples, "relative": relative, "statuses": statuses,
           "reference_job_s": job_s, "peak_rss_mb": peak_rss_mb, "model_ok": model_ok}
    del scripts, models

    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        try:
            traced_scripts = []
            for i, inst in enumerate(instances):
                tracer.instance = i
                traced_scripts.append(adtsolve.parse_script(inst["text"]))
            traced_status, traced_relative = [], []
            ref = Reference()
            for i, (inst, script) in enumerate(zip(instances, traced_scripts)):
                tracer.instance = i
                phi = script.formula()
                t0 = time.perf_counter()
                try:
                    res = tracer.span("decide", adtsolve.decide, phi, script.sig,
                                      fuel=inst["fuel"])
                    traced_status.append(res.status)
                except Exception as e:  # noqa: BLE001 - compared with untraced
                    traced_status.append(f"error: {type(e).__name__}: {e}")
                ref.add(traced_relative, time.perf_counter() - t0)
            ref.flush()
        finally:
            tracer.uninstall()
        out["traced_status"] = traced_status
        out["traced_decide_ref"] = sum(traced_relative)
        out["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)

    with open(args.out, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
