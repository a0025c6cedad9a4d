#!/usr/bin/env python3
"""Seeded benchmark of adtsolve over three workloads.

    python3 perfbench/run.py --workload corpus|chain|unfold --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are SMT-LIB texts generated from
the seed (see gen.py); the program only sees `parse_script` and `decide`.
With `--trace 0` the end-to-end metrics are measured: set-up time (a fresh
interpreter that imports adtsolve and parses every instance, median of
several, scaled to a fixed speed of the reference job below), the time to decide every instance once, per-instance latency, the
share of decided instances, the share of correct answers and peak memory.
Decide times are given in reference jobs (`ref`): each is divided by the time
of a fixed piece of pure-Python work run in the same process between the
decides (worker.Reference), because the machine's speed drifts too much for
seconds to compare between runs.  An
instance counts with the median of the same number of passes as every other.
With `--trace 1` a separate run wraps each layer (tracing.py) and reports the
per-layer metrics and the tracing overhead.  Every verdict is checked against
a known answer outside the timed region.  The last line of standard output is
one JSON object.  A decide that raises counts as failed but gives no wrong
answer; the exit code is 0 when no answer was wrong, 1 when some were, and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 5         # timed set-ups per run
# Set-up time is given at the speed at which the reference job takes this
# long right around the set-up work (a round figure; see README.md).
NOMINAL_JOB_S = 0.0006
SETUP_TIMEOUT = 15
MEASURE_MARGIN = 60      # the first pass runs to its end even after --seconds


class WorkerError(Exception):
    pass


def run_worker(args: list[str], timeout: float) -> float:
    """Run worker.py in a fresh interpreter; returns its wall time."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            env=env, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which rounded
    # set-up times to 50 ms; a blocking wait and a watchdog do not
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if code != 0:
        raise WorkerError(f"worker exited with {code} after {elapsed:.1f} s "
                          f"(limit {timeout:.0f} s)")
    return elapsed


def verify(instances, result, trace: bool) -> tuple[list[str], list[str]]:
    """Failed operations, as (errors, wrong).  Errors are decides that raised
    the same exception in every pass.  Wrong answers are verdicts that change
    between passes or under tracing, verdicts that contradict the known
    answer, sat models that fail the check, and unsat verdicts refuted by the
    bounded oracle."""
    from adtsolve import parse_script
    from adtsolve.corpus import oracle_sat_within_bound

    errors, wrong = [], []
    for i, inst in enumerate(instances):
        statuses = result["statuses"][i]
        status = statuses[0]
        where = f"{inst.name}: "
        if len(set(statuses)) != 1:
            wrong.append(where + f"verdict changed between passes: {statuses}")
        elif trace and result["traced_status"][i] != status:
            wrong.append(where + f"traced verdict {result['traced_status'][i]} "
                                 f"differs from {status}")
        elif status not in ("sat", "unsat", "unknown"):
            errors.append(where + status)
        elif inst.expected and status != "unknown" and status != inst.expected:
            wrong.append(where + f"{status}, known answer {inst.expected}")
        elif status == "sat" and not result["model_ok"][str(i)]:
            wrong.append(where + "model check failed")
        elif status == "unsat" and inst.expected is None:
            script = parse_script(inst.text)
            if oracle_sat_within_bound(script.sig, script.formula()) is not None:
                wrong.append(where + "unsat, but the oracle found a model")
    return errors, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "adtsolve", "__init__.py")):
        print(f"adtsolve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import adtsolve  # noqa: F401 - compiles the sources before set-up is timed
    import gen
    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {gen.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    instances = gen.generate(args.workload, args.seed)
    work = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    os.makedirs(work, exist_ok=True)
    inputs = os.path.join(work, "inputs.json")
    out = os.path.join(work, "result.json")
    spans = os.path.join(work, "spans.jsonl")
    with open(inputs, "w") as f:
        json.dump([inst.to_json() for inst in instances], f)

    try:
        setups, raw_setups = [], []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                wall = run_worker(["--inputs", inputs, "--mode", "setup", "--out", out],
                                  SETUP_TIMEOUT)
                with open(out) as f:
                    jobs = json.load(f)
                raw_setups.append(wall - jobs["jobs_s"])
                setups.append(raw_setups[-1] * NOMINAL_JOB_S / jobs["job_s"])
        measure = ["--inputs", inputs, "--mode", "measure", "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", out]
        if args.trace:
            measure += ["--spans", spans]
        run_worker(measure, args.seconds + MEASURE_MARGIN)
    except WorkerError as e:
        print(e, file=sys.stderr)
        return 2
    with open(out) as f:
        result = json.load(f)

    errors, wrong = verify(instances, result, bool(args.trace))
    failed = len(errors) + len(wrong)
    n = len(instances)
    first = [s[0] for s in result["statuses"]]
    decided = sum(s in ("sat", "unsat") for s in first)
    # every instance counts with the median of the same number of passes
    passes = min(len(s) for s in result["samples"])
    seconds = [statistics.median(s[:passes]) for s in result["samples"]]
    relative = [statistics.median(s[:passes]) for s in result["relative"]]
    q = statistics.quantiles(relative, n=100, method="inclusive")
    job_ms = 1000 * statistics.median(result["reference_job_s"])

    print(f"workload {args.workload}, seed {args.seed}: {n} instances, "
          f"{passes} passes; sat {first.count('sat')}, unsat {first.count('unsat')}, "
          f"unknown {first.count('unknown')}")
    print(f"in seconds: wall {sum(seconds):.3f} s, p50 {1000 * statistics.median(seconds):.3f} ms, "
          f"slowest {1000 * max(seconds):.1f} ms; reference job {job_ms:.4f} ms (median)"
          + (f"; set-up {statistics.median(raw_setups):.4f} s" if raw_setups else ""))
    print(f"latency samples: {n} instances, {sum(x > q[98] for x in relative)} beyond p99")
    for line in (wrong + errors)[:20]:
        print("FAILED " + line)

    if args.trace:
        metrics = dict(result["layers"])
        # the gap in reference jobs, at the run's median job time
        overhead_ref = result["traced_decide_ref"] - sum(relative)
        metrics["trace.overhead_s"] = (overhead_ref * job_ms / 1000, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_ref": (sum(relative), "ref"),
            "latency_p50_ref": (q[49], "ref"),
            "latency_p99_ref": (q[98], "ref"),
            "decided_share": (decided / n, "share"),
            "correct_share": ((n - failed) / n, "share"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
