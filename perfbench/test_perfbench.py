"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Reference  # noqa: E402
from adtsolve import parse_script  # noqa: E402
from adtsolve.signature import count_terms_of_size  # noqa: E402


@pytest.fixture(scope="module")
def generated():
    return {w: gen.generate(w, 7) for w in gen.WORKLOADS}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_yields_identical_inputs(workload, generated):
    again = gen.generate(workload, 7)
    assert [i.to_json() for i in again] == [i.to_json() for i in generated[workload]]
    other = gen.generate(workload, 8)
    assert [i.text for i in other] != [i.text for i in again]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_generated_text_parses(workload, generated):
    for inst in generated[workload]:
        script = parse_script(inst.text)
        assert script.commands == ["check-sat"], inst.name
        assert script.asserts, inst.name


def test_corpus_mix():
    insts = gen.generate("corpus", 3)
    assert len(insts) == gen.CORPUS_SIZE
    sized = [i for i in insts if "adt.size" in i.text]
    assert {i.family for i in sized} == {"corpus-size"}
    assert sum(i.family == "corpus-size" for i in insts) == gen.CORPUS_SIZE // 5


def test_distinct_count_matches_term_counting():
    sig = parse_script(gen.clist_header(gen.COLOURS) + "\n").sig
    for k in range(10):
        counted = sum(count_terms_of_size(sig, "CList", b) for b in range(k + 1))
        assert gen.distinct_count(k) == counted, k


def test_unfold_known_answers():
    for inst in gen.generate("unfold", 1):
        if inst.family == "distinct":
            n, k = inst.params["n"], inst.params["k"]
            assert inst.expected == ("sat" if n <= gen.distinct_count(k) else "unsat")
    assert {i.expected for i in gen.generate("unfold", 1)} == {"sat", "unsat"}


def test_reference_divides_each_block_by_its_own_jobs():
    ref = Reference()
    first, second = [], []
    ref.add(first, 0.05)
    assert first == [] and ref.job_s == []
    ref.add(first, ref.BLOCK_S)           # completes the block
    ref.add(second, 0.01)
    ref.flush()
    assert len(ref.job_s) == 2
    assert first == pytest.approx([0.05 / ref.job_s[0], ref.BLOCK_S / ref.job_s[0]])
    assert second == pytest.approx([0.01 / ((ref.job_s[0] + ref.job_s[1]) / 2)])


def test_self_time_excludes_children():
    tracer = Tracer()
    # name, start, end, parent, instance, info, released
    tracer.spans = [
        ["decide", 0.0, 10.0, -1, 0, None, 10.0],
        ["backend.solve", 1.0, 6.0, 0, 0, "sat", 6.5],
        ["lia.solve", 2.0, 4.0, 1, 0, True, 4.0],
        ["lia.solve", 4.0, 5.0, 1, 0, False, 5.0],
    ]
    self_s = tracer.self_times()
    assert self_s["decide"] == pytest.approx(4.5)
    assert self_s["backend.solve"] == pytest.approx(2.0)
    assert self_s["lia.solve"] == pytest.approx(3.0)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    proc = _run(ROOT, "--workload", "unfold", "--seed", "1", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "chain", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
