"""Span tracing from outside the program.

`Tracer.install` replaces each layer's public function with a wrapper at the
place where its callers look the name up, so the program itself is not
changed.  Every call records a span (name, start, end, parent span, instance
id, info, released); spans stay in memory until `write` dumps them.
`layer_metrics` turns one traced pass into the benchmark's per-layer metrics.
A layer's self time is its span time minus the time of the wrapped calls made
inside it; a child is charged up to `released`, after its info count was
taken, so counting does not land in the parent's self time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module where the name is looked up, attribute, span name)
TARGETS = (
    ("adtsolve", "parse_script", "parser.parse_script"),
    ("adtsolve.sizesolve", "to_nnf", "normalize.to_nnf"),
    ("adtsolve.sizesolve", "flatten", "normalize.flatten"),
    ("adtsolve.sizesolve", "reduce", "reduce.reduce"),
    ("adtsolve.sizesolve", "simplify", "reduce.simplify"),
    ("adtsolve.sizesolve", "run_loop", "sizesolve.run_loop"),
    ("adtsolve.sizesolve", "unfold_step", "sizesolve.unfold_step"),
    ("adtsolve.sizesolve", "reconstruct", "models.reconstruct"),
    ("adtsolve.sizesolve", "check_model", "models.check_model"),
    ("adtsolve.sizesolve", "check_expanding", "signature.check_expanding"),
    ("adtsolve.backend", "solve", "backend.solve"),
    ("adtsolve.backend", "complete_model", "models.complete_model"),
    ("adtsolve.lia", "solve", "lia.solve"),
    ("adtsolve.reduce", "size_image", "signature.size_image"),
)


def _info(span_name: str, result):
    """Per-span count taken where the work happens."""
    if span_name in ("reduce.reduce", "reduce.simplify"):
        from adtsolve.reduce import rformula_nodes
        return rformula_nodes(result.formula)
    if span_name == "backend.solve":
        return result.status
    if span_name == "lia.solve":
        return result is not None
    if span_name == "sizesolve.run_loop":
        return result.rounds
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, instance, info, released]
        self.instance: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span; usable directly for the benchmark's own
        root span around `decide`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.instance, None, 0.0]
        self.spans.append(record)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[1], record[2] = start, time.perf_counter()
            self._stack.pop()
        record[5] = _info(name, result)
        record[6] = time.perf_counter()
        return result

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write('["name", "start", "end", "parent", "instance", "info", "released"]\n')
            for record in self.spans:
                f.write(json.dumps(record) + "\n")

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, _, parent, _, _, released in self.spans:
            if parent >= 0:
                child[parent] += released - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    self_s = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    infos: dict[str, list] = defaultdict(list)
    for name, _, _, _, _, info, _ in tracer.spans:
        calls[name] += 1
        if info is not None:
            infos[name].append(info)
    lia_calls = calls["lia.solve"]
    return {
        "parser.parse_s": (self_s["parser.parse_script"], "s"),
        "normalize.s": (self_s["normalize.to_nnf"] + self_s["normalize.flatten"], "s"),
        "reduce.reduce_s": (self_s["reduce.reduce"], "s"),
        "reduce.simplify_s": (self_s["reduce.simplify"], "s"),
        "reduce.calls": (calls["reduce.reduce"], "count"),
        "reduce.nodes_reduced": (sum(infos["reduce.reduce"]), "count"),
        "reduce.nodes_simplified": (sum(infos["reduce.simplify"]), "count"),
        "signature.size_image_s": (self_s["signature.size_image"], "s"),
        "signature.size_image_calls": (calls["signature.size_image"], "count"),
        "backend.solve_s": (self_s["backend.solve"], "s"),
        "backend.calls": (calls["backend.solve"], "count"),
        "backend.unknown": (infos["backend.solve"].count("unknown"), "count"),
        "lia.solve_s": (self_s["lia.solve"], "s"),
        "lia.calls": (lia_calls, "count"),
        "lia.feasible_share": (sum(infos["lia.solve"]) / lia_calls if lia_calls else 0.0,
                               "share"),
        "models.reconstruct_s": (self_s["models.reconstruct"], "s"),
        "models.check_s": (self_s["models.check_model"], "s"),
        "models.complete_s": (self_s["models.complete_model"], "s"),
        "sizesolve.loop_self_s": (self_s["sizesolve.run_loop"], "s"),
        "sizesolve.rounds": (sum(infos["sizesolve.run_loop"]), "count"),
        "sizesolve.unfold_calls": (calls["sizesolve.unfold_step"], "count"),
    }
