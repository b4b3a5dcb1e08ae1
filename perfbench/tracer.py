"""Spans around the public functions of each ``partialmetric`` layer.

The benchmark traces from outside: :class:`Tracer` replaces each target
function with a timing wrapper in every ``partialmetric`` module
namespace that bound it (and on the class, for methods), and puts the
originals back on exit. Nothing under ``src/`` knows it is being traced.

A span's self time is its duration minus the time its child spans
cover; inclusive time is counted only for spans with no ancestor of the
same name, so recursion and nested analyzers are not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

# (span name, defining module, attribute); "Class.method" patches the class.
TARGETS = (
    ("kernels.axiom_scan", "partialmetric.kernels", "axiom_scan"),
    ("kernels.metric_scan", "partialmetric.kernels", "metric_scan"),
    ("kernels.flatten_numerators", "partialmetric.kernels", "flatten_numerators"),
    ("core.construct", "partialmetric.core", "FinitePMSpace.__init__"),
    ("points.parse", "partialmetric.core", "FinitePMSpace.from_json"),
    ("core.check_axioms", "partialmetric.core", "check_axioms"),
    ("core.derived_matrix", "partialmetric.core", "p_m_matrix"),
    ("core.derived_matrix", "partialmetric.core", "d_matrix"),
    ("core.derived_matrix", "partialmetric.core", "p_bar_matrix"),
    ("core.separation_class", "partialmetric.core", "separation_class"),
    ("core.ball", "partialmetric.core", "ball"),
    ("analysis.gdelta_diagonal", "partialmetric.analysis", "gdelta_diagonal"),
    ("analysis.maximal_points", "partialmetric.analysis", "maximal_points"),
    ("analysis.specialization_order", "partialmetric.analysis", "specialization_order"),
    ("analysis.totally_bounded_at", "partialmetric.analysis", "totally_bounded_at"),
    ("analysis.sequence", "partialmetric.analysis", "converges_to"),
    ("analysis.sequence", "partialmetric.analysis", "properly_converges"),
    ("analysis.sequence", "partialmetric.analysis", "is_cauchy"),
    ("analysis.sequence", "partialmetric.analysis", "limit_set"),
    ("analysis.sequence", "partialmetric.analysis", "seq_compact_witness"),
    ("fixedpoint.exhaustive_condition_maps", "partialmetric.fixedpoint", "exhaustive_condition_maps"),
    ("fixedpoint.check_condition_max", "partialmetric.fixedpoint", "check_condition_max"),
    ("fixedpoint.constant_map_bottom", "partialmetric.fixedpoint", "constant_map_bottom"),
    ("fixedpoint.iterate", "partialmetric.fixedpoint", "iterate"),
    ("catalog.random_pm_space", "partialmetric.catalog", "random_pm_space"),
    ("properties.check_space_properties", "partialmetric.properties", "check_space_properties"),
    ("facts.run_fact_suite", "partialmetric.facts", "run_fact_suite"),
    ("cli.main", "partialmetric.cli", "main"),
)


def _module_bindings(original) -> list[tuple[object, str]]:
    """Every (partialmetric module, name) currently bound to ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "partialmetric" or mod_name.startswith("partialmetric.")):
            continue
        found.extend((mod, attr) for attr, value in list(vars(mod).items()) if value is original)
    return found


def target_bindings() -> list[tuple[str, object, str, object]]:
    """(span name, namespace, attribute, current object) for every binding of a target.

    A method is bound once, on its class; a function in every
    ``partialmetric`` module (the package included) that imported it.
    """
    out = []
    for span, module, attr in TARGETS:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            out.append((span, cls, meth, cls.__dict__[meth]))
        else:
            original = getattr(mod, attr)
            out.extend((span, ns, name, original) for ns, name in _module_bindings(original))
    return out


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, name, child seconds]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.next_id = 0
        self.op_id = 0
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()   # (parent name, child name) -> calls
        self.counts: Counter = Counter()  # work counters from the observers
        self._op_spaces: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for span, ns, name, original in target_bindings():
            if id(original) not in wrappers:
                if isinstance(original, classmethod):
                    wrappers[id(original)] = classmethod(self._wrap(span, original.__func__))
                else:
                    wrappers[id(original)] = self._wrap(span, original)
            self._restore.append((ns, name, original))
            setattr(ns, name, wrappers[id(original)])
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            ns, name, original = self._restore.pop()
            setattr(ns, name, original)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        tracer = self
        observe = OBSERVERS.get(span)

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer.next_id, span, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, start, end, parent)
            if observe is not None:
                observe(tracer, args, result, end - start - frame[2])
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, start, end, parent) -> None:
        span, dur = frame[1], end - start
        self.calls[span] += 1
        self.self_s[span] += dur - frame[2]
        if not any(f[1] == span for f in self.stack):
            self.incl[span] += dur
        if parent is not None:
            parent[2] += dur
            self.edges[(parent[1], span)] += 1
        self.spans.append((frame[0], span, start, end, parent[0] if parent else None, self.op_id))

    # -- ops ----------------------------------------------------------------

    def begin_op(self) -> None:
        """Close the current op (if any) and give later spans a new op id."""
        self.counts["core.check_axioms.spaces"] += len(self._op_spaces)
        self._op_spaces = set()
        self.op_id += 1

    def end(self) -> None:
        """Close the last op; call before reading the metrics."""
        self.begin_op()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, ops: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` traced operations, as (value, unit).

        Times are multiplied by ``scale``, the run's factor to reference
        speed (see ``run.py``).
        """
        per_op = 1000.0 * scale / ops

        def ms(name):
            return self.incl[name] * per_op, "ms/op"

        def self_ms(name):
            return self.self_s[name] * per_op, "ms/op"

        def calls(value):
            return value / ops, "calls/op"

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        c = self.counts
        scan_self = self.self_s["kernels.axiom_scan"] + self.self_s["kernels.metric_scan"]
        return {
            "kernels.axiom_scan.ms": ms("kernels.axiom_scan"),
            "kernels.metric_scan.ms": ms("kernels.metric_scan"),
            "kernels.scan.self_ms": (scan_self * per_op, "ms/op"),
            "kernels.triples_per_s": (c["triples"] / (c["sweep_seconds"] * scale)
                                      if c["sweep_seconds"] else 0.0, "1/s"),
            "kernels.flatten_numerators.ms": ms("kernels.flatten_numerators"),
            "kernels.wide_fallback.calls": calls(c["wide"]),
            "core.construct.ms": ms("core.construct"),
            "points.parse.ms": self_ms("points.parse"),
            "core.check_axioms.calls": calls(self.calls["core.check_axioms"]),
            # Over spaces that pass: a failing space needs its one scan
            # only, so planted violations would dilute the repeated scans.
            "core.check_axioms.per_space": ratio(c["core.check_axioms.passing_calls"],
                                                 c["core.check_axioms.spaces"]),
            "core.check_axioms.self_ms": self_ms("core.check_axioms"),
            "core.derived_matrix.ms": ms("core.derived_matrix"),
            "core.separation_class.ms": ms("core.separation_class"),
            "core.ball.calls": calls(self.calls["core.ball"]),
            "analysis.gdelta_diagonal.self_ms": self_ms("analysis.gdelta_diagonal"),
            "analysis.gdelta_diagonal.eps_steps": (c["eps_steps"] / ops, "steps/op"),
            "analysis.maximal_points.self_ms": self_ms("analysis.maximal_points"),
            "analysis.maximal_points.ball_calls": calls(
                self.edges[("analysis.maximal_points", "core.ball")]),
            "analysis.specialization_order.self_ms": self_ms("analysis.specialization_order"),
            "analysis.totally_bounded_at.ms": ms("analysis.totally_bounded_at"),
            "fixedpoint.exhaustive_condition_maps.ms": ms("fixedpoint.exhaustive_condition_maps"),
            "fixedpoint.maps_enumerated": (c["maps"] / ops, "maps/op"),
            "fixedpoint.survivor_ratio": ratio(c["survivors"], c["maps"]),
            "fixedpoint.check_condition_max.calls": calls(self.calls["fixedpoint.check_condition_max"]),
            "fixedpoint.constant_map_bottom.ms": ms("fixedpoint.constant_map_bottom"),
            "catalog.random_pm_space.ms": ms("catalog.random_pm_space"),
            "properties.check_space_properties.self_ms": self_ms("properties.check_space_properties"),
            "cli.main.ms": ms("cli.main"),
            "facts.run_fact_suite.self_ms": self_ms("facts.run_fact_suite"),
            "analysis.sequence.ms": ms("analysis.sequence"),
            "fixedpoint.iterate.steps": (c["iterate_steps"] / ops, "steps/op"),
        }


# Observers run after a span closes, with (tracer, args, result, self seconds).

def _observe_scan(tracer: Tracer, args, result, self_seconds: float) -> None:
    if result is None:  # no violation: the scan swept every triple
        tracer.counts["triples"] += len(args[0]) ** 3
        tracer.counts["sweep_seconds"] += self_seconds


def _observe_flatten(tracer: Tracer, args, result, self_seconds: float) -> None:
    guard = getattr(sys.modules["partialmetric.kernels"], "_INT64_SAFE", 1 << 61)
    if result and max(map(abs, result)) >= guard:
        tracer.counts["wide"] += 1


def _observe_check_axioms(tracer: Tracer, args, result, self_seconds: float) -> None:
    if result.ok:
        tracer.counts["core.check_axioms.passing_calls"] += 1
        tracer._op_spaces.add(id(args[0]))


def _observe_gdelta(tracer: Tracer, args, result, self_seconds: float) -> None:
    tracer.counts["eps_steps"] += result.stabilization_n


def _observe_enumeration(tracer: Tracer, args, result, self_seconds: float) -> None:
    n = len(args[0])
    tracer.counts["maps"] += n ** n
    tracer.counts["survivors"] += len(result)


def _observe_iterate(tracer: Tracer, args, result, self_seconds: float) -> None:
    tracer.counts["iterate_steps"] += result.steps


OBSERVERS = {
    "kernels.axiom_scan": _observe_scan,
    "kernels.metric_scan": _observe_scan,
    "kernels.flatten_numerators": _observe_flatten,
    "core.check_axioms": _observe_check_axioms,
    "analysis.gdelta_diagonal": _observe_gdelta,
    "fixedpoint.exhaustive_condition_maps": _observe_enumeration,
    "fixedpoint.iterate": _observe_iterate,
}
