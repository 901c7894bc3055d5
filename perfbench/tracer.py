"""Spans and counters around heunx's module-level functions, from outside.

`Tracer.install` wraps each function named in `SPANS` and `COUNTERS` and
rebinds the wrapper under every name any heunx module looks it up by, so a
call is caught whether it goes through `_kernels.expansion_core`, a global
inside `_kernels`, or a name imported with `from .x import f`. `uninstall`
puts the originals back.

A span records (id, name, layer, start_ns, end_ns, parent id, ns covered
by its children, info); the root of each CLI call is its `main` span. The
hottest kernel, `f21_with_derivs`, runs hundreds of thousands of times per
call; it is kept as a counter (calls, ns, terms) whose time is still
charged to the enclosing span, so self times stay right.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function, layer metric key): spans recorded one per call
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "cmd_reduce", "cli"),
    ("cli", "cmd_coeffs", "cli"),
    ("cli", "cmd_eval", "cli"),
    ("cli", "cmd_verify", "cli"),
    ("params", "params_from_dict", "params"),
    ("params", "require_valid", "params"),
    ("reduction", "q_candidates_N0", "reduction.closed"),
    ("reduction", "q_candidates_N1", "reduction.closed"),
    ("reduction", "q_candidates_N2", "reduction.closed"),
    ("reduction", "solve_reduction_general", "reduction.general"),
    ("reduction", "verify_reduction", "reduction.verify"),
    ("recurrence", "two_term_coefficients", "recurrence.two_term"),
    ("recurrence", "three_term_coefficients", "recurrence.three_term"),
    ("evaluator", "_sum_all", "evaluator.sum"),
    ("oracle", "cross_check", "oracle.cross_check"),
    ("_kernels", "expansion_core", "kernels.expansion_core"),
    ("_kernels", "expansion_weights", "kernels.weights"),
    ("_kernels", "three_term_stream", "kernels.three_term"),
    ("_kernels", "frobenius_fill", "kernels.frobenius_fill"),
    ("_kernels", "newton_general", "kernels.newton"),
)
COUNTERS = (("_kernels", "f21_with_derivs", "kernels.f21"),)


def _info(key, args, result):
    """The few argument and result fields the per-layer metrics need."""
    if key == "evaluator.sum":
        return {"z": float(args[1]), "terms": int(result[3]),
                "max_terms": int(args[2].max_terms)}
    if key == "kernels.expansion_core":
        return {"big_m": int(args[9]), "terms": int(result[3])}
    if key == "kernels.newton":
        return {"ok": bool(result[3])}
    if key == "kernels.frobenius_fill":
        return {"terms": len(result[0])}
    if key in ("recurrence.two_term", "recurrence.three_term"):
        return {"terms": len(result)}
    if key in ("reduction.closed", "reduction.general"):
        return {"cases": len(result)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []                      # [id, name, key, t0, t1, parent, child_ns, info]
        self.counters = defaultdict(lambda: [0, 0, 0])   # key -> [calls, ns, terms]
        self._stack = []
        self._saved = []                     # (module, attr, original)

    def _span(self, name, key, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, key, clock(), 0, stack[-1][0] if stack else -1, 0, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[7] = _info(key, args, result)
                return result
            finally:
                rec[4] = clock()
                stack.pop()
                if stack:
                    stack[-1][6] += rec[4] - rec[3]
        return wrapper

    def _counter(self, key, fn):
        cell, stack = self.counters[key], self._stack
        clock = time.perf_counter_ns

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            cell[0] += 1
            cell[1] += dt
            cell[2] += result[3]
            if stack:
                stack[-1][6] += dt
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "heunx" or n.startswith("heunx.")) and m is not None]
        for table, make in ((SPANS, lambda n, k, f: self._span(n, k, f)),
                            (COUNTERS, lambda n, k, f: self._counter(k, f))):
            for mod_name, func_name, key in table:
                original = getattr(sys.modules["heunx." + mod_name], func_name)
                wrapped = make(func_name, key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "layer", "start_ns", "end_ns",
                                  "parent", "child_ns", "info"],
                       "spans": self.spans,
                       "counters": {k: {"calls": v[0], "ns": v[1], "terms": v[2]}
                                    for k, v in self.counters.items()}}, fh)


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above
    it, or None while that percentile would not lie above the median."""
    n = len(values)
    if n < 21:
        return None
    ordered = sorted(values)
    k = n - 11                   # ten samples lie beyond index k
    return 100.0 * (k + 1) / n, ordered[k]


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer figures per traced job, from the spans and counters."""
    by_key = defaultdict(list)
    for rec in tracer.spans:
        by_key[rec[2]].append(rec)
    name_of = {rec[0]: rec[2] for rec in tracer.spans}

    def total_s(key):
        # inclusive time; a span nested in one of its own layer is not counted twice
        return sum(r[4] - r[3] for r in by_key[key] if name_of.get(r[5]) != key) / 1e9

    def self_s(key):
        return sum(r[4] - r[3] - r[6] for r in by_key[key]) / 1e9

    def info_sum(key, field):
        return sum(r[7][field] for r in by_key[key] if r[7])

    f21 = tracer.counters["kernels.f21"]
    sums = by_key["evaluator.sum"]
    cores = [r for r in by_key["kernels.expansion_core"]
             if name_of.get(r[5]) == "evaluator.sum"]
    # a point is one z within one CLI call; its time is every summation there
    point_ns = defaultdict(int)
    for r in sums:
        call = r[5]
        while call >= 0 and tracer.spans[call][1] != "main":
            call = tracer.spans[call][5]
        point_ns[(call, r[7]["z"])] += r[4] - r[3]
    point_s = [v / 1e9 for v in point_ns.values()]
    tail = tail_percentile(point_s)
    newton = by_key["kernels.newton"]
    general_cases = info_sum("reduction.general", "cases")
    per = 1.0 / max(jobs, 1)
    return {
        "kernels.f21.calls": f21[0] * per,
        "kernels.f21.terms": f21[2] * per,
        "kernels.f21.s": f21[1] / 1e9 * per,
        "kernels.expansion_core.self_s": self_s("kernels.expansion_core") * per,
        "kernels.weights.calls": len(by_key["kernels.weights"]) * per,
        "kernels.weights.s": total_s("kernels.weights") * per,
        "kernels.three_term.s": total_s("kernels.three_term") * per,
        "kernels.frobenius_fill.s": total_s("kernels.frobenius_fill") * per,
        "kernels.newton.calls": len(newton) * per,
        "kernels.newton.s": total_s("kernels.newton") * per,
        "evaluator.points": len(point_ns) * per,
        "evaluator.sum_calls": len(sums) * per,
        "evaluator.sum_calls_per_point": len(sums) / len(point_ns) if point_ns else 0.0,
        "evaluator.core_calls": len(cores) * per,
        "evaluator.doublings": (len(cores) - len(sums)) * per,
        "evaluator.terms": sum(r[7]["terms"] for r in cores) * per,
        "evaluator.max_terms_hits": sum(1 for r in sums
                                        if r[7]["terms"] > r[7]["max_terms"]) * per,
        "evaluator.point_s.median": statistics.median(point_s) if point_s else 0.0,
        "evaluator.point_s.tail": tail[1] if tail else max(point_s, default=0.0),
        "reduction.closed.s": total_s("reduction.closed") * per,
        "reduction.general.s": total_s("reduction.general") * per,
        "reduction.newton.converged": sum(1 for r in newton if r[7]["ok"]) * per,
        "reduction.useful_ratio": general_cases / len(newton) if newton else 0.0,
        "reduction.verify.calls": len(by_key["reduction.verify"]) * per,
        "reduction.verify.s": total_s("reduction.verify") * per,
        "recurrence.two_term.s": total_s("recurrence.two_term") * per,
        "recurrence.three_term.s": total_s("recurrence.three_term") * per,
        "recurrence.terms": (info_sum("recurrence.two_term", "terms")
                             + info_sum("recurrence.three_term", "terms")) * per,
        "oracle.cross_check.s": total_s("oracle.cross_check") * per,
        "oracle.frobenius.terms": info_sum("kernels.frobenius_fill", "terms") * per,
        "params.s": total_s("params") * per,
        "cli.self_s": self_s("cli") * per,
    }
