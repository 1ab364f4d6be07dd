"""Span tracing around the public functions of each kronset layer.

The tracer wraps a layer's functions and patches the wrappers into every
``kronset`` module that bound the original by name (``cli`` imports
``alpha`` and the diagnostics, ``engine`` imports the ``_minimax`` solvers),
so calls between layers are seen too.  Spans (name, start, end, parent) stay
in memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.  Worker processes forked by a pool inherit the
wrappers but record nothing: only the parent process traces.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict

from workloads import candidate_count

#: (module, function) pairs traced, named ``<module>.<function>`` in metrics
#: (``_minimax`` as ``minimax``: metric names start with a letter); ``groups``
#: is not traced, its cost shows in its callers' self time
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("engine", "alpha"),
    ("engine", "alpha_n"),
    ("_minimax", "min_error_circle"),
    ("_minimax", "min_error_box"),
    ("_minimax", "solve_torsion_units"),
    ("diagnostics", "maximal_separated_set"),
    ("diagnostics", "quasi_independent"),
    ("diagnostics", "b2_coincidences"),
    ("gallery", "verify_example"),
)


class Tracer:
    """In-memory span recorder plus the work counters read at the spans."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list = []        # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack: list[int] = []
        self._candidates: dict = {}

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if on_call is not None:
                on_call(self, *args)
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    def totals(self):
        """Per span name: (calls, summed duration, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered
        return calls, total, own


# ---------------------------------------------------------------------------
# counters read at the span boundaries
# ---------------------------------------------------------------------------

def _alpha_result(tracer, res):
    tracer.counts["engine.alpha.rungs"] += len(res.work.ladder)


def _alpha_n_result(tracer, res):
    tracer.counts["engine.targets_solved"] += res.work.targets_enumerated
    tracer.counts["engine.targets_pruned"] += res.work.targets_pruned
    tracer.counts["engine.inner_evals"] += res.work.inner_evals


def _circle_call(tracer, slopes, psi, budget):
    # the kernel evaluates every candidate against every nonzero slope
    key = slopes.tobytes()
    evals = tracer._candidates.get(key)
    if evals is None:
        evals = candidate_count(slopes.tolist()) * int((slopes != 0).sum())
        tracer._candidates[key] = evals
    tracer.counts["minimax.min_error_circle.cand_evals"] += evals


def _net_result(tracer, sep):
    tracer.counts["diagnostics.net.universe"] += sep.universe_size
    tracer.counts["diagnostics.net.admitted"] += len(sep.points)


HOOKS = {
    "engine.alpha": (None, _alpha_result),
    "engine.alpha_n": (None, _alpha_n_result),
    "minimax.min_error_circle": (_circle_call, None),
    "diagnostics.maximal_separated_set": (None, _net_result),
}


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Patch traced wrappers into every loaded ``kronset`` module; restore
    the originals on exit."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "kronset" or key.startswith("kronset."))]
    patched = []
    try:
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"kronset.{mod_name}"], fn_name)
            name = f"{mod_name.lstrip('_')}.{fn_name}"
            wrapper = tracer.wrap(name, original, *HOOKS.get(name, (None, None)))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    patched.append((mod, fn_name, original))
        yield tracer
    finally:
        for mod, fn_name, original in reversed(patched):
            setattr(mod, fn_name, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _metric_units():
    units = {
        "engine.alpha.calls": "count", "engine.alpha.rungs": "count",
        "engine.alpha.self_s": "s",
        "engine.alpha_n.calls": "count", "engine.alpha_n.s": "s",
        "engine.alpha_n.self_s": "s",
        "engine.targets_solved": "count", "engine.targets_pruned": "count",
        "engine.prune_ratio": "ratio", "engine.inner_evals": "count",
        "engine.inner_evals_per_s": "1/s",
    }
    for fn in ("min_error_circle", "min_error_box", "solve_torsion_units"):
        units[f"minimax.{fn}.calls"] = "count"
        units[f"minimax.{fn}.s"] = "s"
        units[f"minimax.{fn}.us_per_call"] = "us"
    units["minimax.min_error_circle.cand_evals"] = "count"
    units["minimax.min_error_circle.cand_evals_per_s"] = "1/s"
    for fn in ("maximal_separated_set", "quasi_independent", "b2_coincidences"):
        units[f"diagnostics.{fn}.calls"] = "count"
        units[f"diagnostics.{fn}.s"] = "s"
    units["diagnostics.net.universe"] = "count"
    units["diagnostics.net.admitted"] = "count"
    units["gallery.verify_example.s"] = "s"
    units["gallery.verify_example.self_s"] = "s"
    units["cli.main.calls"] = "count"
    units["cli.main.self_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


METRIC_UNITS = _metric_units()


def layer_metrics(tracer: Tracer, passes: int, overhead_frac: float) -> dict:
    """Per-pass layer metrics from a tracer that recorded ``passes`` passes."""
    calls, total, own = tracer.totals()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    attempted = counts["engine.targets_solved"] + counts["engine.targets_pruned"]
    values = {
        "engine.prune_ratio": ratio(counts["engine.targets_pruned"], attempted),
        "engine.inner_evals_per_s": ratio(counts["engine.inner_evals"],
                                          total["engine.alpha_n"]),
        "minimax.min_error_circle.cand_evals_per_s": ratio(
            counts["minimax.min_error_circle.cand_evals"],
            total["minimax.min_error_circle"]),
        "trace.overhead_frac": overhead_frac,
    }
    for name in METRIC_UNITS:
        base, _, field = name.rpartition(".")
        if name in values:
            continue
        if field == "us_per_call":
            values[name] = ratio(total[base] * 1e6, calls[base])
        elif field == "calls":
            values[name] = calls[base] / passes
        elif field == "s":
            values[name] = total[base] / passes
        elif field == "self_s":
            values[name] = own[base] / passes
        else:
            values[name] = counts[name] / passes
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRIC_UNITS.items()}
