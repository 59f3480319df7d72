"""Span tracing of the toruswalk layers from outside the package.

`Tracer.install()` replaces each layer's public function at the name its
caller looks it up by (the names `toruswalk.scan` and `toruswalk.cli`
imported, plus `toruswalk.bounds.cohort_sum_S` and
`toruswalk.fourier.etk_upper_bound`, which are looked up at call time).
Each call records a span (layer, start, end, parent) in memory; work
counts are computed after the call returns, inside a `trace` span of
their own, so they are charged to no layer.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time


def _freqs(b):
    return (2 * b["M"] + 1) ** b["G"].d - 1


def _search_vectors(b):
    # the d = 1 search scans +-h for 1 <= h <= hmax, d >= 2 the whole box minus 0
    return (2 * b["hmax"] + 1) ** b["G"].d - 1


def _count_bits(result):
    return sum(c.bit_length() for c in result.counts.values())


# (module, attribute, layer, {count metric: f(bound arguments, result)})
LAYERS = (
    ("toruswalk.scan", "exact_walk_distribution", "walk.exact", {
        "walk.states": lambda b, r: len(r.counts),
        "walk.count_bits": lambda b, r: _count_bits(r),
    }),
    ("toruswalk.scan", "project_to_torus", "walk.project", {
        "walk.atoms": lambda b, r: len(r.atoms),
    }),
    ("toruswalk.scan", "simulate_walk", "walk.mc", {
        "walk.mc_draws": lambda b, r: b["trials"] * b["k"],
        "walk.mc_atoms": lambda b, r: len(r.atoms),
    }),
    ("toruswalk.scan", "discrepancy_exact", "discrepancy.exact", {
        "discrepancy.exact_atoms": lambda b, r: len(b["P"].atoms),
    }),
    ("toruswalk.scan", "discrepancy_grid", "discrepancy.grid", {
        "discrepancy.grid_atoms": lambda b, r: len(b["P"].atoms),
    }),
    ("toruswalk.scan", "etk_upper_bound", "fourier.etk", {
        "fourier.etk_freqs": lambda b, r: _freqs(b),
    }),
    ("toruswalk.fourier", "etk_upper_bound", "fourier.etk", {
        "fourier.etk_freqs": lambda b, r: _freqs(b),
    }),
    ("toruswalk.bounds", "cohort_sum_S", "bounds.cohort", {
        "bounds.cohort_freqs": lambda b, r: _freqs(b),
    }),
    ("toruswalk.cli", "estimate_bad_constant", "diophantine.search", {
        "diophantine.search_vectors": lambda b, r: _search_vectors(b),
    }),
    ("toruswalk.cli", "run_scan", "scan", {}),
    ("toruswalk.cli", "write_report", "scan.write", {
        "scan.report_bytes": lambda b, r: sum(os.path.getsize(p) for p in r),
    }),
    ("toruswalk.cli", "main", "cli", {}),
)

# Per-layer time metric: the sum of the self times of that layer's spans.
TIME_METRICS = {
    "walk.exact": "walk.exact_s",
    "walk.project": "walk.project_s",
    "walk.mc": "walk.mc_s",
    "discrepancy.exact": "discrepancy.exact_s",
    "discrepancy.grid": "discrepancy.grid_s",
    "fourier.etk": "fourier.etk_s",
    "bounds.cohort": "bounds.cohort_s",
    "diophantine.search": "diophantine.search_s",
    "scan": "scan.self_s",
    "scan.write": "scan.write_s",
    "cli": "cli.self_s",
}
COUNT_METRICS = tuple(dict.fromkeys(name for *_, counts in LAYERS for name in counts))


class Tracer:
    """Records spans of the wrapped layer functions; one per process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, fn, layer, counts):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counts:
                self._open("trace")
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, count in counts.items():
                    self.counts[name] = self.counts.get(name, 0) + count(bound.arguments, result)
                self._close()
            return result

        return traced

    def install(self):
        for module, attr, layer, counts in LAYERS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), layer, counts))
        return self


def layer_metrics(spans, counts, wall):
    """Per-layer self times and counts of one traced round, plus coverage.

    A span's self time is its duration minus the durations of its
    children.  Coverage is the share of `wall` spent in the self time of
    the layers below `cli` and `scan`: time that no layer accounts for
    falls into the self time of those two, or outside every span, and
    lowers it.
    """
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    out = {metric: 0.0 for metric in TIME_METRICS.values()}
    for (name, *_), t in zip(spans, self_time):
        if name in TIME_METRICS:
            out[TIME_METRICS[name]] += t
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    covered = sum(out[metric] for layer, metric in TIME_METRICS.items() if layer not in ("cli", "scan"))
    out["trace.coverage"] = 100.0 * covered / wall
    return out
