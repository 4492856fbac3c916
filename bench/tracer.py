"""Spans around calls into the library's layers, kept in memory.

The layers are the library's modules. `Tracer.install` replaces selected
functions, in every zetasums module namespace that holds them, with
wrappers that record a span (name, start, end, parent span, one number of
detail). Nothing in the library is edited. A "boundary" probe records a
span only when its caller runs in another layer, so a call a module makes
to itself stays inside its caller's span; an "every" probe records each
call; a "count" probe only counts calls, for functions called too often
for a span each.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

BOUNDARY, EVERY, COUNT = "boundary", "every", "count"


def _clv_detail(args, kwargs, result):
    # points in the batch, height of the batch's top point
    t = np.atleast_1d(np.asarray(args[1] if len(args) > 1 else kwargs["t"], dtype=float))
    return (t.size, float(np.max(np.abs(t))) if t.size else 0.0)


def _saved_bytes(args, kwargs, result):
    path = str(args[1] if len(args) > 1 else kwargs["path"])
    return os.path.getsize(path) + os.path.getsize(path + ".manifest.json")


# (module, function, how, detail)
PROBES = (
    ("special", "critical_line_values", BOUNDARY, _clv_detail),
    ("special", "critical_line_form", BOUNDARY, None),
    ("special", "evaluate", BOUNDARY, None),
    ("special", "log_xi1", BOUNDARY, None),
    ("zeros", "scan_zeros", BOUNDARY, lambda a, k, r: len(r.ordinates())),
    ("datasets", "cached_dataset", BOUNDARY, None),
    ("datasets", "save_dataset", EVERY, _saved_bytes),
    ("datasets", "load_dataset", EVERY, None),
    ("sumrules", "verify_sum_rule", BOUNDARY, None),
    ("sumrules", "sigma_series_derivative", BOUNDARY, None),
    ("sumrules", "tau_lambda_from_sigma", BOUNDARY, None),
    ("sumrules", "keiper_identity_residuals", BOUNDARY, None),
    ("sumrules", "taylor_log_coeffs", EVERY, None),
    ("sumrules", "quad", EVERY, None),
    ("bell", "verify_link3", BOUNDARY, None),
    ("bell", "bell_eval", COUNT, None),
    ("translate", "translated_sigma_series", BOUNDARY, None),
    ("translate", "translated_sigma_direct", BOUNDARY, None),
    ("rhscan", "find_derivative_zeros", BOUNDARY, lambda a, k, r: len(r)),
    ("rhscan", "lagarias_suzuki_y_star", BOUNDARY, None),
    ("rhscan", "v_func", COUNT, None),
)

# name, start, end, parent index, detail
NAME, START, END, PARENT, DETAIL = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.layers = {}
        self.counts = Counter()
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.layers[name] = layer
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own, around an operation or a set-up."""
        record = self._open(name, "bench")
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, fn, layer, name, how, detail):
        tracer = self

        def probe(*args, **kwargs):
            if how == COUNT:
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            stack = tracer._stack
            if how == BOUNDARY and stack and tracer.layers[tracer.spans[stack[-1]][NAME]] == layer:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if detail is not None:
                span[DETAIL] = detail(args, kwargs, result)
            return result

        return probe

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "zetasums" or n.startswith("zetasums.")]
        for module, function, how, detail in PROBES:
            original = getattr(sys.modules[f"zetasums.{module}"], function)
            probe = self._wrap(original, module, f"{module}.{function}", how, detail)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, probe)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path, summary):
        """Write every span (times in microseconds from the first) and a summary."""
        t0 = self.spans[0][START] if self.spans else 0.0
        names = sorted(self.layers)
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[s[NAME]], round((s[START] - t0) * 1e6, 1), round((s[END] - s[START]) * 1e6, 1), s[PARENT], s[DETAIL]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"summary": summary, "names": names, "counts": dict(self.counts),
                       "columns": ["name", "start_us", "duration_us", "parent", "detail"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def _bucket(height):
    # kernel rates are reported at t ~ 1e2, 1e3 and 2.5e3
    return "t1e2" if height < 300.0 else ("t1e3" if height < 1500.0 else "t2.5e3")


def layer_metrics(tracer, triplets, nonconvergence_warnings):
    """Per-layer metrics from the recorded spans, as {name: (value, unit)}.

    triplets is the number of merged T+/T- triplets the derivative-zero
    searches covered, counted by the benchmark from the datasets.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def dur(i):
        return spans[i][END] - spans[i][START]

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def self_time(name):
        return sum(dur(i) - child_time[i] for i in by_name[name])

    def under(name, parent_name):
        return sum(1 for i in by_name[name] if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent_name)

    def ratio(a, b):
        return a / b if b else 0.0

    clv = by_name["special.critical_line_values"]
    points = defaultdict(int)
    seconds = defaultdict(float)
    for i in clv:
        n, height = spans[i][DETAIL] or (0, 0.0)
        points[_bucket(height)] += n
        seconds[_bucket(height)] += dur(i)
    builds = [i for i in by_name["datasets.cached_dataset"]
              if any(spans[j][PARENT] == i for j in by_name["datasets.save_dataset"])]
    found = sum(spans[i][DETAIL] or 0 for i in by_name["zeros.scan_zeros"])
    taylors = calls("sumrules.taylor_log_coeffs")

    m = {
        "special.clv_calls": (len(clv), "count"),
        "special.clv_points": (sum(points.values()), "count"),
        "special.clv_s": (total("special.critical_line_values"), "s"),
    }
    for b in ("t1e2", "t1e3", "t2.5e3"):
        m[f"special.clv_pts_per_s.{b}"] = (ratio(points[b], seconds[b]), "1/s")
    m.update({
        "special.clf_calls": (calls("special.critical_line_form"), "count"),
        "special.clf_s": (total("special.critical_line_form"), "s"),
        "special.evaluate_calls": (calls("special.evaluate"), "count"),
        "special.evaluate_s": (total("special.evaluate"), "s"),
        "special.log_xi1_calls": (calls("special.log_xi1"), "count"),
        "special.log_xi1_s": (total("special.log_xi1"), "s"),
        "zeros.scan_calls": (calls("zeros.scan_zeros"), "count"),
        "zeros.scan_self_s": (self_time("zeros.scan_zeros"), "s"),
        "zeros.zeros_found": (found, "count"),
        "zeros.clf_calls_per_zero": (ratio(under("special.critical_line_form", "zeros.scan_zeros"), found), "count"),
        "datasets.build_calls": (len(builds), "count"),
        "datasets.build_s": (sum(dur(i) for i in builds), "s"),
        "datasets.save_s": (total("datasets.save_dataset"), "s"),
        "datasets.bytes_written": (sum(spans[i][DETAIL] or 0 for i in by_name["datasets.save_dataset"]), "bytes"),
        "datasets.load_calls": (calls("datasets.load_dataset"), "count"),
        "datasets.load_s": (total("datasets.load_dataset"), "s"),
        "sumrules.taylor_calls": (taylors, "count"),
        "sumrules.taylor_s": (total("sumrules.taylor_log_coeffs"), "s"),
        "sumrules.evaluate_per_taylor": (ratio(under("special.evaluate", "sumrules.taylor_log_coeffs"), taylors), "count"),
        "sumrules.quad_calls": (calls("sumrules.quad"), "count"),
        "sumrules.quad_s": (total("sumrules.quad"), "s"),
        "bell.link_s": (total("bell.verify_link3"), "s"),
        "bell.bell_eval_calls": (tracer.counts["bell.bell_eval"], "count"),
        "translate.series_s": (total("translate.translated_sigma_series"), "s"),
        "translate.direct_s": (total("translate.translated_sigma_direct"), "s"),
        "rhscan.find_self_s": (self_time("rhscan.find_derivative_zeros"), "s"),
        "rhscan.v_calls": (tracer.counts["rhscan.v_func"], "count"),
        "rhscan.log_xi1_per_triplet": (ratio(under("special.log_xi1", "rhscan.find_derivative_zeros"), triplets), "count"),
        "rhscan.reports": (sum(spans[i][DETAIL] or 0 for i in by_name["rhscan.find_derivative_zeros"]), "count"),
        "rhscan.nonconvergence_warnings": (nonconvergence_warnings, "count"),
        "rhscan.ystar_s": (total("rhscan.lagarias_suzuki_y_star"), "s"),
    })
    return m
