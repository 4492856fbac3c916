#!/usr/bin/env python3
"""Re-run every workload untraced and traced; print the README's reference tables.

    python3 bench/reference.py

Runs bench/run.py (seed 1, BENCHMARK.json's run_seconds) once per
workload without tracing and once with it, one run at a time, and prints
two markdown tables: the end-to-end metrics with the tracing overhead,
and the per-layer metrics of the traced runs.
The overhead is given twice: from the two runs' work_per_s, and from one
process that runs each operation of a round untraced and traced back to
back, alternating which goes first, so that drift in the machine's speed
between runs does not enter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("zeros", "tables", "rhscan")
SEED = 1
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def interleaved_overhead(workload):
    """Traced over untraced time of the same operations, run alternately in one process."""
    import numpy as np

    import workloads
    from tracer import Tracer

    w = workloads.WORKLOADS[workload]()
    bench.TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.TMP) as cache:
        os.environ[bench.CACHE_ENV] = cache
        w.setup()
        seconds = {False: 0.0, True: 0.0}
        for i, op in enumerate(w.plan(np.random.default_rng(SEED))):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                tracer = Tracer() if traced else None
                if tracer:
                    tracer.install()
                try:
                    seconds[traced] += bench.run_ops(w, [op], tracer)[0][0]
                finally:
                    if tracer:
                        tracer.uninstall()
    return seconds[True] / seconds[False] - 1


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main():
    plain = {w: run(w, 0) for w in WORKLOADS}
    traced = {w: run(w, 1) for w in WORKLOADS}

    names = list(plain[WORKLOADS[0]]["metrics"])
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for n in names:
        unit = plain[WORKLOADS[0]]["metrics"][n]["unit"]
        print(f"| {n} ({unit}) | " + " | ".join(fmt(plain[w]["metrics"][n]["value"]) for w in WORKLOADS) + " |")
    for key in ("attempted", "failed", "correct"):
        print(f"| {key} | " + " | ".join(str(plain[w][key]) for w in WORKLOADS) + " |")
    rates = {}
    for w in WORKLOADS:
        summary = json.loads((BENCH / "out" / f"trace-{w}-seed{SEED}.json").read_text())["summary"]
        rates[w] = summary["end_to_end"]["work_per_s"]["value"]
    print("| work_per_s traced (1/s) | " + " | ".join(fmt(rates[w]) for w in WORKLOADS) + " |")
    print("| tracing overhead, separate runs | " + " | ".join(
        f"{plain[w]['metrics']['work_per_s']['value'] / rates[w] - 1:+.1%}" for w in WORKLOADS) + " |")
    bench.load_library()
    print("| tracing overhead, interleaved | " + " | ".join(
        f"{interleaved_overhead(w):+.1%}" for w in WORKLOADS) + " |")
    print()
    print("| per-layer metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for n, m in traced[WORKLOADS[0]]["metrics"].items():
        print(f"| {n} ({m['unit']}) | " + " | ".join(fmt(traced[w]["metrics"][n]["value"]) for w in WORKLOADS) + " |")


if __name__ == "__main__":
    main()
