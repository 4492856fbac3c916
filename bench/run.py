#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload zeros --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from its src/.
Each run builds its datasets into a fresh cache under bench/tmp/, times its
set-up and then one round of the seeded operation list, checks the outputs,
and prints
{"correct", "attempted", "failed", "metrics"} as the last line. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
records spans around calls into each layer, prints the per-layer metrics
and writes the spans to bench/out/.

A run does the same work whatever the machine's speed: the round is fixed
by the seed alone. --seconds is accepted for the benchmark's calling
convention and does not change the work; BENCHMARK.json's run_seconds
gives the rough length of a round.
"""

from __future__ import annotations

import os

# One thread: keep numerical libraries from starting pools of their own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
TMP = BENCH / "tmp"
CACHE_ENV = "ZETASUMS_CACHE_DIR"

UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def load_library():
    """Import zetasums from this checkout's src/, and from nowhere else."""
    init = SRC / "zetasums" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no library source at {init}")
    sys.path.insert(0, str(SRC))
    import zetasums

    if Path(zetasums.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: zetasums imported from {zetasums.__file__}, not {init}")


def nearest_rank(values, percentile):
    """The smallest value with at least `percentile` percent of values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


def run_ops(workload, plan, tracer):
    """One pass over the plan, one operation at a time.

    Returns per-operation durations, items, failures, NonConvergenceWarnings
    seen, and the (op, output) pairs of the operations that did not fail.
    """
    from zetasums.errors import MissedZeroWarning, NonConvergenceWarning, ZetasumsError

    span = tracer.span if tracer else nullcontext
    durations, items, failed, warned, done = [], 0.0, 0, 0, []
    for op in plan:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                with span(f"op.{op.kind}"):
                    out = workload.execute(op)
                raised = False
            except ZetasumsError:
                raised = True
            durations.append(time.perf_counter() - t0)
        package = [w for w in caught if issubclass(w.category, (NonConvergenceWarning, MissedZeroWarning))]
        warned += sum(issubclass(w.category, NonConvergenceWarning) for w in package)
        items += op.items
        if raised or package:
            failed += 1
        else:
            done.append((op, out))
    return durations, items, failed, warned, done


def measure(workload, args, work, tracer):
    import numpy as np

    span = tracer.span if tracer else nullcontext
    setup = []
    for i in range(workload.setup_repeats):
        cache = work / f"cache{i}"
        cache.mkdir()
        os.environ[CACHE_ENV] = str(cache)  # every set-up starts from an empty cache
        t0 = time.perf_counter()
        with span("setup"):
            workload.setup()
        setup.append(time.perf_counter() - t0)

    plan = workload.plan(np.random.default_rng(args.seed))
    durations, items, failed, warned, done = run_ops(workload, plan, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for op, out in done for p in workload.check(op, out)]
    problems += workload.deep_check(done, np.random.default_rng([args.seed, 1]))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    end_to_end = {
        "setup_s": statistics.median(setup),
        "work_per_s": items / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": nearest_rank(durations, workload.tail_percentile) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end.items()}
    result = {"correct": not problems, "attempted": len(durations), "failed": failed, "metrics": metrics}
    if tracer:
        from tracer import layer_metrics

        triplets = items if workload.name == "rhscan" else 0
        per_layer = layer_metrics(tracer, triplets, warned)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        # the traced run's own end-to-end figures give the tracing overhead
        tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json",
                    {"workload": workload.name, "seed": args.seed, "end_to_end": metrics,
                     "attempted": len(durations), "failed": failed})
    return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["zeros", "tables", "rhscan"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load_library()
    import mpmath  # noqa: F401  imports stay off every clock
    import scipy.integrate  # noqa: F401

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    saved_cache = os.environ.get(CACHE_ENV)
    try:
        if tracer:
            tracer.install()
        try:
            result = measure(workload, args, work, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if saved_cache is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = saved_cache
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
