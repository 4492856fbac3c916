#!/usr/bin/env python3
"""Rewrite rhscan_windows.json from one timed pass over every grid window.

    python3 bench/screen_rhscan.py

Runs find_derivative_zeros on every width-0.5 window [k/2, (k+1)/2] of
(0, 1000), in a fresh dataset cache under bench/tmp/, and checks every
reported s_d with mpmath as the workload does. It records the k on which
the library emits NonConvergenceWarning, those reporting an s_d that
mpmath does not confirm, the slowest 10% of the rest (the windows where
the Newton search restarts), and the others
ordered by time. The `rhscan` workload draws its seeded windows from that
ordered list: a fault that shows only on windows placed a certain way
would make the failed share, or `correct`, depend on the seed, and a draw
among the slowest windows would make the run time depend on it. The
workload runs twelve of the slowest, fixed, in every round instead.
Takes about 35 minutes, in two worker processes; re-run it when the derivative-zero
search changes.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
import warnings

import run

WIDTH = 0.5
GRID = 2000
JOBS = 2
SLOWEST = 0.10
# One window for each fault, run (and counted failed) in every round:
# the triplet centred at 12.153 gets no derivative zero in any window, and
# the zero of the triplet centred at 124.706 lies at 124.484, outside
# [124.5, 125.0], so that window discards it.
FAILING = [[12.0, 12.5], [124.5, 125.0]]


def _screen(ks):
    """(k, seconds, warned, verified) for each grid window k."""
    from zetasums import rhscan
    from zetasums.errors import NonConvergenceWarning

    from workloads import Rhscan

    out = []
    for k in ks:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            reports = rhscan.find_derivative_zeros(k * WIDTH, (k + 1) * WIDTH)
            seconds = time.perf_counter() - t0
        warned = any(issubclass(w.category, NonConvergenceWarning) for w in caught)
        verified = warned or not any(Rhscan.verify(r) for r in reports)
        out.append((k, seconds, warned, verified))
    return out


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    run.load_library()
    import workloads

    run.TMP.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="screen-", dir=run.TMP)
    os.environ[run.CACHE_ENV] = cache
    try:
        workloads.Rhscan.setup()
        chunks = [list(range(j, GRID, JOBS)) for j in range(JOBS)]
        with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
            rows = [row for part in pool.map(_screen, chunks) for row in part]
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    warned = sorted(k for k, _, w, _ in rows if w)
    unverified = sorted(k for k, _, _, v in rows if not v)
    by_cost = [k for _, k in sorted((s, k) for k, s, w, v in rows if v and not w)]
    keep = len(by_cost) - round(SLOWEST * len(by_cost))
    spec = {"width": WIDTH, "grid_windows": GRID, "failing_windows": FAILING, "warning_windows": warned,
            "unverified_windows": unverified, "slowest_windows": sorted(by_cost[keep:]),
            "windows_by_cost": by_cost[:keep]}
    workloads.RHSCAN_WINDOWS.write_text(json.dumps(spec) + "\n")
    print(f"{len(warned)} of {GRID} windows warn, {len(unverified)} report an s_d mpmath does not confirm; "
          f"{len(by_cost) - keep} slowest left out", file=sys.stderr)

if __name__ == "__main__":
    main()
