"""Tests of the benchmark itself: python3 -m pytest bench -q

A tiny operation list runs through every workload, and deliberately
corrupted outputs must trip the checks. The rhscan tests build the T+/T-
datasets to t = 1000 once (about 25 s).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_library()

import workloads  # noqa: E402  needs the library on the path
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One set-up per workload, into caches of the test's own."""
    caches = {}

    def get(name):
        if name not in caches:
            caches[name] = tmp_path_factory.mktemp(name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv(run.CACHE_ENV, str(caches[name]))
                workloads.WORKLOADS[name]().setup()
        return caches[name]

    return get


def tiny(name, built, monkeypatch, ops):
    """Workload, its first `ops` operations, and what run_ops made of them."""
    monkeypatch.setenv(run.CACHE_ENV, str(built(name)))
    w = workloads.WORKLOADS[name]()
    plan = w.plan(np.random.default_rng(7))[:ops]
    return w, plan, run.run_ops(w, plan, None)


def problems(w, first):
    return [p for op, out in first for p in w.check(op, out)] + w.deep_check(first, np.random.default_rng(1))


def test_zeros_tiny_round_passes_and_corruption_trips(built, monkeypatch):
    w, plan, (durations, items, failed, _, first) = tiny("zeros", built, monkeypatch, 50)
    assert len(durations) == 50 and failed == 0 and items > 0
    assert problems(w, first) == []
    xi = next((op, ts) for op, ts in first if op.args[0] is workloads.XI and len(ts))
    assert w.check(xi[0], xi[1][1:])  # a missed zero breaks the mpmath.nzeros count
    for f in (workloads.XI, workloads.TPLUS):
        op, ts = next((op, ts) for op, ts in first if op.args[0] is f and len(ts))
        assert w.deep_check([(op, ts + 1e-3)], np.random.default_rng(1))  # shifted zeros


def test_tables_tiny_round_passes_and_corruption_trips(built, monkeypatch):
    monkeypatch.setenv(run.CACHE_ENV, str(built("tables")))
    w = workloads.Tables()
    kinds = {}
    for op in w.plan(np.random.default_rng(7)):
        if op.kind not in kinds and (op.kind != "keiper" or op.args[0] is workloads.XI):
            kinds[op.kind] = op
    _, _, failed, _, first = run.run_ops(w, list(kinds.values()), None)
    assert failed == 0 and problems(w, first) == []
    out = dict((op.kind, (op, o)) for op, o in first)
    op, rows = out["sumrule"]
    m, lhs, rhs, diff = rows[-1]
    assert w.check(op, [(m, lhs * (1 + 1e-3), rhs, diff)])
    op, (sigma1, residuals) = out["keiper"]
    assert w.check(op, (sigma1 + 1e-9, residuals))
    assert w.check(op, (sigma1, (residuals[0] + 1e-6, *residuals[1:])))
    op, (a, b) = out["translate"]
    assert w.check(op, (a, b + 1e-6))
    op, y = out["ystar"]
    assert w.check(op, y + 2 * op.args[0])
    op, reports = out["link"]
    assert w.check(op, [dataclasses.replace(reports[-1], residual=1e-6)])


def test_rhscan_tiny_round_counts_warnings_and_corruption_trips(built, monkeypatch):
    monkeypatch.setenv(run.CACHE_ENV, str(built("rhscan")))
    w = workloads.Rhscan()
    plan = w.plan(np.random.default_rng(7))
    failing = [op for op in plan if op.args in w.failing]
    fixed = w.failing + [(k * w.width, (k + 1) * w.width) for k in w.slow]
    assert sum(op.args in fixed for op in plan) == len(fixed)
    seeded = [op for op in plan if op.args not in fixed and 400 < op.args[0] < 600][:2]
    durations, items, failed, warned, first = run.run_ops(w, failing + seeded, None)
    assert failed == len(failing) == 2 and warned >= 2
    assert items == sum(op.items for op in failing + seeded) > 0
    assert problems(w, first) == []
    op, reports = next((op, r) for op, r in first if r)
    r = reports[0]
    assert w.deep_check([(op, [dataclasses.replace(r, modulus=r.modulus * (1 + 1e-6))])], np.random.default_rng(1))
    assert w.deep_check([(op, [dataclasses.replace(r, s_d=r.s_d + 1e-2j)])], np.random.default_rng(1))
    assert w.check(op, [dataclasses.replace(r, condition_met=not r.condition_met)])


def test_tracer_reports_every_per_layer_metric(built, monkeypatch):
    monkeypatch.setenv(run.CACHE_ENV, str(built("zeros")))
    w = workloads.Zeros()
    import zetasums.zeros

    original = zetasums.zeros.scan_zeros
    tracer = Tracer()
    tracer.install()
    try:
        _, _, failed, warned, first = run.run_ops(w, w.plan(np.random.default_rng(3))[:5], tracer)
    finally:
        tracer.uninstall()
    from tracer import layer_metrics

    metrics = layer_metrics(tracer, 0, warned)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert metrics["zeros.scan_calls"][0] == 5
    assert metrics["zeros.zeros_found"][0] == sum(len(ts) for _, ts in first)
    assert zetasums.zeros.scan_zeros is original and zetasums.datasets.scan_zeros is original


def test_end_to_end_metrics_match_benchmark_json(capsys):
    assert run.main(["--workload", "zeros", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 200
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "tmp", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zeros", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
