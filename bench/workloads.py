"""The benchmark's three workloads.

Each workload builds the datasets it needs (its set-up), draws a list of
operations from the seed, runs one operation at a time through the
library's public functions, and checks the outputs afterwards. The item
count of every operation comes from its inputs (or, for `rhscan`, from the
datasets built in set-up), never from what the library returns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from zetasums import bell, datasets, rhscan, sumrules, translate, zeros
from zetasums.special import FunctionId

import oracle

XI, TPLUS, TMINUS, L4C = FunctionId.XI, FunctionId.T_PLUS, FunctionId.T_MINUS, FunctionId.L4_COMPLETED
FUNCTIONS = (XI, TPLUS, TMINUS, L4C)

# Heights of the four datasets built by the `zeros` and `tables` set-ups:
# high enough for every sum-rule check below, low enough that one build of
# all four takes about a second.
SETUP_T_MAX = 100.0


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    items: float


def build_setup_datasets():
    """The four datasets at SETUP_T_MAX, built as the CLI builds its defaults."""
    return {f: datasets.cached_dataset(f, SETUP_T_MAX, None, include_real_axis=(f is TMINUS))
            for f in FUNCTIONS}


def _strata(lo: float, hi: float, n: int):
    edges = np.linspace(lo, hi, n + 1)
    return zip(edges[:-1], edges[1:])


# ---------------------------------------------------------------------------
# zeros: cold critical-line zero finding


def smooth_zero_count(f: FunctionId, t: float) -> float:
    """Smooth count of T+, T- or l4c zeros with ordinate in (0, t], clamped at 0."""
    if f in (TPLUS, TMINUS):
        x = t / math.pi
        n = x * math.log(x) - x
    else:
        n = t / (2 * math.pi) * (math.log(2 * t / math.pi) - 1)
    return max(n, 0.0)


class Zeros:
    """`scan_zeros` over width-5 windows, stratified over each function's range."""

    name = "zeros"
    setup_repeats = 3
    tail_percentile = 95  # 200 operations a round: 10 lie beyond p95
    WIDTH = 5.0
    RANGES = {XI: 2520.0, TPLUS: 1000.0, TMINUS: 1000.0, L4C: 1126.33}
    STRATA = {XI: 80, TPLUS: 40, TMINUS: 40, L4C: 40}
    SAMPLES = 2  # ordinates per function checked against mpmath per run

    def setup(self):
        build_setup_datasets()

    def plan(self, rng) -> List[Op]:
        ops = []
        for f in FUNCTIONS:
            for a, b in _strata(1.0, self.RANGES[f] - self.WIDTH, self.STRATA[f]):
                lo = float(math.floor(rng.uniform(a, b)))  # integers lie on every scan grid
                hi = lo + self.WIDTH
                if f is XI:
                    items = oracle.xi_count(hi) - oracle.xi_count(lo)
                else:
                    items = smooth_zero_count(f, hi) - smooth_zero_count(f, lo)
                ops.append(Op("scan", (f, lo, hi), items))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        f, lo, hi = op.args
        return zeros.scan_zeros(f, lo, hi).ordinates()

    def check(self, op, ts) -> List[str]:
        f, lo, hi = op.args
        bad = []
        if len(ts) and not (np.all(np.diff(ts) > 0) and lo <= ts[0] and ts[-1] <= hi):
            bad.append(f"{f.value} [{lo}, {hi}]: ordinates unordered or outside the window")
        if f is XI and len(ts) != op.items:
            bad.append(f"xi [{lo}, {hi}]: {len(ts)} zeros, mpmath.nzeros counts {op.items}")
        return bad

    def deep_check(self, results, rng) -> List[str]:
        bad = []
        for f in FUNCTIONS:
            found = [(op, j, t) for op, ts in results if op.args[0] is f for j, t in enumerate(ts)]
            for k in rng.choice(len(found), size=min(self.SAMPLES, len(found)), replace=False):
                op, j, t = found[k]
                if f is XI:
                    n = oracle.xi_count(op.args[1]) + j + 1  # ordinal of the window's j-th zero
                    ref = oracle.xi_ordinate(n)
                    if abs(ref - t) > 1e-9:
                        bad.append(f"xi zero {n}: {t!r}, mpmath.zetazero gives {ref!r}")
                elif not oracle.changes_sign_across(f.value, t):
                    bad.append(f"{f.value}: no sign change of the mpmath form across {t!r}")
        return bad


# ---------------------------------------------------------------------------
# tables: the paper's tables from a warm cache


class Tables:
    """The library calls behind `sumrule`, `keiper`, `translate`, `ystar` and `link`.

    A round holds a fixed number of operations of each kind; the seed draws
    their parameters and their order. Costs fall in three clusters (see
    README): xi sum rules and Keiper series, the other sum rules and Keiper
    series with xi translations, and the rest. The median lies inside the
    middle cluster and the p75 tail inside the top one.
    """

    name = "tables"
    setup_repeats = 3
    tail_percentile = 75  # 40 operations a round: 10 lie beyond p75
    PER_FUNCTION = {"sumrule": 3, "keiper": 3, "translate": 2}
    YSTAR, LINK = 4, 4
    TERMS = 40  # series terms of the translated sum, as the CLI

    def setup(self):
        build_setup_datasets()

    def plan(self, rng) -> List[Op]:
        ops = []
        for f in FUNCTIONS:
            for _ in range(self.PER_FUNCTION["sumrule"]):
                m_lo = int(rng.integers(1, 4))
                ops.append(Op("sumrule", (f, m_lo, m_lo + int(rng.integers(3, 6))), 1))
            for _ in range(self.PER_FUNCTION["keiper"]):
                ops.append(Op("keiper", (f, int(rng.integers(29, 41))), 1))
            for _ in range(self.PER_FUNCTION["translate"]):
                z0 = complex(rng.uniform(0.02, 0.2) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                ops.append(Op("translate", (f, z0, int(rng.integers(3, 7))), 1))
        ops += [Op("ystar", (float(10 ** -rng.uniform(3, 4)),), 1) for _ in range(self.YSTAR)]
        ops += [Op("link", (int(rng.integers(5, 13)),), 1) for _ in range(self.LINK)]
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        if op.kind == "sumrule":
            f, m_lo, m_hi = op.args
            ds = datasets.cached_dataset(f, SETUP_T_MAX, None, include_real_axis=(f is TMINUS))
            return sumrules.verify_sum_rule(f, ds, range(m_lo, m_hi + 1))
        if op.kind == "keiper":
            f, order = op.args
            sig = sumrules.sigma_series_derivative(f, order + 1)
            sumrules.tau_lambda_from_sigma(sig, order)
            return sig.sigma(1), sumrules.keiper_identity_residuals(sig)
        if op.kind == "translate":
            f, z0, m = op.args
            sig = sumrules.sigma_series_derivative(f, m + self.TERMS)
            via_series = translate.translated_sigma_series(sig, z0, m, self.TERMS)
            via_direct = translate.translated_sigma_direct(sig.function, z0, m)
            return via_series.value, via_direct.value
        if op.kind == "ystar":
            return rhscan.lagarias_suzuki_y_star(op.args[0])
        if op.kind == "link":
            return bell.verify_link3(op.args[0])
        raise ValueError(op.kind)

    @staticmethod
    def sum_rule_tolerance(m: int) -> float:
        """Bound on |derivative route - zero route| for c_m with zeros up to SETUP_T_MAX.

        Over a conjugate pair, Re rho^-m decays like t^-m for even m and
        t^-(m+1) for odd m, so what the anchored density tail misses is of
        the order T^-2ceil(m/2); at T = 100 the measured differences stay
        below that (ratios 0.9 to 0.97 for T+, less for the others, m <= 10).
        The derivative route has a floating-point floor near 1e-17. The
        bound allows ten times the first plus 1e-15.
        """
        return 10.0 * SETUP_T_MAX ** -(2 * math.ceil(m / 2)) + 1e-15

    def check(self, op, out) -> List[str]:
        bad = []
        if op.kind == "sumrule":
            f = op.args[0]
            for m, lhs, rhs, _ in out:
                if not abs(lhs - rhs) <= self.sum_rule_tolerance(m):
                    bad.append(f"sumrule {f.value} m={m}: routes differ by {lhs - rhs:.3e}")
        elif op.kind == "keiper":
            f, order = op.args
            sigma1, residuals = out
            bound = 1e-9 if f is TMINUS else 1e-10  # as tests/test_acceptance.py at K = 30
            if not max(residuals) <= bound:
                bad.append(f"keiper {f.value} order {order}: identity residuals {residuals}")
            if f is XI and not abs(sigma1 - oracle.sigma1_xi()) <= 1e-11:
                bad.append(f"keiper xi: sigma_1 = {sigma1!r}, expected {oracle.sigma1_xi()!r}")
        elif op.kind == "translate":
            via_series, via_direct = out
            if not abs(via_series - via_direct) <= 1e-9:
                bad.append(f"translate {op.args}: routes differ by {abs(via_series - via_direct):.3e}")
        elif op.kind == "ystar":
            resolution = op.args[0]
            if not abs(out - oracle.y_star()) <= resolution:
                bad.append(f"ystar at resolution {resolution:.2e}: {out!r}, expected {oracle.y_star()!r}")
        elif op.kind == "link":
            worst = max(r.residual / max(1.0, abs(r.lhs_coeff)) for r in out)
            if not worst <= 1e-12:
                bad.append(f"link K={op.args[0]}: relative residual {worst:.3e}")
        return bad

    def deep_check(self, results, rng) -> List[str]:
        return []  # every table is checked in full by check()


# ---------------------------------------------------------------------------
# rhscan: derivative zeros of V and the |V| > 1 condition


RHSCAN_WINDOWS = Path(__file__).resolve().parent / "rhscan_windows.json"


def merged_triplet_centroids(tplus: np.ndarray, tminus: np.ndarray) -> np.ndarray:
    """Centroids of consecutive triplets of the merged T+/T- ordinate sequence."""
    merged = np.sort(np.concatenate([tplus, tminus]))
    return (merged[:-2] + merged[1:-1] + merged[2:]) / 3.0


class Rhscan:
    """`find_derivative_zeros` over width-0.5 windows of (0, 1000).

    Every round runs the same fixed windows of rhscan_windows.json: the two
    on which the library warns NonConvergenceWarning, one for each fault,
    which count as failed, and SLOW of the slowest 10% of the grid windows,
    where the Newton search restarts, spread evenly over t. The other
    windows are drawn by the seed, one from each of STRATA equal slices of
    `windows_by_cost`: the grid windows on which the library does not warn,
    cheapest first, without the slowest 10%. Drawing by cost rank gives
    every seed the same spread of costs, and since more than ten fixed slow
    windows lie beyond the p90 tail, the tail is a restart window's time
    in every run (see README).
    """

    name = "rhscan"
    setup_repeats = 1  # one build of both datasets to t = 1000 takes ~10 s
    tail_percentile = 90  # 100 operations a round: 10 lie beyond p90
    STRATA = 86
    SLOW = 12  # fixed slow windows a round, at the midpoints of SLOW slices of the slowest list ordered by t
    SAMPLES = 2  # derivative zeros checked against mpmath per run

    def __init__(self):
        spec = json.loads(RHSCAN_WINDOWS.read_text())
        self.width = spec["width"]
        self.pool = spec["windows_by_cost"]
        self.failing = [tuple(w) for w in spec["failing_windows"]]
        slowest = sorted(spec["slowest_windows"])
        self.slow = [slowest[(2 * i + 1) * len(slowest) // (2 * self.SLOW)] for i in range(self.SLOW)]

    @staticmethod
    def setup():
        # the datasets find_derivative_zeros reads
        datasets.cached_dataset(TPLUS, 1000.0, None, False)
        datasets.cached_dataset(TMINUS, 1000.0, None, True)

    def plan(self, rng) -> List[Op]:
        centroids = merged_triplet_centroids(
            datasets.cached_dataset(TPLUS, 1000.0, None, False).ordinates(),
            datasets.cached_dataset(TMINUS, 1000.0, None, True).ordinates(),
        )

        def op(lo, hi):
            return Op("window", (lo, hi), int(np.sum((centroids >= lo) & (centroids <= hi))))

        ops = [op(lo, hi) for lo, hi in self.failing]
        ops += [op(k * self.width, (k + 1) * self.width) for k in self.slow]
        for a, b in _strata(0, len(self.pool), self.STRATA):
            k = self.pool[int(rng.integers(math.ceil(a), math.ceil(b)))]
            ops.append(op(k * self.width, (k + 1) * self.width))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        return rhscan.find_derivative_zeros(*op.args)

    def check(self, op, reports) -> List[str]:
        lo, hi = op.args
        bad = []
        for r in reports:
            if not (lo <= r.s_d.imag <= hi and abs(r.s_d.real - 0.5) <= 1.0):
                bad.append(f"rhscan [{lo}, {hi}]: s_d = {r.s_d} outside the search region")
            if r.condition_met != (r.modulus > 1.0):
                bad.append(f"rhscan [{lo}, {hi}]: condition_met disagrees with |V| = {r.modulus}")
        return bad

    @staticmethod
    def s_d_tolerance(s_d: complex) -> float:
        """Bound on |s_d - zero of V'|.

        The library's Newton search solves a central difference of V with
        step h = 1e-5 |s|, which moves the zero by O(h^2): measured shifts
        are 1.2 to 3.4 h^2 for t = 150 to 811. The bound allows 25 h^2.
        """
        return 25.0 * (1e-5 * abs(s_d)) ** 2

    @classmethod
    def verify(cls, report) -> List[str]:
        """mpmath checks of one report: V' vanishes near s_d, and |V(s_d)| is right."""
        try:
            ref = oracle.v_prime_zero(report.s_d)
        except (ValueError, ZeroDivisionError) as exc:
            return [f"rhscan: mpmath.findroot on V' from {report.s_d} failed: {exc}"]
        bad = []
        if abs(ref - report.s_d) > cls.s_d_tolerance(report.s_d):
            bad.append(f"rhscan: s_d = {report.s_d}, mpmath.findroot on V' gives {ref}")
        modulus = oracle.v_modulus(report.s_d)
        if abs(modulus - report.modulus) > 1e-10 * modulus:
            bad.append(f"rhscan: |V(s_d)| = {report.modulus!r}, mpmath gives {modulus!r}")
        return bad

    def deep_check(self, results, rng) -> List[str]:
        found = [r for _, reports in results for r in reports]
        picks = rng.choice(len(found), size=min(self.SAMPLES, len(found)), replace=False)
        return [p for k in picks for p in self.verify(found[k])]


WORKLOADS = {w.name: w for w in (Zeros, Tables, Rhscan)}
