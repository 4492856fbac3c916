"""The ratio function V, its derivative zeros, and the modulus condition.

U(s) is the ratio xi_1(2s - 1) / xi_1(2s) and V = (1 + U) / (1 - U), so
that V has a zero at every critical-line zero of T_plus and a pole at every
zero of T_minus. Zeros of V' sit near the critical line, one per consecutive
zero/pole/zero (ZPZ) or pole/zero/pole (PZP) triplet; the scan checks the
sufficient condition |V(s_d)| > 1 at each of them. The module also traces
|V| = 1 level curves around individual T_plus zeros and locates the
collision parameter y* of the two-term family xi_1(2s) y^s + xi_1(2-2s)
y^(1-s).
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NonConvergenceWarning,
    OpenContourError,
    PoleError,
)
from .special import FunctionId, log_xi1
from .datasets import default_dataset
from .zeros import _bracket_roots, _sign_changes

__all__ = [
    "TripletReport",
    "ContourPolyline",
    "u_func",
    "v_func",
    "asymptotic_check",
    "find_derivative_zeros",
    "condition_scan",
    "trace_unit_contour",
    "lagarias_suzuki_y_star",
]


@dataclass
class TripletReport:
    s_d: complex
    modulus: float
    triplet_kind: str  # "ZPZ" or "PZP"
    anchor_ordinals: Tuple[int, int, int]
    condition_met: bool
    centroid_t: float


@dataclass
class ContourPolyline:
    level: float
    points: List[complex]
    closed: bool


def u_func(s):
    """U(s) = xi_1(2s - 1) / xi_1(2s), computed in log form.

    Returns a complex for scalar s, else an array of the shape of s. Both
    arguments go into one log_xi1 call; they share |Im|, hence the cutoff
    and one phase row of the direct sum.
    """
    w = np.atleast_1d(np.asarray(s, dtype=complex)).ravel()
    lw = log_xi1(np.concatenate((2 * w - 1, 2 * w)))
    u = np.exp(lw[: w.size] - lw[w.size :])
    return complex(u[0]) if np.ndim(s) == 0 else u.reshape(np.shape(s))


def v_func(s):
    """V(s) = (1 + U(s)) / (1 - U(s)), for scalar or array s."""
    u = u_func(s)
    hit = np.ravel(np.abs(u - 1.0) < 1e-300)
    if hit.any():
        raise PoleError(f"V(s) has a pole at s={np.ravel(s)[hit][0]} (U = 1)")
    return (1.0 + u) / (1.0 - u)


def asymptotic_check(sigma: float, t: float) -> Tuple[float, float]:
    """Deviations of |V| and arg V from their large-t leading estimates.

    In the regime 1 << sigma << t, U ~ sqrt(pi/s) gives the leading
    behaviour |V| ~ 1 + sqrt(2 pi / t) and arg V ~ -sqrt(2 pi / t);
    returns the absolute deviations from those two leading terms.
    """
    if not (5.0 <= sigma <= t / 20.0):
        raise DomainError(
            f"(sigma, t) = ({sigma}, {t}) outside the regime 5 <= sigma <= t/20"
        )
    v = v_func(complex(sigma, t))
    mod_err = abs(abs(v) - (1.0 + math.sqrt(2.0 * math.pi / t)))
    arg_err = abs(cmath.phase(v) + math.sqrt(2.0 * math.pi / t))
    return mod_err, arg_err


def _v_derivatives(s: complex) -> Tuple[complex, complex]:
    """(V'(s), V''(s)) by central differences, from one v_func call on six
    points: s +- h, then (s +- h) +- h', the step 1e-5 * max(1, |x|) at each
    stencil point x. The steps are real, so all six points share Im s and
    with it the Euler-Maclaurin cutoff and one phase row of the direct sum;
    each value is bitwise the one of separate first- and second-order calls,
    as every kernel value is the same in any batch."""
    x = np.array([s])
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    outer = np.concatenate((x + h, x - h))
    hh = 1e-5 * np.maximum(1.0, np.abs(outer))
    v = v_func(np.concatenate((outer, outer + hh, outer - hh)))
    first = (v[2:4] - v[4:]) / (2.0 * hh)  # V' at s +- h
    return (
        complex(((v[:1] - v[1:2]) / (2.0 * h))[0]),
        complex(((first[:1] - first[1:]) / (2.0 * h))[0]),
    )


def _newton_vprime(seed: complex) -> Optional[complex]:
    """Damped Newton iteration on V', at most 40 steps, bounded to Im within
    20 of the seed.

    Every evaluation gives V' and V'' together, so a line-search trial that
    is accepted needs no second call. A trial further from the seed's Im
    fails without evaluating V there, which keeps the Euler-Maclaurin
    cutoff (about Im/2) small.
    """
    s = seed
    g, gp = _v_derivatives(s)
    for _ in range(40):
        if abs(g) <= 1e-8:
            return s
        if gp == 0:
            return None
        step = g / gp
        lam = 1.0
        for _ in range(8):
            s_new = s - lam * step
            if abs(s_new.imag - seed.imag) <= 20.0:
                g_new, gp_new = _v_derivatives(s_new)
                if abs(g_new) < abs(g):
                    s, g, gp = s_new, g_new, gp_new
                    break
            lam *= 0.5
        else:
            return None
    return s if abs(g) <= 1e-8 else None


def _merged_triplets(t_lo: float, t_hi: float):
    """Consecutive triplets of the merged T_plus / T_minus ordinate sequence.

    Labels are Z at T_plus zeros (zeros of V) and P at T_minus zeros (poles
    of V). Returns (ordinals, labels, ordinates, centroid) tuples of the
    triplets whose centroid lies in [t_lo, t_hi]. Raises DomainError if such a
    triplet could hold an ordinate above the height the datasets were scanned to.
    """
    plus, minus = default_dataset(FunctionId.T_PLUS), default_dataset(FunctionId.T_MINUS)
    tp, tm = plus.line, minus.line
    # the merged sequence is complete up to the scanned height, so every
    # triplet with an ordinate above it has its centroid above `complete`
    height = min(plus.t_max_scanned, minus.t_max_scanned)
    complete = (np.sort(np.concatenate((tp[-2:], tm[-2:])))[-2:].sum() + height) / 3.0
    if t_hi > complete:
        raise DomainError(f"triplets up to t = {t_hi} need zeros above t = {height:g}")
    both = np.concatenate((tm, tp))
    order = np.argsort(both, kind="stable")  # a tie puts the pole first
    m = both[order]
    labels = np.where(order < tm.size, "P", "Z")
    centroids = (m[:-2] + m[1:-1] + m[2:]) / 3.0  # nondecreasing, as m is sorted
    lo = int(np.searchsorted(centroids, t_lo, "left"))
    hi = int(np.searchsorted(centroids, t_hi, "right"))
    return [
        ((i + 1, i + 2, i + 3), "".join(labels[i : i + 3]), tuple(m[i : i + 3]), centroids[i])
        for i in range(lo, hi)
    ]


def find_derivative_zeros(t_lo: float, t_hi: float) -> List[TripletReport]:
    """Zeros of V' near the critical line, one per merged-sequence triplet.

    Each consecutive triplet of the interlaced T_plus / T_minus ordinate
    sequence anchors one derivative zero, found by damped Newton seeded at
    the triplet centroid pushed 0.15 right of the critical line; further
    seeds right of the line are tried before a NonConvergenceWarning is
    issued (a seed left of the line would only mirror one of them). Each
    search stays within 20 in Im of its seed and makes one log_xi1 call, on
    12 points, per line-search trial, which gives V' and V'' together; each
    report adds one 2-point call for |V(s_d)|. Raises DomainError unless
    t_lo < t_hi are finite.
    """
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise DomainError(f"scan bounds must be finite with t_lo < t_hi, got [{t_lo}, {t_hi}]")
    triplets = _merged_triplets(t_lo, t_hi)
    if not triplets:
        return []
    centroids = np.array([trio[3] for trio in triplets])
    # Pool of distinct derivative zeros; a zero and its reflection
    # 1 - conj(s_d) are the same object, keyed by the off-line distance.
    pool: dict = {}
    for ordinals, kind, ts, centroid_t in triplets:
        span = ts[2] - ts[0]
        # V(1 - conj s) = -conj V(s): Newton commutes with this reflection, which
        # keeps Im s, and every filter below is symmetric under it, so a seed
        # left of the line could only repeat the failure of its mirror image
        for off in (0.15, 0.3, 0.6, 0.05):
            s_d = _newton_vprime(complex(0.5 + off, centroid_t))
            if (
                s_d is None
                or abs(s_d.imag - centroid_t) > 1.5 * span
                or abs(s_d.real - 0.5) > 1.0
                or not t_lo <= s_d.imag <= t_hi
            ):
                continue
            key = (round(abs(s_d.real - 0.5), 5), round(s_d.imag, 5))
            if key not in pool:
                pool[key] = s_d
            break
    reports: List[TripletReport] = []
    for s_d in pool.values():
        ordinals, kind, ts, centroid_t = triplets[int(np.argmin(np.abs(centroids - s_d.imag)))]
        modulus = abs(v_func(s_d))
        reports.append(TripletReport(s_d, modulus, kind, ordinals, modulus > 1.0, centroid_t))
    covered = np.array(sorted(s.imag for s in pool.values()))
    for ordinals, kind, ts, centroid_t in triplets:
        span = ts[2] - ts[0]
        if not (covered.size and np.min(np.abs(covered - centroid_t)) < 1.5 * span):
            warnings.warn(
                f"derivative-zero search did not converge for the triplet "
                f"near t = {centroid_t:.4f}",
                NonConvergenceWarning,
            )
    reports.sort(key=lambda r: r.s_d.imag)
    return reports


def condition_scan(t_lo: float, t_hi: float) -> Tuple[bool, List[TripletReport]]:
    """Aggregate the sufficient condition |V(s_d)| > 1 over a t range.

    all_met covers only the derivative zeros found: a triplet whose search
    finds none warns NonConvergenceWarning and does not make all_met False.
    """
    reports = find_derivative_zeros(t_lo, t_hi)
    return all(r.condition_met for r in reports), reports


def trace_unit_contour(t_center: float, n_points: int = 256) -> ContourPolyline:
    """Trace the closed |V| = 1 level curve around a T_plus zero.

    From the zero at s0 = 1/2 + i t_center the curve is traced radially:
    along each of n_points rays the level crossing log|V| = 0 is bracketed
    (|V| -> 0 at s0) and refined to 1e-8 in the radius, all rays in
    lockstep. The expansion budget for the outer bracket is the local zero
    gap; if some ray never reaches |V| >= 1 within it, the curve cannot
    close around s0 alone and OpenContourError is raised. Raises
    DomainError unless n_points >= 3 and t_center is a T_plus zero ordinate.
    """
    if n_points < 3:
        raise DomainError(f"a closed polyline needs n_points >= 3, got {n_points}")
    s0 = complex(0.5, t_center)
    tp = default_dataset(FunctionId.T_PLUS).line
    gaps = np.diff(tp)
    idx = int(np.argmin(np.abs(tp - t_center)))
    if not abs(tp[idx] - t_center) <= 0.05:  # nan is no ordinate
        raise DomainError(f"t_center = {t_center} is not a T_plus zero ordinate")
    local_gap = float(
        min(gaps[max(idx - 1, 0)], gaps[min(idx, len(gaps) - 1)])
    )
    budget = 1.2 * local_gap
    rays = np.arange(n_points)
    theta = 2.0 * math.pi * rays / n_points
    # the radius ladder 1e-6, 0.05, 0.075, ... up to the budget, on all rays at once
    rungs = max(math.floor(math.log(budget / 0.05) / math.log(1.5)), 0) + 1
    ladder = np.concatenate(([1e-6], 0.05 * 1.5 ** np.arange(rungs)))
    # one real coordinate for all rays: radius r on ray k is x = k * span + r
    span = 2.0 * ladder[-1]

    def level(x):
        k = np.floor(x / span).astype(int)
        return np.log(np.abs(v_func(s0 + (x - k * span) * np.exp(1j * theta[k]))))

    grid = rays[:, None] * span + ladder
    values = level(grid.ravel()).reshape(grid.shape)
    reached = values >= 0.0
    short = np.nonzero(~reached.any(axis=1))[0]
    if short.size:
        raise OpenContourError(
            f"|V| = 1 not reached along theta = {theta[short[0]]:.3f} within "
            f"radius {budget:.3f} of t = {t_center}"
        )
    j = reached.argmax(axis=1)  # the first rung at or above the level; never rung 0
    lo, hi = (rays, j - 1), (rays, j)
    x = _bracket_roots(level, grid[lo], grid[hi], values[lo], values[hi], 1e-8)
    points = [complex(p) for p in s0 + (x - rays * span) * np.exp(1j * theta)]
    return ContourPolyline(level=1.0, points=points, closed=True)


# Points of the scan grid of the two-term family on (0, t_hi].
_FAMILY_GRID = 400


def _family_critical_line(t, y: float):
    """Scaled restriction of xi_1(2s) y^s + xi_1(2-2s) y^(1-s) to the line.

    At s = 1/2 + it the two terms are complex conjugates, so the family is
    2 sqrt(y) Re[exp(i t log y) xi_1(1 + 2it)]; the positive prefactor is
    dropped and the xi_1 magnitude rescaled to keep values representable
    (t scalar or array).
    """
    lw = log_xi1(1.0 + 2j * np.asarray(t))
    return np.cos(t * math.log(y) + lw.imag)


def family_line_zeros(y: float, t_hi: float) -> List[float]:
    """Positive critical-line zero ordinates of the family up to t_hi.

    The grid of _FAMILY_GRID points is geometric so that a zero descending
    toward t = 0 (the collision point of the lowest conjugate pair) is
    still bracketed. Raises DomainError unless y > 0 and t_hi > 1e-6 are
    finite.
    """
    if not (0.0 < y < math.inf and 1e-6 < t_hi < math.inf):
        raise DomainError(f"need finite y > 0 and t_hi > 1e-6, got y = {y!r}, t_hi = {t_hi!r}")
    ts = np.geomspace(1e-6, t_hi, _FAMILY_GRID)
    vals = _family_critical_line(ts, y)
    i = _sign_changes(vals)
    func = lambda t: _family_critical_line(t, y)
    return [float(t) for t in _bracket_roots(func, ts[i], ts[i + 1], vals[i], vals[i + 1], 1e-8)]


@functools.lru_cache(maxsize=1)
def _collision_grid():
    """(ts, phase): the grid of family_line_zeros(y, 1.5) and the y-free part
    of _family_critical_line on it, once per process and read-only."""
    ts = np.geomspace(1e-6, 1.5, _FAMILY_GRID)
    phase = log_xi1(1.0 + 2j * ts).imag
    ts.flags.writeable = phase.flags.writeable = False
    return ts, phase


def lagarias_suzuki_y_star(resolution: float = 1e-4) -> float:
    """Parameter y* where the lowest zero pair of the two-term family
    xi_1(2s) y^s + xi_1(2-2s) y^(1-s) collides and leaves the critical line.

    For y below y* the lowest conjugate pair of zeros sits on the line at
    +/- i t1(y) with t1 shrinking to 0 as y grows; at y* the pair collides
    at the centre point and leaves the line. y* is found by bisection on
    the presence of a sign change below t = 1.5 (the next zero of the
    family stays above 2 throughout the bracket). Raises DomainError
    unless the resolution is positive and finite; a resolution below the
    float spacing at y* stops at adjacent doubles.
    """
    if not 0.0 < resolution < math.inf:
        raise DomainError(f"resolution must be positive and finite, got {resolution}")
    ts, phase = _collision_grid()
    y_lo, y_hi = 6.0, 8.0

    def pair_on_line(y: float) -> bool:
        # a sign change on the grid is a zero; no need to refine it
        return _sign_changes(np.cos(ts * math.log(y) + phase)).size > 0

    if not pair_on_line(y_lo) or pair_on_line(y_hi):
        raise ConvergenceError(
            f"collision not bracketed in y between {y_lo} and {y_hi}"
        )
    y_mid = 0.5 * (y_lo + y_hi)
    # once the ends are adjacent doubles the midpoint is one of them
    while y_hi - y_lo > resolution and y_lo < y_mid < y_hi:
        y_lo, y_hi = (y_mid, y_hi) if pair_on_line(y_mid) else (y_lo, y_mid)
        y_mid = 0.5 * (y_lo + y_hi)
    return y_mid
