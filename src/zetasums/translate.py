"""Translated zero sums, half-shift interlacing, and window searches.

Shifting the expansion point from the symmetry centre to a nearby point z0
turns each sigma_m into a translated sum over the same zeros. Two routes are
implemented: a binomial resummation of the centred sigma series, and a direct
log-derivative extraction about z0. The module also compares half-shifted xi
zero ordinates against the T_plus / T_minus ordinates (interlacing) and
searches for the shift window in which interlacing holds without failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EmptyWindowError,
    PoleError,
    RangeMismatchError,
)
from .special import FunctionId, critical_line_form, log_xi1
from .sumrules import SigmaSeries, taylor_log_coeffs
from .zeros import ZeroDataset

__all__ = [
    "TranslatedSigma",
    "InterlacingReport",
    "translated_sigma_series",
    "translated_sigma_direct",
    "xi_halfshift_ordinates",
    "interlacing_report",
    "translation_window_search",
    "ratio_identity_check",
]

_COINCIDENCE_TOL = 1e-9


@dataclass
class TranslatedSigma:
    function: FunctionId
    center: complex
    m: int
    value: complex
    method: str
    terms_used: int


@dataclass
class InterlacingReport:
    mode: str  # "after" or "between"
    pair: Tuple[str, str]
    t0: float
    checked: int
    failures: List[int]

    @property
    def failure_fraction(self) -> float:
        return len(self.failures) / self.checked if self.checked else 0.0

    def as_dict(self) -> Dict:
        return {
            "pair": list(self.pair),
            "mode": self.mode,
            "t0": self.t0,
            "checked": self.checked,
            "failures": list(self.failures),
            "fraction": self.failure_fraction,
        }


def translated_sigma_series(
    sig: SigmaSeries, z0: complex, m: int, terms: int = 40
) -> TranslatedSigma:
    """Translated sum sigma_m(z0) = sum over zeros of (rho - z0)^(-m).

    Resummed from the centred series by the binomial expansion
    (rho - z0)^(-m) = sum_p C(m+p-1, p) z0^p rho^(-(m+p)), so
    sigma_m(z0) = sum_p C(m+p-1, p) z0^p sigma_{m+p}. At z0 = 0 this
    reduces term by term to sigma_m itself.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if m + terms > len(sig.values):
        raise DomainError(
            f"need sigma up to order {m + terms}, series holds {len(sig.values)}"
        )
    term_mags = []
    total = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    for p in range(terms + 1):
        term = comb(m + p - 1, p) * zp * sig.sigma(m + p)
        total += term
        term_mags.append(abs(term))
        zp *= z0
    if z0 != 0 and term_mags[-1] >= term_mags[-2]:
        raise ConvergenceError(
            f"translated series for m={m} at z0={z0} is not decreasing "
            f"at the final retained term ({term_mags[-2]:.3e} -> {term_mags[-1]:.3e})"
        )
    return TranslatedSigma(
        function=sig.function,
        center=z0,
        m=m,
        value=total,
        method="series",
        terms_used=terms + 1,
    )


def translated_sigma_direct(f: FunctionId, z0: complex, m: int) -> TranslatedSigma:
    """Translated sum via the log-derivative of f expanded about z0.

    With log f(z) = const - sum_m sigma_m(z0) (z - z0)^m / m over the zeros,
    the translated sum is -m times the m-th Taylor coefficient of log f
    about z0.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    series = taylor_log_coeffs(f, m, center=z0)
    return TranslatedSigma(
        function=FunctionId(f),
        center=z0,
        m=m,
        value=-m * series.coeffs[m],
        method="direct",
        terms_used=series.resolution_used,
    )


def xi_halfshift_ordinates(xi_ds: ZeroDataset) -> np.ndarray:
    """Ordinates of xi(2s) zeros: each xi ordinate t maps to t/2."""
    if xi_ds.function is not FunctionId.XI:
        raise DomainError("expected a xi zero dataset")
    return xi_ds.ordinates() / 2.0


def interlacing_report(
    a: np.ndarray,
    b: np.ndarray,
    mode: str,
    t0: float = 0.0,
    n_check: Optional[int] = None,
    pair: Tuple[str, str] = ("a", "b"),
) -> InterlacingReport:
    """Compare two increasing ordinate sequences, b shifted by t0.

    mode "after": failure at ordinal i when b_i + t0 does not lie strictly
    above a_i. mode "between": failure at ordinal i when b_{i+1} + t0 does
    not lie strictly inside (a_i, a_{i+1}); the first b ordinate sits below
    the first a ordinate, so the b sequence runs one index ahead. A
    coincidence closer than 1e-9 to an interval endpoint counts as a
    failure. Ordinals are 1-based over the a sequence.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float) + t0
    if mode not in ("after", "between"):
        raise DomainError(f"unknown interlacing mode {mode!r}")
    if n_check is None:
        n_check = len(a) if mode == "after" else len(a) - 1
    failures: List[int] = []
    if mode == "after":
        if len(a) < n_check or len(b) < n_check:
            raise RangeMismatchError(
                f"need {n_check} ordinates in both sequences "
                f"(have {len(a)} and {len(b)})"
            )
        for i in range(n_check):
            if not b[i] > a[i] + _COINCIDENCE_TOL:
                failures.append(i + 1)
    else:
        if len(a) < n_check + 1 or len(b) < n_check + 1:
            raise RangeMismatchError(
                f"need {n_check + 1} ordinates in both sequences "
                f"(have {len(a)} and {len(b)})"
            )
        inside = (a[:n_check] + _COINCIDENCE_TOL < b[1 : n_check + 1]) & (
            b[1 : n_check + 1] < a[1 : n_check + 1] - _COINCIDENCE_TOL
        )
        failures = [i + 1 for i in range(n_check) if not inside[i]]
    return InterlacingReport(
        mode=mode, pair=pair, t0=t0, checked=n_check, failures=failures
    )


def translation_window_search(
    a: np.ndarray,
    b: np.ndarray,
    mode: str = "between",
    t_range: Tuple[float, float] = (-0.2, 0.2),
    step: float = 0.002,
    n_check: Optional[int] = None,
    pair: Tuple[str, str] = ("a", "b"),
) -> Tuple[float, float, List[InterlacingReport]]:
    """Largest contiguous t0 window with no interlacing failures.

    Scans t0 over t_range at the given step, shifting the b ordinates,
    and returns (lo, hi) bounds of the widest run of failure-free shifts
    together with the per-shift reports.
    """
    lo_t, hi_t = t_range
    grid = np.arange(lo_t, hi_t + 0.5 * step, step)
    reports = [
        interlacing_report(a, b, mode, t0=float(t0), n_check=n_check, pair=pair)
        for t0 in grid
    ]
    ok = np.array([not r.failures for r in reports])
    if not ok.any():
        raise EmptyWindowError(
            f"no failure-free shift in [{lo_t}, {hi_t}] at step {step}"
        )
    best_len, best_start = 0, 0
    run_len, run_start = 0, 0
    for i, good in enumerate(ok):
        if good:
            if run_len == 0:
                run_start = i
            run_len += 1
            if run_len > best_len:
                best_len, best_start = run_len, run_start
        else:
            run_len = 0
    return (
        float(grid[best_start]),
        float(grid[best_start + best_len - 1]),
        reports,
    )


def ratio_identity_check(t: float, t0: float) -> float:
    """Residual of the shifted ratio identity on the critical line.

    At x = t - t0 the ratio T_plus/T_minus at 1/2 + ix equals
    -i cot(arg xi_1(1 + 2ix)); returns the absolute residual
    |T_plus/T_minus + i cot(arg xi_1)|. The ratio is formed from the
    exponentially scaled critical-line forms (the unscaled values
    underflow beyond t ~ 450).
    """
    x = t - t0
    rp = critical_line_form(FunctionId.T_PLUS, x)
    rm = critical_line_form(FunctionId.T_MINUS, x)
    if rm == 0.0:
        raise PoleError(f"T_minus vanishes at t = {x}; the ratio has a pole")
    arg = log_xi1(1.0 + 2j * x).imag
    lhs = -1j * (rp / rm)
    return abs(lhs + 1j / math.tan(arg))
