"""Translated zero sums, half-shift interlacing, and window searches.

Shifting the expansion point from the symmetry centre to a nearby point z0
turns each sigma_m into a translated sum over the same zeros. Two routes are
implemented: a binomial resummation of the centred sigma series, and a direct
log-derivative extraction about z0. The module also compares half-shifted xi
zero ordinates against the T_plus / T_minus ordinates (interlacing) and
gives the exact shift window in which interlacing holds without failures.
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
    reduces term by term to sigma_m itself. Raises DomainError unless
    m >= 1 and terms >= 1.
    """
    if m < 1 or terms < 1:
        raise DomainError(f"m and terms must be >= 1, got m={m}, terms={terms}")
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
    if z0 != 0 and not term_mags[-1] < term_mags[-2]:  # nan when z0^p overflows
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
    about z0. Raises RadiusError if a zero lies inside the circle about z0
    (taylor_log_coeffs).
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


def _aligned(
    a: np.ndarray, b: np.ndarray, mode: str, n_check: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, x) for ordinals 1..n_check: the b ordinate x that
    interlacing compares, and the bounds it must lie strictly between.

    mode "after": x = b_i above a_i (upper = inf). mode "between": x = b_{i+1}
    inside (a_i, a_{i+1}); the first b ordinate sits below the first a
    ordinate, so the b sequence runs one index ahead.
    """
    if mode not in ("after", "between"):
        raise DomainError(f"unknown interlacing mode {mode!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ahead = int(mode == "between")
    if n_check is None:
        n_check = max(len(a) - ahead, 0)
    if n_check < 0:
        raise DomainError(f"n_check must be >= 0, got {n_check}")
    need = n_check + ahead
    if len(a) < need or len(b) < need:
        raise RangeMismatchError(
            f"need {need} ordinates in both sequences (have {len(a)} and {len(b)})"
        )
    upper = a[1:need] if ahead else np.full(n_check, np.inf)
    return a[:n_check], upper, b[ahead:need]


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
    not lie strictly inside (a_i, a_{i+1}). A coincidence closer than 1e-9
    to an interval endpoint counts as a failure. Ordinals are 1-based over
    the a sequence. Raises DomainError for a shift that is not finite.
    """
    if not math.isfinite(t0):
        raise DomainError(f"shift t0 must be finite, got {t0}")
    lower, upper, x = _aligned(a, b, mode, n_check)
    x = x + t0
    inside = (lower + _COINCIDENCE_TOL < x) & (x < upper - _COINCIDENCE_TOL)
    failures = (np.nonzero(~inside)[0] + 1).tolist()
    return InterlacingReport(mode=mode, pair=pair, t0=t0, checked=len(x), failures=failures)


def translation_window_search(
    a: np.ndarray,
    b: np.ndarray,
    mode: str = "between",
    n_check: Optional[int] = None,
) -> Tuple[float, float]:
    """The open window (lo, hi) of shifts t0 for which interlacing_report
    finds no failure.

    Ordinal i holds for lower_i + 1e-9 < x_i + t0 < upper_i - 1e-9, with x_i
    the b ordinate it compares and lower_i, upper_i its a bounds (upper = inf
    in mode "after"). That is an open interval of t0, so the window is their
    intersection, in closed form: lo = max(lower - x) + 1e-9 and
    hi = min(upper - x) - 1e-9. Raises EmptyWindowError when lo >= hi.
    """
    lower, upper, x = _aligned(a, b, mode, n_check)
    lo = float(np.max(lower + _COINCIDENCE_TOL - x, initial=-np.inf))
    hi = float(np.min(upper - _COINCIDENCE_TOL - x, initial=np.inf))
    if not lo < hi:
        raise EmptyWindowError(f"no shift interlaces the sequences: lo {lo} >= hi {hi}")
    return lo, hi


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
