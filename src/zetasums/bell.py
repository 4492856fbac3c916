"""Complete exponential Bell polynomials and the series linkage identities.

B_n reconstructs a function's Taylor series from its zero-power sums, which
ties the series of xi to those of the two modified T functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError
from .special import FunctionId
from .sumrules import (
    PowerSeries,
    SigmaSeries,
    sigma_from_zeros,
    sigma_series_derivative,
)
from .zeros import ZeroDataset


@dataclass(frozen=True)
class LinkReport:
    order: int
    lhs_coeff: float
    rhs_coeff: float
    residual: float


def bell_eval(x: Sequence, n: int) -> float:
    """Complete Bell polynomial B_n(x_1..x_n) by the binomial recurrence.

    Arguments larger than 1e3 in magnitude are routed through extended
    precision; the recurrence's intermediate products overflow doubles there.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if len(x) < n:
        raise DomainError(f"need at least {n} arguments, got {len(x)}")
    if n and max(abs(complex(v)) for v in x[:n]) > 1e3:
        import mpmath as mp

        with mp.workdps(60):
            b = [mp.mpf(1)]
            for m in range(n):
                b.append(
                    mp.fsum(
                        math.comb(m, i) * b[m - i] * x[i]
                        for i in range(m + 1)
                    )
                )
            return float(b[n])
    b = [1.0 + 0.0j]
    for m in range(n):
        b.append(sum(math.comb(m, i) * b[m - i] * complex(x[i]) for i in range(m + 1)))
    val = b[n]
    return val.real if abs(val.imag) < 1e-10 * max(1.0, abs(val)) else val


def bell_table(x: Sequence, n: int) -> List[float]:
    """B_0..B_n at the given argument vector."""
    return [bell_eval(x, m) for m in range(n + 1)]


def _bell_vector_from_sigma(sig: SigmaSeries, K: int) -> List[complex]:
    if len(sig.values) < K:
        raise DomainError("need sigma to order K")
    return [-sig.sigma(j) * math.factorial(j - 1) for j in range(1, K + 1)]


def series_from_sigma(sig: SigmaSeries, K: int) -> PowerSeries:
    """Taylor coefficients of F(s)/F(0) rebuilt from the sigma series.

    Coefficient k is B_k(x)/k! with x_j = -sigma_j (j-1)!.
    """
    x = _bell_vector_from_sigma(sig, K)
    coeffs = [bell_eval(x, k) / math.factorial(k) for k in range(K + 1)]
    return PowerSeries(center=0.0, coeffs=[complex(c) for c in coeffs], radius_used=0.0, resolution_used=0)


def symmetric_sum_check(ds: ZeroDataset, sig: SigmaSeries) -> LinkReport:
    """Order-2 symmetric function of inverse zeros, both routes.

    lhs = (sigma_1^2 - sigma_2)/2 from the series route; rhs is the same
    combination from tail-corrected zero sums over the dataset.
    """
    lhs = ((sig.sigma(1) ** 2 - sig.sigma(2)) / 2.0).real
    s1 = sigma_from_zeros(ds, 1)
    s2 = sigma_from_zeros(ds, 2)
    rhs = ((s1 * s1 - s2) / 2.0).real
    return LinkReport(2, lhs, rhs, abs(lhs - rhs))


def _three_sigma_series(K: int) -> Tuple[SigmaSeries, SigmaSeries, SigmaSeries]:
    sK = sigma_series_derivative(FunctionId.XI, K + 1)
    sP = sigma_series_derivative(FunctionId.T_PLUS_TILDE, K + 1)
    sM = sigma_series_derivative(FunctionId.T_MINUS_TILDE, K + 1)
    return sK, sP, sM


def verify_link3(
    K: int,
    sigmas: Optional[Tuple[SigmaSeries, SigmaSeries, SigmaSeries]] = None,
) -> List[LinkReport]:
    """Coefficient comparison of (1-s) xi(2s) = 4[Tm~(s) + (s-1/2) Tp~(s)].

    Both sides are expanded about s=0 through order K from the three sigma
    series; the xi side carries the 2^k scaling from its 2s argument.
    """
    sK, sP, sM = sigmas if sigmas is not None else _three_sigma_series(K)
    bK = bell_table(_bell_vector_from_sigma(sK, K), K)
    bP = bell_table(_bell_vector_from_sigma(sP, K), K)
    bM = bell_table(_bell_vector_from_sigma(sM, K), K)
    reports = []
    for k in range(K + 1):
        lhs = 0.5 * (2.0**k) * bK[k] / math.factorial(k)
        if k >= 1:
            lhs -= 0.5 * (2.0 ** (k - 1)) * bK[k - 1] / math.factorial(k - 1)
        rhs = 0.25 * bM[k] / math.factorial(k) + 0.25 * bP[k] / math.factorial(k)
        if k >= 1:
            rhs -= 0.5 * bP[k - 1] / math.factorial(k - 1)
        reports.append(LinkReport(k, float(lhs), float(rhs), abs(lhs - rhs)))
    return reports


def sigma_cross_relations(
    sigK: SigmaSeries, sigP: SigmaSeries, sigM: SigmaSeries, K: Optional[int] = None
) -> List[float]:
    """Residuals tying xi's sigma to those of the two T forms.

    Entry 0: first-order relation sigma_1^K = (sigma_1^+ + sigma_1^-)/4.
    Entry 1: the second-order relation expressing sigma_2^K through
    sigma_{1,2}^{+,-}. Entries 2..: the order-k Bell-polynomial family
        2^{k+1} B_k^K - 2^k k B_{k-1}^K = B_k^+ + B_k^- - 2k B_{k-1}^+
    for k = 1..K (whose k=1 case reduces to the first-order relation).
    """
    if K is None:
        K = min(len(sigK.values), len(sigP.values), len(sigM.values))
    s1K, s2K = sigK.sigma(1).real, sigK.sigma(2).real
    s1p, s2p = sigP.sigma(1).real, sigP.sigma(2).real
    s1m, s2m = sigM.sigma(1).real, sigM.sigma(2).real
    r16 = abs(s1K - 0.25 * (s1p + s1m))
    r18 = abs(
        s2K
        - (
            -(s1p**2)
            - s1m**2
            + 2.0 * s1p * s1m
            + 2.0 * s2p
            + 2.0 * s2m
            - 4.0 * s1p
            + 4.0 * s1m
        )
        / 16.0
    )
    bK = bell_table(_bell_vector_from_sigma(sigK, K), K)
    bP = bell_table(_bell_vector_from_sigma(sigP, K), K)
    bM = bell_table(_bell_vector_from_sigma(sigM, K), K)
    residuals = [r16, r18]
    for k in range(1, K + 1):
        lhs = 2.0 ** (k + 1) * bK[k] - 2.0**k * k * bK[k - 1]
        rhs = bP[k] + bM[k] - 2.0 * k * bP[k - 1]
        residuals.append(abs(lhs - rhs))
    return residuals
