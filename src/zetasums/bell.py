"""Taylor series from zero-power sums, and the series linkage identities.

The Taylor coefficients e_n of F(s)/F(0) follow from the sigma series by
Newton's identities, e_n = -(1/n) sum_(k=1..n) sigma_k e_(n-k), in doubles;
e_n is the complete exponential Bell polynomial B_n(x)/n! at
x_j = -sigma_j (j-1)!. The rebuilt series tie xi to the two modified T
functions.
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


def bell_table(x: Sequence[float], n: int) -> List[float]:
    """Complete Bell polynomials B_0..B_n(x_1..x_n) of real arguments, in one
    pass of the binomial recurrence B_(m+1) = sum_i C(m, i) B_(m-i) x_(i+1)."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if len(x) < n:
        raise DomainError(f"need at least {n} arguments, got {len(x)}")
    x = list(x[:n])
    if any(isinstance(v, complex) for v in x):
        raise DomainError("Bell polynomial arguments must be real")
    b = [1.0]
    for m in range(n):
        b.append(sum(math.comb(m, i) * b[m - i] * x[i] for i in range(m + 1)))
    return b


def bell_eval(x: Sequence[float], n: int) -> float:
    """Complete Bell polynomial B_n(x_1..x_n)."""
    return bell_table(x, n)[n]


def _newton_coeffs(sig: SigmaSeries, K: int) -> List[float]:
    """e_0..e_K of F(s)/F(0) from sigma_1..sigma_K by Newton's identities."""
    if not 0 <= K <= len(sig.values):
        raise DomainError("need sigma to order K")
    # every series form is real on the real axis, so Im sigma_j is FFT rounding noise
    sigma = sig.values[:K].real.tolist()
    e = [1.0]
    for n in range(1, K + 1):
        e.append(-sum(sigma[k] * e[n - 1 - k] for k in range(n)) / n)
    return e


def series_from_sigma(sig: SigmaSeries, K: int) -> PowerSeries:
    """Taylor coefficients e_0..e_K of F(s)/F(0) rebuilt from the sigma series."""
    coeffs = [complex(e) for e in _newton_coeffs(sig, K)]
    return PowerSeries(center=0.0, coeffs=coeffs)


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


def _link_sides(
    sigK: SigmaSeries, sigP: SigmaSeries, sigM: SigmaSeries, K: int
) -> Tuple[List[float], List[float]]:
    """Both sides of 2^(k+1) e_k^xi - 2^k e_(k-1)^xi = e_k^+ + e_k^- - 2 e_(k-1)^+
    for k = 0..K, with e^xi, e^+ and e^- rebuilt from the sigma series of xi,
    Tp~ and Tm~.

    Side k is 4 times the order-k Taylor coefficient of the linkage identity
    (1-s) xi(2s) = 4[Tm~(s) + (s-1/2) Tp~(s)]; xi's side carries the 2^k
    scaling from its 2s argument.
    """
    eK, eP, eM = (_newton_coeffs(s, K) for s in (sigK, sigP, sigM))
    lhs, rhs = [2.0 * eK[0]], [eP[0] + eM[0]]
    for k in range(1, K + 1):
        lhs.append(2.0 ** (k + 1) * eK[k] - 2.0**k * eK[k - 1])
        rhs.append(eP[k] + eM[k] - 2.0 * eP[k - 1])
    return lhs, rhs


def verify_link3(K: int) -> List[LinkReport]:
    """Coefficient comparison of (1-s) xi(2s) = 4[Tm~(s) + (s-1/2) Tp~(s)]
    about s = 0 through order K."""
    sigmas = (
        sigma_series_derivative(f, K + 1)
        for f in (FunctionId.XI, FunctionId.T_PLUS_TILDE, FunctionId.T_MINUS_TILDE)
    )
    reports = []
    for k, (lhs, rhs) in enumerate(zip(*_link_sides(*sigmas, K))):
        lhs, rhs = lhs / 4.0, rhs / 4.0
        reports.append(LinkReport(k, lhs, rhs, abs(lhs - rhs)))
    return reports


def sigma_cross_relations(
    sigK: SigmaSeries, sigP: SigmaSeries, sigM: SigmaSeries, K: Optional[int] = None
) -> List[float]:
    """Residuals tying xi's sigma to those of the two T forms.

    Entry 0: first-order relation sigma_1^K = (sigma_1^+ + sigma_1^-)/4.
    Entry 1: the second-order relation expressing sigma_2^K through
    sigma_{1,2}^{+,-}. Entries 2..: the order-k coefficient identities of
    _link_sides for k = 1..K, on the Newton coefficients e_k, so each entry
    is 4 times a Taylor-coefficient residual of the linkage identity (the
    k=1 case reduces to the first-order relation).
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
    lhs, rhs = _link_sides(sigK, sigP, sigM, K)
    return [r16, r18] + [abs(l - r) for l, r in zip(lhs[1:], rhs[1:])]
