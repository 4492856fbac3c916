"""Zero-power sums by two routes and the Keiper coefficient identities.

sigma_m is computed (a) from Taylor coefficients of log f about 0, via
circle sampling, and (b) by direct summation over located zeros with a
density-model tail. The two routes are complementary: the zero route
converges slowly for small m, the derivative route loses digits as m grows.
The series form, its circle radius and the density model of each function
are read from its row of special.SPECS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError, DomainError, RadiusError
from .special import DEFAULT_OPTIONS, SPECS, EvalOptions, FunctionId, evaluate
from .zeros import ZeroDataset

DERIVATIVE_ROUTE = "derivative_route"
ZERO_ROUTE = "zero_route"


@dataclass
class PowerSeries:
    center: complex
    coeffs: List[complex]
    radius_used: float
    resolution_used: int


@dataclass
class SigmaSeries:
    function: FunctionId
    values: np.ndarray  # sigma_1..sigma_K at indices 0..K-1
    method: List[str]
    zeros_used: int

    def sigma(self, k: int) -> complex:
        if not 1 <= k <= len(self.values):
            raise DomainError(f"sigma_{k} not computed")
        return complex(self.values[k - 1])


@dataclass
class KeiperCoefficients:
    function: FunctionId
    tau: np.ndarray  # tau_0..tau_{K-1}
    lam: np.ndarray  # lambda_0..lambda_K


def _circle_samples(f: FunctionId, center: complex, radius: float, n: int, opts):
    angles = 2.0 * np.pi * np.arange(n) / n
    return evaluate(f, center + radius * np.exp(1j * angles), opts)


def _taylor_from_samples(samples: np.ndarray, radius: float, K: int) -> np.ndarray:
    n = len(samples)
    a = np.fft.fft(samples) / n
    return a[: K + 1] / radius ** np.arange(K + 1)


def _log_series(a: np.ndarray) -> np.ndarray:
    """Formal log of a power series with a[0] != 0; returns c with c[0]=0."""
    b = a / a[0]
    c = np.zeros_like(b)
    for m in range(1, len(b)):
        acc = b[m]
        for k in range(1, m):
            acc -= (k / m) * c[k] * b[m - k]
        c[m] = acc
    return c


def taylor_log_coeffs(
    f: FunctionId,
    K: int,
    radius: Optional[float] = None,
    opts: EvalOptions = DEFAULT_OPTIONS,
    center: complex = 0.0,
    resolution: int = 512,
) -> PowerSeries:
    """Taylor coefficients c_0..c_K of log(f(s)/f(0)) about the center.

    f is sampled on a circle, Taylor coefficients extracted by discrete
    Fourier averaging, and the series logarithm applied. The result is
    self-validated at doubled resolution.
    """
    f = FunctionId(f)
    if radius is None:
        radius = SPECS[f].radius
        if radius is None:
            raise DomainError(f"no default radius for {f}; pass one explicitly")
    samples2 = _circle_samples(f, center, radius, 2 * resolution, opts)
    # the even-indexed angles 2 pi (2k) / (2n) are exactly 2 pi k / n
    samples = samples2[::2]
    mags = np.abs(samples)
    if mags.min() == 0.0 or mags.max() / mags.min() > 1e6:
        raise RadiusError(
            f"|{f}| varies by more than 1e6 on the radius-{radius} circle; "
            "a zero is on or near it"
        )
    c = _log_series(_taylor_from_samples(samples, radius, K))
    c2 = _log_series(_taylor_from_samples(samples2, radius, K))
    # relative agreement, with an absolute floor for coefficients at the
    # double-precision noise level of the quadrature
    tol = np.maximum(1e-11 * np.abs(c2), 1e-14 * max(1.0, float(np.max(np.abs(c2)))))
    if np.any(np.abs(c - c2)[1:] > tol[1:]):
        raise ConvergenceError(
            "doubling the sampling resolution moved the log-Taylor "
            "coefficients by more than 1e-11 relative"
        )
    return PowerSeries(center=center, coeffs=list(c2), radius_used=radius, resolution_used=2 * resolution)


# ---------------------------------------------------------------------------
# density models and anchored tails


def zero_density(f: FunctionId, t: float) -> float:
    """Smooth density of critical-line zeros at ordinate t (one per pair)."""
    zeros = SPECS[FunctionId(f)].zeros
    if zeros is None:
        raise DomainError(f"no zero-density model for {f}")
    return zeros.density(t)


def _anchored_tail(g, ds: ZeroDataset, n_observed: int) -> float:
    """Estimate of sum of g(t) over critical-line ordinates above t_max.

    Integrates g against the smooth density of the dataset's function, then
    anchors the boundary t_max = ds.t_max_scanned with the observed
    fluctuation N_smooth(t_max) - N_observed, which removes the leading error
    of the density model at the cut.
    """
    t_max = ds.t_max_scanned
    integral, _ = quad(
        lambda t: g(t) * zero_density(ds.function, t), t_max, np.inf, limit=200
    )
    fluct = SPECS[ds.function].zeros.count(t_max) - float(n_observed)
    return integral + g(t_max) * fluct


# ---------------------------------------------------------------------------
# sigma by the zero route


def sigma_from_zeros(
    ds: ZeroDataset,
    m: int,
    include_real_axis: bool = True,
    tail_correction: Optional[bool] = None,
) -> complex:
    """sigma_m = sum of rho^(-m) over all zeros of the dataset's function.

    Each critical-line record t stands for the conjugate pair 1/2 +- it;
    real-axis records enter individually. For m in {1, 2} the slowly
    convergent sum gets a mandatory density-model tail.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    if tail_correction is None:
        tail_correction = m <= 2
    ts = ds.ordinates()
    rho = 0.5 + 1j * ts
    terms = 2.0 * (rho ** (-m)).real  # pair with the conjugate
    total = complex(math.fsum(terms))
    if include_real_axis:
        for x in ds.real_points():
            total += complex(x) ** (-m)
    if tail_correction and len(ts):
        total += _anchored_tail(lambda t: 2.0 * ((0.5 + 1j * t) ** (-m)).real, ds, len(ts))
    return total


def sigma_series_from_zeros(
    ds: ZeroDataset, K: int, include_real_axis: bool = True
) -> SigmaSeries:
    vals = np.array(
        [sigma_from_zeros(ds, m, include_real_axis) for m in range(1, K + 1)]
    )
    return SigmaSeries(ds.function, vals, [ZERO_ROUTE] * K, len(ds.records))


def sigma_series_derivative(
    f: FunctionId,
    K: int,
    radius: Optional[float] = None,
    opts: EvalOptions = DEFAULT_OPTIONS,
) -> SigmaSeries:
    """sigma_1..sigma_K from log-Taylor coefficients: sigma_m = -m c_m."""
    f = SPECS[FunctionId(f)].series
    ps = taylor_log_coeffs(f, K, radius, opts)
    vals = np.array([-m * ps.coeffs[m] for m in range(1, K + 1)])
    return SigmaSeries(f, vals, [DERIVATIVE_ROUTE] * K, 0)


def verify_sum_rule(
    f: FunctionId,
    ds: ZeroDataset,
    m_range: Sequence[int],
    radius: Optional[float] = None,
    opts: EvalOptions = DEFAULT_OPTIONS,
) -> List[Tuple[int, float, float, float]]:
    """Rows (m, lhs, rhs, diff): lhs = c_m of log f, rhs = -sigma_m/m from zeros."""
    f = SPECS[FunctionId(f)].series
    K = max(m_range)
    ps = taylor_log_coeffs(f, K, radius, opts)
    rows = []
    for m in m_range:
        lhs = complex(ps.coeffs[m]).real
        rhs = (-sigma_from_zeros(ds, m, tail_correction=True) / m).real
        rows.append((m, lhs, rhs, lhs - rhs))
    return rows


def crossover_select(
    f: FunctionId,
    ds: ZeroDataset,
    K: int,
    radius: Optional[float] = None,
    opts: EvalOptions = DEFAULT_OPTIONS,
) -> Tuple[int, float]:
    """k minimizing |derivative-route sigma_k - zero-route sigma_k|."""
    if len(ds.records) == 0:
        raise DomainError("crossover_select needs a nonempty dataset")
    der = sigma_series_derivative(f, K, radius, opts)
    diffs = [
        abs(der.sigma(k) - sigma_from_zeros(ds, k)) for k in range(1, K + 1)
    ]
    k_star = int(np.argmin(diffs)) + 1
    return k_star, float(diffs[k_star - 1])


def sigma_series_hybrid(
    f: FunctionId,
    ds: ZeroDataset,
    K: int,
    crossover: Optional[int] = None,
    radius: Optional[float] = None,
    opts: EvalOptions = DEFAULT_OPTIONS,
) -> SigmaSeries:
    """Derivative route below the crossover order, zero route at and above."""
    if crossover is None:
        crossover, _ = crossover_select(f, ds, min(K, 12), radius, opts)
    der = sigma_series_derivative(f, K, radius, opts)
    vals = der.values.copy()
    method = list(der.method)
    for k in range(crossover, K + 1):
        vals[k - 1] = sigma_from_zeros(ds, k)
        method[k - 1] = ZERO_ROUTE
    return SigmaSeries(der.function, vals, method, len(ds.records))


# ---------------------------------------------------------------------------
# Keiper identities


def keiper_identity_residuals(sig: SigmaSeries) -> Tuple[float, float, float]:
    """Residuals of the three truncated sigma identities.

    r1: |sum_k sigma_k / k|; r2: |sigma_1 + sum_k sigma_k|;
    r3: |sigma_2 - sum_k (k-1) sigma_k| (lowest instance of the binomial
    recurrence). All three vanish as K grows, geometrically in the modulus
    of the nearest zero.
    """
    K = len(sig.values)
    if K < 20:
        raise DomainError("identities need sigma to order K >= 20")
    k = np.arange(1, K + 1, dtype=float)
    s1, s2, s3 = (
        complex(math.fsum(v.real), math.fsum(v.imag))
        for v in (sig.values / k, sig.values, (k - 1) * sig.values)
    )
    return abs(s1), abs(sig.sigma(1) + s2), abs(sig.sigma(2) - s3)


def tau_lambda_from_sigma(sig: SigmaSeries, K: int) -> KeiperCoefficients:
    """tau_0..tau_{K-1} and lambda_0..lambda_K by finite binomial sums.

    tau_0 = sigma_1; tau_k = sum_{j=1..k} C(k-1, j-1) (-1)^j sigma_{j+1};
    lambda_0 = 0;     lambda_m = (1/m) sum_{j=1..m} C(m, j) (-1)^{j+1} sigma_j.
    """
    if len(sig.values) < K + 1:
        raise DomainError("need sigma to order K+1")
    tau = np.zeros(K, dtype=complex)
    tau[0] = sig.sigma(1)
    for k in range(1, K):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            acc += math.comb(k - 1, j - 1) * (-1) ** j * sig.sigma(j + 1)
        tau[k] = acc
    lam = np.zeros(K + 1, dtype=complex)
    for m in range(1, K + 1):
        acc = 0.0 + 0.0j
        for j in range(1, m + 1):
            acc += math.comb(m, j) * (-1) ** (j + 1) * sig.sigma(j)
        lam[m] = acc / m
    return KeiperCoefficients(sig.function, tau, lam)


def tau_lambda_from_zeros(
    ds: ZeroDataset,
    K: int,
    include_real_axis: bool = True,
    tail_correction: bool = True,
) -> KeiperCoefficients:
    """tau and lambda by direct zero sums.

    tau_0 = sigma_1; tau_k = -sum_rho (rho/(rho-1))^(k+1) rho^{-2} for k >= 1;
    lambda_m = (1/m) sum_rho [1 - (rho/(rho-1))^m].
    Conjugate pairs are summed exactly; a density-model tail (anchored at
    the observed count) supplies the zeros beyond t_max. (The power-sum
    family disagrees with the expansion coefficient at k=0 by exactly
    sigma_1, so tau_0 is taken from the sigma sum directly.)
    """
    if K > 100:
        raise DomainError("powers of rho/(rho-1) lose conditioning past K=100")
    ts = ds.ordinates()
    rho = 0.5 + 1j * ts
    w = rho / (rho - 1.0)
    xs = ds.real_points() if include_real_axis else np.array([])
    tau = np.zeros(K, dtype=complex)
    lam = np.zeros(K + 1, dtype=complex)
    wm = np.ones_like(w)
    n_obs = len(ts)
    for m in range(1, K + 1):
        wm = wm * w
        tau_terms = -2.0 * (wm / rho**2).real
        lam_terms = 2.0 * (1.0 - wm).real / m
        t_m = complex(math.fsum(tau_terms))
        l_m = complex(math.fsum(lam_terms))
        for x in xs:
            wx = x / (x - 1.0)
            t_m += -(wx**m) / x**2
            l_m += (1.0 - wx**m) / m
        if tail_correction and n_obs:
            t_m += _anchored_tail(_tau_pair_integrand(m), ds, n_obs)
            l_m += _anchored_tail(_lambda_pair_integrand(m), ds, n_obs)
        if m >= 2:
            tau[m - 1] = t_m
        lam[m] = l_m
    tau[0] = sigma_from_zeros(ds, 1, include_real_axis, tail_correction)
    return KeiperCoefficients(ds.function, tau, lam)


def _tau_pair_integrand(m: int):
    def g(t: float) -> float:
        rho = 0.5 + 1j * t
        return -2.0 * ((rho / (rho - 1.0)) ** m / rho**2).real

    return g


def _lambda_pair_integrand(m: int):
    def g(t: float) -> float:
        rho = 0.5 + 1j * t
        return 2.0 * (1.0 - (rho / (rho - 1.0)) ** m).real / m

    return g


def inverse_square_modulus_sum(
    ds: ZeroDataset, include_real_axis: bool = True
) -> Tuple[float, float]:
    """(raw, tail_corrected) values of sum over zeros of 1/|rho|^2."""
    ts = ds.ordinates()
    raw = math.fsum(2.0 / (0.25 + ts * ts))
    if include_real_axis:
        raw += float(np.sum(1.0 / ds.real_points() ** 2)) if len(ds.real_points()) else 0.0
    corrected = raw
    if len(ts):
        corrected += _anchored_tail(lambda t: 2.0 / (0.25 + t * t), ds, len(ts))
    return raw, corrected
