"""Zero-power sums by two routes and the Keiper coefficient identities.

sigma_m is computed (a) from Taylor coefficients of log f about 0, by one
FFT of log f on a circle that encloses no zero, and (b) by direct summation
over located zeros with a density-model tail. The two routes are
complementary: the zero route converges slowly for small m, the derivative
route loses digits as m grows.
The series form, its circle radius and the density model of each function
are read from its row of special.SPECS.

Every zero-route quantity (sigma_m, the Keiper tau_k and lambda_m, the sum
of 1/|rho|^2) is one operation, _zero_sum: a term summed over the conjugate
pairs 1/2 +- it and the real zeros, plus the anchored density tail above
the last zero.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import AccuracyError, ConvergenceError, DomainError, RadiusError
from .special import SPECS, FunctionId, evaluate
from .zeros import ZeroDataset

# Highest Taylor order plus one: a circle has 2 * _RESOLUTION points, and the
# upper half of its log-Fourier coefficients reads the alias check.
_RESOLUTION = 512
# Smallest circle radius: samples vary by about radius |f'/f| relative, so at
# 1e-20 they round to f(center) and every coefficient reads 0, unflagged.
_MIN_RADIUS = 1e-8
# quad's rule for a = 1: 16-point Gauss-Legendre on each of the 64 panels
# [2^k, 2^(k+1)]; past 2^64 a, a term decaying like t^-2 log t is below rounding.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANELS = 2.0 ** np.arange(64)[:, None]
_QUAD_T = (_PANELS * (1.5 + 0.5 * _GL_X)).ravel()
_QUAD_W = (_PANELS * (0.5 * _GL_W)).ravel()


@dataclass
class PowerSeries:
    center: complex
    coeffs: List[complex]


@dataclass
class SigmaSeries:
    function: FunctionId
    values: np.ndarray  # sigma_1..sigma_K at indices 0..K-1

    def sigma(self, k: int) -> complex:
        if not 1 <= k <= len(self.values):
            raise DomainError(f"sigma_{k} not computed")
        return complex(self.values[k - 1])


@dataclass
class KeiperCoefficients:
    function: FunctionId
    tau: np.ndarray  # tau_0..tau_{K-1}
    lam: np.ndarray  # lambda_0..lambda_K


@functools.lru_cache(maxsize=32)  # 32 circles of 1,024 coefficients: 512 KB
def _log_fourier(f: FunctionId, center: complex, radius: float) -> np.ndarray:
    """FFT(log f)/n on n = 2 * _RESOLUTION points of a circle, memoized per process.

    Callers pass (FunctionId, complex, float), the key. The phase of log f is
    unwrapped along the circle; it winds once per zero inside (the argument
    principle), so RadiusError is raised unless it winds 0 times and every
    sample is finite and nonzero. The array is read-only, as every caller
    of the circle shares it; errors are not kept.
    """
    n = 2 * _RESOLUTION
    samples = evaluate(f, center + radius * np.exp(2j * np.pi * np.arange(n) / n))
    mags = np.abs(samples)
    phase = np.unwrap(np.angle(np.append(samples, samples[0])))
    winding = (phase[-1] - phase[0]) / (2.0 * np.pi)
    if not (np.all((0.0 < mags) & (mags < np.inf)) and abs(winding) < 0.5):
        raise RadiusError(f"{f} winds {winding:.0f} times, or is 0 or not finite, on the radius-{radius} circle")
    a = np.fft.fft(np.log(mags) + 1j * phase[:-1]) / n
    a.flags.writeable = False
    return a


def taylor_log_coeffs(
    f: FunctionId,
    K: int,
    radius: Optional[float] = None,
    center: complex = 0.0,
) -> PowerSeries:
    """Taylor coefficients c_0..c_K of log(f(s)/f(center)) about the center.

    c_0 = 0 and c_k = a_k / radius^k, with a_k the log-Fourier coefficients
    of the circle (_log_fourier, computed once per circle and process). The
    even samples alone would read a_k + a_(k + _RESOLUTION): ConvergenceError
    if that alias moves c_k by more than 1e-11 relative. Raises RadiusError
    if a zero lies inside or on the circle, and DomainError unless
    0 <= K < _RESOLUTION and _MIN_RADIUS <= radius < inf.
    """
    f = FunctionId(f)
    if not 0 <= K < _RESOLUTION:
        raise DomainError(f"Taylor order K must lie in 0..{_RESOLUTION - 1}, got {K}")
    if radius is None:
        radius = SPECS[f].radius
        if radius is None:
            raise DomainError(f"no default radius for {f}; pass one explicitly")
    if not _MIN_RADIUS <= radius < math.inf:
        raise DomainError(f"radius must lie in [{_MIN_RADIUS:g}, inf), got {radius!r}")
    radius = float(radius)  # an int radius would take int64 powers, which wrap past 2^63
    a = _log_fourier(f, complex(center), radius)
    powers = radius ** np.arange(K + 1)
    c = a[: K + 1] / powers
    c[0] = 0.0
    alias = np.abs(a[_RESOLUTION : _RESOLUTION + K + 1]) / powers
    # relative, with an absolute floor for coefficients at the double-precision
    # noise level of the transform
    tol = np.maximum(1e-11 * np.abs(c), 1e-14 * max(1.0, float(np.max(np.abs(c)))))
    if np.any(alias[1:] > tol[1:]):
        raise ConvergenceError("log-Taylor coefficients alias by more than 1e-11 relative; a zero is near the circle")
    return PowerSeries(center=center, coeffs=list(c))


# ---------------------------------------------------------------------------
# density models and anchored tails


def zero_density(f: FunctionId, t: float) -> float:
    """Smooth density of critical-line zeros at ordinate t (one per pair),
    a float or an array. Raises DomainError unless every t is finite and
    positive."""
    zeros = SPECS[FunctionId(f)].zeros
    if zeros is None:
        raise DomainError(f"no zero-density model for {f}")
    if not np.all((0.0 < t) & (t < math.inf)):
        raise DomainError(f"zero density needs finite t > 0, got {t}")
    return zeros.density(t)


def quad(g, a: float) -> float:
    """Integral of g over (a, inf), a > 0; g is called once, on all 1,024 nodes."""
    return a * math.fsum(_QUAD_W * g(a * _QUAD_T))


def _anchored_tail(ds: ZeroDataset, term) -> float:
    """Estimate of the sum of term over the conjugate pairs above t_max.

    Integrates the pair value 2 Re term(1/2 + it) against the smooth density
    of the dataset's function, then anchors the boundary t_max =
    ds.t_max_scanned with the observed fluctuation N_smooth(t_max) -
    N_observed, which removes the leading error of the density model at the
    cut. An empty dataset has no anchor and gets no tail.
    """
    n_observed = len(ds.ordinates())
    if not n_observed:
        return 0.0
    t_max = ds.t_max_scanned
    pair = lambda t: 2.0 * term(0.5 + 1j * t).real
    integral = quad(lambda t: pair(t) * zero_density(ds.function, t), t_max)
    fluct = SPECS[ds.function].zeros.count(t_max) - float(n_observed)
    return integral + float(pair(t_max)) * fluct


def _zero_sum(ds: ZeroDataset, term, include_real_axis: bool = True, tail: bool = False) -> float:
    """Sum of term(rho) over the dataset's zeros, the one operation of the zero route.

    Each critical-line ordinate t stands for the conjugate pair 1/2 +- it
    and adds 2 Re term(1/2 + it); each real-axis zero x adds Re term(x); tail adds
    the anchored density tail above the last zero. term is applied to
    numpy arrays, and to one scalar at the tail's anchor, so it may use
    numpy arithmetic and ufuncs.
    """
    total = math.fsum(2.0 * term(0.5 + 1j * ds.ordinates()).real)
    if include_real_axis:
        total += math.fsum(term(ds.real_points()).real)
    if tail:
        total += _anchored_tail(ds, term)
    return total


# ---------------------------------------------------------------------------
# sigma by the zero route


def sigma_from_zeros(ds: ZeroDataset, m: int, tail_correction: bool = True) -> float:
    """sigma_m = sum of rho^(-m) over all zeros of the dataset's function.

    tail_correction adds the anchored density tail above the last zero.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    # 1/rho first: rho^m overflows in the tail for m of about 90 and more
    return _zero_sum(ds, lambda rho: (1.0 / rho) ** m, tail=tail_correction)


def sigma_series_derivative(f: FunctionId, K: int) -> SigmaSeries:
    """sigma_1..sigma_K from log-Taylor coefficients: sigma_m = -m c_m."""
    f = SPECS[FunctionId(f)].series
    ps = taylor_log_coeffs(f, K)
    vals = np.array([-m * ps.coeffs[m] for m in range(1, K + 1)])
    return SigmaSeries(f, vals)


def verify_sum_rule(
    f: FunctionId, ds: ZeroDataset, m_range: Sequence[int]
) -> List[Tuple[int, float, float, float]]:
    """Rows (m, lhs, rhs, diff): lhs = c_m of log f, rhs = -sigma_m/m from zeros."""
    f = SPECS[FunctionId(f)].series
    ps = taylor_log_coeffs(f, max(m_range, default=0))
    rows = []
    for m in m_range:
        lhs = complex(ps.coeffs[m]).real
        rhs = -sigma_from_zeros(ds, m) / m
        rows.append((m, lhs, rhs, lhs - rhs))
    return rows


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
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    if len(sig.values) < K + 1:
        raise DomainError("need sigma to order K+1")
    sigma = [0j] + [complex(v) for v in sig.values]  # sigma[j] = sigma_j
    tau = np.zeros(K, dtype=complex)
    tau[0] = sigma[1]
    for k in range(1, K):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            acc += math.comb(k - 1, j - 1) * (-1) ** j * sigma[j + 1]
        tau[k] = acc
    lam = np.zeros(K + 1, dtype=complex)
    for m in range(1, K + 1):
        acc = 0.0 + 0.0j
        for j in range(1, m + 1):
            acc += math.comb(m, j) * (-1) ** (j + 1) * sigma[j]
        lam[m] = acc / m
    return KeiperCoefficients(sig.function, tau, lam)


def _lambda_term(rho, m: int):
    """(1 - w^m)/m, w = rho/(rho-1), by expm1 and log1p: no cancellation at |rho| >> m."""
    return -np.expm1(-m * np.log1p(-1.0 / rho)) / m


def tau_lambda_from_zeros(
    ds: ZeroDataset, K: int, tail_correction: bool = True
) -> KeiperCoefficients:
    """tau and lambda by direct zero sums.

    tau_0 = sigma_1; tau_k = -sum_rho (rho/(rho-1))^(k+1) rho^{-2} for k >= 1;
    lambda_m = (1/m) sum_rho [1 - (rho/(rho-1))^m].
    A density-model tail (anchored at the observed count) supplies the zeros
    beyond t_max. (The power-sum family disagrees with the expansion
    coefficient at k=0 by exactly sigma_1, so tau_0 is taken from the sigma
    sum directly.) Raises AccuracyError, before any sum, if |rho/(rho-1)|^(K+1)
    leaves double range at some zero (a real zero of T_minus past K ~ 2,400).
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    rho = np.concatenate((0.5 + 1j * ds.ordinates(), ds.real_points()))
    growth = (K + 1) * (np.log(np.abs(rho)) - np.log(np.abs(rho - 1.0)))
    if rho.size and np.max(growth) > math.log(sys.float_info.max):
        worst = rho[np.argmax(growth)]
        raise AccuracyError(f"K = {K}: |rho/(rho-1)|^(K+1) leaves double range at the zero rho = {worst}")
    w = lambda rho: rho / (rho - 1.0)
    tau = [sigma_from_zeros(ds, 1, tail_correction)] + [
        _zero_sum(ds, lambda rho, k=k: -(w(rho) ** (k + 1)) / rho**2, tail=tail_correction)
        for k in range(1, K)
    ]
    lam = [0.0] + [
        _zero_sum(ds, lambda rho, m=m: _lambda_term(rho, m), tail=tail_correction)
        for m in range(1, K + 1)
    ]
    return KeiperCoefficients(ds.function, np.array(tau, dtype=complex), np.array(lam, dtype=complex))


def inverse_square_modulus_sum(
    ds: ZeroDataset, include_real_axis: bool = True
) -> Tuple[float, float]:
    """(raw, tail_corrected) values of sum over zeros of 1/|rho|^2."""
    term = lambda rho: 1.0 / (rho * rho.conjugate())
    raw = _zero_sum(ds, term, include_real_axis)
    return raw, raw + _anchored_tail(ds, term)
