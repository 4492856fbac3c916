"""Sum rules: two-route sigma agreement, Keiper identities, tau/lambda."""

import math

import mpmath
import numpy as np
import pytest

from zetasums.special import DEFAULT_OPTIONS, SPECS, FunctionId
from zetasums.sumrules import (
    _circle_samples,
    crossover_select,
    inverse_square_modulus_sum,
    keiper_identity_residuals,
    sigma_from_zeros,
    sigma_series_derivative,
    sigma_series_hybrid,
    tau_lambda_from_sigma,
    tau_lambda_from_zeros,
    taylor_log_coeffs,
    verify_sum_rule,
    zero_density,
)
from zetasums.zeros import CRITICAL_LINE, ZeroDataset, ZeroRecord


# ---------------------------------------------------------------------------
# toy-model oracle: four explicit zeros 1/2 +- 2i, 1/2 +- 3i


def _toy_dataset():
    recs = [
        ZeroRecord(FunctionId.XI, 1, CRITICAL_LINE, 2.0, 0.0),
        ZeroRecord(FunctionId.XI, 2, CRITICAL_LINE, 3.0, 0.0),
    ]
    return ZeroDataset(FunctionId.XI, recs, t_max_scanned=4.0)


def _toy_sigma(m):
    rhos = [0.5 + 2j, 0.5 - 2j, 0.5 + 3j, 0.5 - 3j]
    return sum(r ** (-m) for r in rhos)


def test_sigma_from_zeros_matches_explicit_sum():
    ds = _toy_dataset()
    for m in range(1, 9):
        got = sigma_from_zeros(ds, m, tail_correction=False)
        assert abs(got - _toy_sigma(m)) < 1e-15


def test_tau_lambda_routes_agree_on_toy_zeros():
    ds = _toy_dataset()
    K = 8
    kz = tau_lambda_from_zeros(ds, K, tail_correction=False)
    sig_vals = np.array([_toy_sigma(m) for m in range(1, K + 2)])
    from zetasums.sumrules import SigmaSeries

    sig = SigmaSeries(FunctionId.XI, sig_vals, ["exact"] * (K + 1), 4)
    ks = tau_lambda_from_sigma(sig, K)
    assert np.max(np.abs(kz.tau - ks.tau)) < 1e-13
    assert np.max(np.abs(kz.lam - ks.lam)) < 1e-13


def test_lambda_full_plane_identity_on_toy_zeros():
    # lambda_m = (1/m) sum_rho [1 - (rho/(rho-1))^m]
    ds = _toy_dataset()
    kz = tau_lambda_from_zeros(ds, 5, tail_correction=False)
    rhos = [0.5 + 2j, 0.5 - 2j, 0.5 + 3j, 0.5 - 3j]
    for m in range(1, 6):
        expected = sum(1.0 - (r / (r - 1.0)) ** m for r in rhos) / m
        assert abs(kz.lam[m] - expected) < 1e-14


# ---------------------------------------------------------------------------
# circle samples against mpmath


def _mp_xi1(w):
    return mpmath.pi ** (-w / 2) * mpmath.gamma(w / 2) * mpmath.zeta(w)


_MP_FORMS = {
    FunctionId.XI: lambda s: s * (s - 1) / 2 * _mp_xi1(s),
    FunctionId.T_PLUS_TILDE: lambda s: s * (1 - s) * (_mp_xi1(2 * s) + _mp_xi1(2 * s - 1)) / 4,
    FunctionId.T_MINUS_TILDE: lambda s: s * (1 - s) * (s - 0.5) * (_mp_xi1(2 * s) - _mp_xi1(2 * s - 1)) / 4,
    FunctionId.L4_COMPLETED: lambda s: (
        2 ** (s - 1) * mpmath.pi ** (-(s + 1) / 2) * mpmath.gamma((s + 1) / 2)
        * mpmath.dirichlet(s, [0, 1, 0, -1])
    ),
}


_WITH_RADIUS = [f for f, row in SPECS.items() if row.radius is not None]


@pytest.mark.parametrize("f", _WITH_RADIUS)
def test_circle_samples_match_mpmath(f):
    n = 1024  # the doubled resolution taylor_log_coeffs samples by default
    samples = _circle_samples(f, 0.0, SPECS[f].radius, n, DEFAULT_OPTIONS)
    angles = 2.0 * np.pi * np.arange(n) / n
    # off the real axis, where the mpmath forms meet Gamma poles times trivial zeros
    for k in (1, 77, 300, 700, 1000):
        s = SPECS[f].radius * complex(np.exp(1j * angles[k]))
        expected = complex(_MP_FORMS[f](mpmath.mpc(s)))
        assert abs(samples[k] - expected) <= 1e-12 * abs(expected)


# ---------------------------------------------------------------------------
# derivative route self-consistency


def test_taylor_log_coeffs_stable_under_radius_change():
    a = taylor_log_coeffs(FunctionId.XI, 10, radius=3.0)
    b = taylor_log_coeffs(FunctionId.XI, 10, radius=5.0)
    for k in range(1, 11):
        assert abs(a.coeffs[k] - b.coeffs[k]) < 1e-11 * max(1.0, abs(a.coeffs[k]))


def test_sigma_derivative_first_values_xi():
    # sigma_1 for xi is 1 + gamma/2 - ln(4 pi)/2 ~ 0.0230957
    sig = sigma_series_derivative(FunctionId.XI, 4)
    euler_gamma = 0.5772156649015328606
    expected = 1.0 + euler_gamma / 2.0 - math.log(4.0 * math.pi) / 2.0
    assert sig.sigma(1).real == pytest.approx(expected, abs=1e-12)


def test_verify_sum_rule_small_orders(ds_xi):
    rows = verify_sum_rule(FunctionId.XI, ds_xi, range(3, 7))
    for m, lhs, rhs, diff in rows:
        assert abs(diff) < 1e-9


def test_crossover_and_hybrid(ds_xi):
    k_star, gap = crossover_select(FunctionId.XI, ds_xi, 10)
    assert 1 <= k_star <= 10
    sig = sigma_series_hybrid(FunctionId.XI, ds_xi, 12)
    der = sigma_series_derivative(FunctionId.XI, 12)
    # low orders come from the derivative route
    assert sig.sigma(1) == der.sigma(1)


# ---------------------------------------------------------------------------
# Keiper identities and tau/lambda at scale (full checks in acceptance)


def test_keiper_residuals_xi(sig_der):
    r1, r2, r3 = keiper_identity_residuals(sig_der[FunctionId.XI])
    assert max(r1, r2, r3) < 1e-10


def test_tau_lambda_route_agreement_xi(ds_xi, sig_der):
    K = 30
    ks = tau_lambda_from_sigma(sig_der[FunctionId.XI], K)
    kz = tau_lambda_from_zeros(ds_xi, K)
    assert np.max(np.abs(ks.tau - kz.tau)) <= 1e-8
    assert np.max(np.abs(ks.lam - kz.lam)) <= 2e-8


@pytest.mark.xfail(
    strict=True,
    reason=(
        "binomial recombination amplifies absolute sigma errors by "
        "C(30,15) ~ 1.5e8; with zero-route sigma errors ~1e-13 the "
        "two-route difference floor is ~1e-5 in double precision"
    ),
)
def test_tau_lambda_route_agreement_tplus(ds_tplus, sig_der):
    K = 30
    ks = tau_lambda_from_sigma(sig_der[FunctionId.T_PLUS_TILDE], K)
    kz = tau_lambda_from_zeros(ds_tplus, K)
    assert np.max(np.abs(ks.tau - kz.tau)) <= 1e-8


def test_lambda_positive_low_orders(sig_der):
    # Li-criterion positivity for the computed range
    for f in (FunctionId.XI, FunctionId.T_PLUS_TILDE):
        kc = tau_lambda_from_sigma(sig_der[f], 30)
        assert np.all(kc.lam[1:].real > 0)


# ---------------------------------------------------------------------------
# density and tails


def test_zero_density_matches_observed_gaps(ds_xi):
    ts = ds_xi.ordinates()
    window = (ts > 900) & (ts < 1100)
    observed_rate = window.sum() / 200.0
    assert zero_density(FunctionId.XI, 1000.0) == pytest.approx(
        observed_rate, rel=0.05
    )


@pytest.mark.parametrize("f", [f for f, row in SPECS.items() if row.zeros is not None])
@pytest.mark.parametrize("t", [50.0, 500.0, 2500.0])
def test_density_is_the_derivative_of_the_count(f, t):
    h = 1e-4 * t
    zeros = SPECS[f].zeros
    slope = (zeros.count(t + h) - zeros.count(t - h)) / (2.0 * h)
    assert zero_density(f, t) == pytest.approx(slope, rel=1e-8)


# the session dataset whose zeros are the zeros of each series form
_SERIES_DATASET = {
    FunctionId.XI: "ds_xi",
    FunctionId.T_PLUS_TILDE: "ds_tplus",
    FunctionId.T_MINUS_TILDE: "ds_tminus",
    FunctionId.L4_COMPLETED: "ds_l4",
}


@pytest.mark.parametrize("f", _WITH_RADIUS)
def test_series_radius_inside_nearest_zero(f, request):
    ds = request.getfixturevalue(_SERIES_DATASET[f])
    assert SPECS[ds.function].series is f
    nearest = min([abs(0.5 + 1j * ds.ordinates()[0])] + list(np.abs(ds.real_points())))
    assert SPECS[f].radius < nearest


def test_inverse_square_raw_vs_direct(ds_tplus):
    raw, corrected = inverse_square_modulus_sum(ds_tplus)
    ts = ds_tplus.ordinates()
    direct = float(np.sum(2.0 / (0.25 + ts**2)))
    assert raw == pytest.approx(direct, rel=1e-12)
    assert corrected > raw  # the tail is positive
