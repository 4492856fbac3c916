"""Sum rules: two-route sigma agreement, Keiper identities, tau/lambda."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasums import sumrules
from zetasums.errors import AccuracyError, ConvergenceError, DomainError, RadiusError, ZetasumsError
from zetasums.rhscan import family_line_zeros, trace_unit_contour, u_func, v_func
from zetasums.special import (
    SPECS,
    FunctionId,
    critical_line_values,
    evaluate,
    gamma,
    hurwitz_zeta,
    log_gamma,
    log_xi1,
    riemann_zeta,
)
from zetasums.sumrules import (
    _RESOLUTION,
    SigmaSeries,
    _lambda_term,
    _log_fourier,
    crossover_select,
    inverse_square_modulus_sum,
    keiper_identity_residuals,
    quad,
    sigma_from_zeros,
    sigma_series_derivative,
    sigma_series_hybrid,
    tau_lambda_from_sigma,
    tau_lambda_from_zeros,
    taylor_log_coeffs,
    verify_sum_rule,
    zero_density,
)
from zetasums.translate import translated_sigma_series
from zetasums.zeros import ZeroDataset, scan_zeros


# ---------------------------------------------------------------------------
# toy-model oracle: four explicit zeros 1/2 +- 2i, 1/2 +- 3i


def _toy_dataset():
    return ZeroDataset(FunctionId.XI, line=[2.0, 3.0], t_max_scanned=4.0)


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


def test_zero_route_real_axis_terms_match_explicit_sums():
    # the toy zeros plus two real zeros, 3.5 and -2.5
    ds = ZeroDataset(FunctionId.XI, line=[2.0, 3.0], real=[3.5, -2.5], t_max_scanned=4.0)
    line = [0.5 + 2j, 0.5 - 2j, 0.5 + 3j, 0.5 - 3j]
    rhos = line + [3.5, -2.5]
    close = lambda got, expected: abs(got - expected) < 1e-14 * max(1.0, abs(expected))
    for m in range(1, 9):
        assert close(sigma_from_zeros(ds, m, tail_correction=False), sum(r ** (-m) for r in rhos))
    K = 8
    kz = tau_lambda_from_zeros(ds, K, tail_correction=False)
    w = lambda r: r / (r - 1.0)
    assert close(kz.tau[0], sum(1.0 / r for r in rhos))
    for k in range(1, K):
        assert close(kz.tau[k], -sum(w(r) ** (k + 1) / r**2 for r in rhos))
    for m in range(1, K + 1):
        assert close(kz.lam[m], sum(1.0 - w(r) ** m for r in rhos) / m)
    for include_real_axis, zeros in ((True, rhos), (False, line)):
        raw, _ = inverse_square_modulus_sum(ds, include_real_axis)
        assert close(raw, sum(1.0 / abs(r) ** 2 for r in zeros))


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
    n = 2 * _RESOLUTION  # the points taylor_log_coeffs samples
    # the samples, back from the memoized coefficients of log f
    samples = np.exp(np.fft.ifft(_log_fourier(f, 0j, SPECS[f].radius)) * n)
    angles = 2.0 * np.pi * np.arange(n) / n
    # off the real axis, where the mpmath forms meet Gamma poles times trivial zeros
    for k in (1, 77, 300, 700, 1000):
        s = SPECS[f].radius * complex(np.exp(1j * angles[k]))
        expected = complex(_MP_FORMS[f](mpmath.mpc(s)))
        assert abs(samples[k] - expected) <= 1e-12 * abs(expected)


# ---------------------------------------------------------------------------
# the log-Fourier memo


@pytest.fixture
def evaluate_spy(monkeypatch):
    """The function of every evaluate call taylor_log_coeffs makes, from an empty memo."""
    _log_fourier.cache_clear()
    calls = []

    def spy(f, s):
        calls.append(f)
        return evaluate(f, s)

    monkeypatch.setattr(sumrules, "evaluate", spy)
    return calls


def test_a_circle_is_sampled_once(evaluate_spy):
    first = taylor_log_coeffs(FunctionId.XI, 30)
    for K in (0, 5, 30):
        again = taylor_log_coeffs(FunctionId.XI, K)
        assert again.coeffs == first.coeffs[: K + 1]
    assert len(evaluate_spy) == 1
    # another function, centre or radius is another circle
    taylor_log_coeffs(FunctionId.L4_COMPLETED, 5)
    taylor_log_coeffs(FunctionId.XI, 5, center=0.1j)
    taylor_log_coeffs(FunctionId.XI, 5, radius=3.0)
    assert len(evaluate_spy) == 4
    # the memo is keyed on values: an int centre and radius reach the same circles
    taylor_log_coeffs(FunctionId.XI, 5, center=0, radius=3)
    assert len(evaluate_spy) == 4
    # and read the same coefficients (3**40 wrapped around in int64 powers)
    by_int = taylor_log_coeffs(FunctionId.XI, 45, radius=3)
    assert by_int.coeffs == taylor_log_coeffs(FunctionId.XI, 45, radius=3.0).coeffs


def test_a_failed_circle_is_not_memoized(evaluate_spy):
    for _ in range(2):
        with pytest.raises(DomainError):
            taylor_log_coeffs(FunctionId.XI, 5, center=complex(math.nan, 0.0))
    assert len(evaluate_spy) == 2
    # a circle refused after its samples, as its phase winds, is sampled again
    for _ in range(2):
        with pytest.raises(RadiusError):
            taylor_log_coeffs(FunctionId.XI, 5, radius=4.0, center=0.5 + 10.5j)
    assert len(evaluate_spy) == 4


def test_memoized_samples_are_read_only_and_bitwise(evaluate_spy):
    args = (FunctionId.T_PLUS_TILDE, 0.05 + 0.1j, SPECS[FunctionId.T_PLUS_TILDE].radius)
    coeffs = _log_fourier(*args)
    with pytest.raises(ValueError):
        coeffs[0] = 0.0
    assert _log_fourier(*args) is coeffs
    assert coeffs.tobytes() == _log_fourier.__wrapped__(*args).tobytes()


@pytest.mark.parametrize("radius", [0.0, -1.0, 1e-300, 1e-20, math.nan, math.inf])
def test_taylor_radius_outside_the_domain_is_a_domain_error(radius, evaluate_spy):
    # radius 0 gave nan coefficients and 1e-300 gave c_1 = 0, with no error
    with pytest.raises(DomainError):
        taylor_log_coeffs(FunctionId.XI, 5, radius=radius)
    assert evaluate_spy == []


# ---------------------------------------------------------------------------
# derivative route self-consistency


def test_taylor_log_coeffs_stable_under_radius_change():
    a = taylor_log_coeffs(FunctionId.XI, 10, radius=3.0)
    b = taylor_log_coeffs(FunctionId.XI, 10, radius=5.0)
    for k in range(1, 11):
        assert abs(a.coeffs[k] - b.coeffs[k]) < 1e-11 * max(1.0, abs(a.coeffs[k]))


def _series_log_route(f, K):
    """The log-Taylor coefficients as computed before the log-Fourier memo:
    Taylor coefficients of f by FFT on the 1,024-point circle, then the
    O(K^2) formal logarithm of the series."""
    n, r = 2 * _RESOLUTION, SPECS[f].radius
    samples = evaluate(f, r * np.exp(2j * np.pi * np.arange(n) / n))
    b = np.fft.fft(samples)[: K + 1] / n / r ** np.arange(K + 1)
    b = b / b[0]
    c = np.zeros_like(b)
    for m in range(1, K + 1):
        acc = b[m]
        for k in range(1, m):
            acc -= (k / m) * c[k] * b[m - k]
        c[m] = acc
    return c


@pytest.mark.parametrize("f", _WITH_RADIUS)
def test_log_fourier_matches_the_series_log_route(f):
    K = 10
    got = np.array(taylor_log_coeffs(f, K).coeffs)
    ref = _series_log_route(f, K)
    assert got[0] == 0.0
    assert np.all(np.abs(got[1:] - ref[1:]) <= 1e-10 * np.abs(ref[1:]))


@pytest.mark.parametrize(
    "f, center, radius",
    [
        (FunctionId.XI, 0.5 + 10.5j, 4.0),  # the zero at 1/2 + 14.13i is inside
        (FunctionId.T_MINUS_TILDE, 0.0, 3.0),  # the real zero at -2.91 is inside
    ],
)
def test_a_circle_around_a_zero_is_a_radius_error(f, center, radius):
    with pytest.raises(RadiusError):
        taylor_log_coeffs(f, 5, radius=radius, center=center)


def test_a_circle_near_a_zero_fails_the_alias_check():
    # |rho_1| = 14.144: the zero is outside, 1% from the circle
    with pytest.raises(ConvergenceError):
        taylor_log_coeffs(FunctionId.XI, 5, radius=14.0)


@pytest.mark.parametrize("K", [-1, 512])
def test_taylor_order_outside_the_circle_is_a_domain_error(K):
    with pytest.raises(DomainError):
        taylor_log_coeffs(FunctionId.XI, K)


def test_sigma_derivative_first_values_xi():
    # sigma_1 for xi is 1 + gamma/2 - ln(4 pi)/2 ~ 0.0230957
    sig = sigma_series_derivative(FunctionId.XI, 4)
    euler_gamma = 0.5772156649015328606
    expected = 1.0 + euler_gamma / 2.0 - math.log(4.0 * math.pi) / 2.0
    assert sig.sigma(1).real == pytest.approx(expected, abs=1e-12)


def test_verify_sum_rule_small_orders(ds_xi):
    rows = verify_sum_rule(FunctionId.XI, ds_xi, range(3, 7))
    for m, lhs, rhs, diff in rows:
        assert abs(diff) < 1e-15


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


def _tau_lambda_by_method_calls(sig, K):
    """The binomial sums as they read sigma before: one sig.sigma call per term."""
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
    return tau, lam


@pytest.mark.parametrize("f", _WITH_RADIUS)  # the four series forms
def test_tau_lambda_from_sigma_is_bitwise_unchanged(f, sig_der):
    K = 40
    got = tau_lambda_from_sigma(sig_der[f], K)
    tau, lam = _tau_lambda_by_method_calls(sig_der[f], K)
    assert got.tau.tobytes() == tau.tobytes()
    assert got.lam.tobytes() == lam.tobytes()


def test_tau_lambda_route_agreement_xi(ds_xi, sig_der):
    K = 30
    ks = tau_lambda_from_sigma(sig_der[FunctionId.XI], K)
    kz = tau_lambda_from_zeros(ds_xi, K)
    assert np.max(np.abs(ks.tau - kz.tau)) <= 1e-8
    assert np.max(np.abs(ks.lam - kz.lam)) <= 2e-9


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


def test_li_coefficients_past_double_range_are_an_accuracy_error(ds_tminus):
    # |x/(x-1)|^K for T_minus's real zero x = 3.91231 is 1.343^K, which
    # leaves double range near K = 2,403; K = 1000 stays finite. A
    # RuntimeWarning fails the test
    lam = tau_lambda_from_zeros(ds_tminus, 1000).lam.real
    assert np.all(np.isfinite(lam))
    # the real zero dominates: lambda_1000 ~ -(x/(x-1))^1000/1000 = -1.5693e125
    assert lam[1000] == pytest.approx(-1.5692724709521e125, rel=1e-9)
    with pytest.raises(AccuracyError, match=r"K = 2500: .* rho = \(3\.912308"):
        tau_lambda_from_zeros(ds_tminus, 2500)


def test_li_coefficients_from_zeros_past_order_100(ds_xi, ds_tminus):
    # the K <= 100 cap guarded powers of rho/(rho-1); lambda comes by expm1
    # and log1p, and |rho/(rho-1)| = 1 on the critical line. A RuntimeWarning
    # fails the test
    lam = tau_lambda_from_zeros(ds_xi, 200).lam.real
    lam_minus = tau_lambda_from_zeros(ds_tminus, 200).lam.real
    # Li's values of n lambda_n for xi
    assert 100 * lam[100] == pytest.approx(118.6037753769, rel=1e-8)
    assert 200 * lam[200] == pytest.approx(306.655764851, rel=1e-8)
    # Li's criterion sees T_minus's real zero x = 3.91231: m lambda_m grows like (x/(x-1))^m
    x = ds_tminus.real.max()
    assert x == pytest.approx(3.91231, abs=1e-5)
    assert 200 * lam_minus[200] / (199 * lam_minus[199]) == pytest.approx(x / (x - 1.0), rel=1e-9)


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


@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf, np.array([50.0, -1.0])])
def test_zero_density_refuses_an_ordinate_that_is_not_finite_and_positive(t):
    with pytest.raises(DomainError):
        zero_density(FunctionId.XI, t)


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


def _power(m):
    return lambda rho: (1.0 / rho) ** m


# (term on numpy arrays, the same term on mpmath numbers)
_TAIL_TERMS = [(_power(m), _power(m)) for m in (1, 2, 3)] + [
    (lambda rho: 1.0 / (rho * rho.conjugate()),) * 2
] + [
    (lambda rho, m=m: _lambda_term(rho, m), lambda rho, m=m: (1 - (rho / (rho - 1)) ** m) / m)
    for m in (1, 30, 300)
]


@pytest.mark.parametrize("f", [f for f, row in SPECS.items() if row.zeros and row.t_max])
def test_panel_tail_matches_mpmath(f):
    # the density integral of each zero-route term above the default height;
    # 45 digits: 1 - w^m cancels in mpmath too, and at 30 digits the m = 1
    # reference itself is off by 3e-15
    zeros, t_max = SPECS[f].zeros, SPECS[f].t_max
    mp_density = lambda t: mpmath.log(t / zeros.h_log) / zeros.h
    with mpmath.workdps(45):
        for term, mp_term in _TAIL_TERMS:
            got = quad(lambda t: 2.0 * term(0.5 + 1j * t).real * zeros.density(t), t_max)
            expected = mpmath.quad(
                lambda t: 2 * mp_term(mpmath.mpc(0.5, t)).real * mp_density(t),
                [t_max, 2 * t_max, mpmath.inf],
            )
            assert abs(got - expected) <= 1e-14 * abs(expected)


def test_inverse_square_raw_vs_direct(ds_tplus):
    raw, corrected = inverse_square_modulus_sum(ds_tplus)
    ts = ds_tplus.ordinates()
    direct = float(np.sum(2.0 / (0.25 + ts**2)))
    assert raw == pytest.approx(direct, rel=1e-12)
    assert corrected > raw  # the tail is positive


# ---------------------------------------------------------------------------
# edge inputs: a result or a package error, never a numpy or Python one

_EDGE_T = [math.nan, math.inf, -math.inf, 1e300, 2e7]
_edge_point = st.one_of(
    st.sampled_from(_EDGE_T + [complex(0.5, math.nan), complex(0.5, math.inf), 1e300j, -1e300j]),
    st.builds(complex, st.floats(-3.0, 4.0), st.floats(-20.0, 20.0)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(FunctionId)),
    st.lists(_edge_point, min_size=1, max_size=4),
    st.one_of(st.sampled_from(_EDGE_T), st.floats(0.0, 50.0)),
    st.integers(-3, 3),
    st.one_of(st.sampled_from([0.0, -1.0, 1e-300] + _EDGE_T), st.floats(0.5, 8.0)),
)
# an overflow at 1e300 left errno stale, and riemann_zeta(nan) then raised OverflowError
@example(FunctionId.XI, [math.nan, 1e300], math.nan, 0, 4.0)
def test_edge_inputs_end_in_a_result_or_a_package_error(f, pts, t, K, r):
    sigma = np.array([_toy_sigma(m) for m in range(1, 6)])
    toy = SigmaSeries(FunctionId.XI, sigma, ["exact"] * 5, 4)
    calls = [
        lambda: evaluate(f, pts[0]),
        lambda: evaluate(f, np.array(pts)),
        lambda: log_xi1(np.array(pts)),
        lambda: critical_line_values(f, t),
        lambda: critical_line_values(f, np.array([1.0, t])),
        lambda: scan_zeros(f, t, t + 1.0),
        lambda: scan_zeros(f, t + 1.0, t),
        lambda: riemann_zeta(pts[0]),
        lambda: hurwitz_zeta(pts[0], 0.25),
        lambda: gamma(pts[0]),
        lambda: log_gamma(np.array(pts)),
        lambda: u_func(np.array(pts)),
        lambda: v_func(pts[0]),
        lambda: taylor_log_coeffs(f, K, center=pts[0]),
        lambda: taylor_log_coeffs(f, K, radius=r),
        lambda: family_line_zeros(r, t),
        lambda: trace_unit_contour(t, n_points=K),
        lambda: verify_sum_rule(f, _toy_dataset(), range(K, K + 2)),
        lambda: sigma_series_hybrid(f, _toy_dataset(), K),
        lambda: tau_lambda_from_sigma(toy, K),
        lambda: tau_lambda_from_zeros(_toy_dataset(), K),
        lambda: translated_sigma_series(toy, 0.0, 1, terms=K),
        lambda: translated_sigma_series(toy, 0.1, 1, terms=K),
    ]
    for call in calls:
        try:
            with np.errstate(all="ignore"):  # inf and 1e300 overflow on the way to the error
                call()
        except ZetasumsError:
            pass
    # no hybrid series, Keiper coefficients or translated sum below order 1
    for call in calls[-5:]:
        if K < 1:
            with pytest.raises(DomainError):
                call()
    # no closed polyline of fewer than 3 points
    if K < 3:
        with pytest.raises(DomainError):
            trace_unit_contour(t, n_points=K)
