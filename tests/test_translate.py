"""Translated sigma sums, interlacing experiments, and the shifted-ratio
identity."""

import numpy as np
import pytest

from zetasums.errors import (
    ConvergenceError,
    DomainError,
    EmptyWindowError,
    RadiusError,
    RangeMismatchError,
)
from zetasums.special import FunctionId
from zetasums.sumrules import SigmaSeries, sigma_series_derivative
from zetasums.translate import (
    interlacing_report,
    ratio_identity_check,
    translated_sigma_direct,
    translated_sigma_series,
    translation_window_search,
    xi_halfshift_ordinates,
)


@pytest.fixture(scope="module")
def sig_xi():
    return sigma_series_derivative(FunctionId.XI, 50)


@pytest.fixture(scope="module")
def sig_tp():
    return sigma_series_derivative(FunctionId.T_PLUS_TILDE, 50)


def test_identity_translation(sig_xi):
    for m in range(1, 6):
        got = translated_sigma_series(sig_xi, 0.0, m, terms=40).value
        assert got == sig_xi.sigma(m)


def test_route_agreement_random_points(sig_xi, sig_tp, rng):
    # 20 random (z0, m) with |z0| <= 0.3, for xi and the T_plus tilde form
    for sig, f in (
        (sig_xi, FunctionId.XI),
        (sig_tp, FunctionId.T_PLUS_TILDE),
    ):
        for _ in range(10):
            z0 = complex(rng.uniform(-0.21, 0.21), rng.uniform(-0.21, 0.21))
            m = int(rng.integers(3, 9))
            a = translated_sigma_series(sig, z0, m, terms=40).value
            b = translated_sigma_direct(f, z0, m).value
            assert abs(a - b) <= 1e-9


def test_conjugation_symmetry(sig_xi):
    z0 = 0.1 + 0.07j
    a = translated_sigma_series(sig_xi, z0, 4, terms=40).value
    b = translated_sigma_series(sig_xi, z0.conjugate(), 4, terms=40).value
    assert abs(a - b.conjugate()) < 1e-15


def test_imaginary_center_gives_complex_value(sig_xi):
    v = translated_sigma_series(sig_xi, 0.05j, 3, terms=40).value
    assert abs(v.imag) > 0


def test_convergence_error_outside_radius(sig_xi):
    # |z0| far beyond the safe disc: binomial terms grow
    with pytest.raises(ConvergenceError):
        translated_sigma_series(sig_xi, 12.0, 3, terms=40)


def test_convergence_error_when_the_terms_overflow(sig_xi):
    # z0^p overflows to a nan term, which no comparison of sizes used to catch
    with pytest.raises(ConvergenceError):
        translated_sigma_series(sig_xi, 1e300j, 1, terms=2)


def _series(values):
    return SigmaSeries(FunctionId.XI, np.asarray(values, dtype=complex))


def test_a_last_term_at_the_noise_floor_is_kept():
    # terms 1, 5e-21, 2.5e-31, 2.5e-31: the last does not fall, but it is
    # far below the rounding of the sum
    got = translated_sigma_series(_series([1.0, 1e-20, 1e-30, 2e-30]), 0.5, 1, terms=3)
    assert got.value == 1.0


@pytest.mark.parametrize(
    "values, z0",
    [
        ([1.0, 1.0, 1.0, 1.0], 2.0),  # terms 1, 2, 4, 8
        ([1.0, 1e-10, 4e-9, 1.6e-8], 0.5),  # a rise at 1e-9 of the sum is not noise
        ([1.0, 1.0, 1.0, float("nan")], 0.5),
        ([1.0, 1.0, 1.0, 1e308], 1e10),  # an infinite last term
    ],
)
def test_a_growing_or_nan_tail_still_raises(values, z0):
    with pytest.raises(ConvergenceError):
        translated_sigma_series(_series(values), z0, 1, terms=3)


def test_interlacing_degenerate_identical_sequences():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    report = interlacing_report(a, a, "between")
    # every interval fails: the b ordinate coincides with an endpoint
    assert report.failures == [1, 2, 3]


def test_interlacing_range_mismatch():
    with pytest.raises(RangeMismatchError):
        interlacing_report(np.arange(10.0), np.arange(3.0), "after", n_check=10)


def test_interlacing_between_failures(ds_tminus, ds_xi):
    b = xi_halfshift_ordinates(ds_xi)
    report = interlacing_report(ds_tminus.ordinates(), b, "between", n_check=1500)
    assert report.failures == [921, 995, 1307, 1495]


def test_interlacing_after_count(ds_tplus, ds_xi):
    b = xi_halfshift_ordinates(ds_xi)
    report = interlacing_report(ds_tplus.ordinates(), b, "after", n_check=1500)
    assert abs(len(report.failures) - 232) <= 3
    assert report.failure_fraction == pytest.approx(0.155, abs=0.005)


def test_window_monotone_in_dataset_size(ds_tminus, ds_xi):
    b = xi_halfshift_ordinates(ds_xi)
    a = ds_tminus.ordinates()
    lo_1500, hi_1500 = translation_window_search(a, b, n_check=1500)
    lo_1000, hi_1000 = translation_window_search(a, b, n_check=1000)
    assert lo_1000 <= lo_1500 and hi_1500 <= hi_1000


def test_window_empty_when_impossible():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([10.0, 20.0, 30.0])
    with pytest.raises((EmptyWindowError, RangeMismatchError)):
        translation_window_search(a, b)


@pytest.mark.parametrize(
    "pair, mode, n, window, outside",
    [
        ("tminus", "between", 1500, (-0.0799726, -0.0312213), (1496, 1495)),
        ("tminus", "between", 1000, (-0.0867280, -0.0139881), (922, 995)),
        ("tplus", "after", 1500, (0.1143141, np.inf), (871, None)),
    ],
)
def test_window_is_exact(ds_tminus, ds_tplus, ds_xi, pair, mode, n, window, outside):
    # the closed form against the report: no failure inside each finite end
    # by 1e-9, one failure outside it
    a = (ds_tminus if pair == "tminus" else ds_tplus).ordinates()
    b = xi_halfshift_ordinates(ds_xi)
    lo, hi = translation_window_search(a, b, mode, n_check=n)
    assert lo == pytest.approx(window[0], abs=1e-7)
    assert hi == pytest.approx(window[1], abs=1e-7)
    for end, sign, ordinal in ((lo, 1, outside[0]), (hi, -1, outside[1])):
        if np.isfinite(end):
            assert interlacing_report(a, b, mode, end + sign * 1e-9, n).failures == []
            assert interlacing_report(a, b, mode, end - sign * 1e-9, n).failures == [ordinal]


def test_window_of_no_ordinals_is_every_shift():
    assert translation_window_search(np.arange(3.0), np.arange(3.0), n_check=0) == (-np.inf, np.inf)


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
def test_interlacing_shift_must_be_finite(t0):
    with pytest.raises(DomainError):
        interlacing_report(np.arange(3.0), np.arange(3.0), "after", t0=t0)


def test_ratio_identity_spot_values():
    # residual <= 1e-9 away from T_minus zeros
    assert ratio_identity_check(100.0, 0.0) <= 1e-9
    assert ratio_identity_check(500.3, -0.05) <= 1e-9


@pytest.mark.parametrize("t,t0", [(14.2, 0.02), (33.7, -0.1), (250.0, 0.15)])
def test_ratio_identity_random_points(t, t0):
    assert ratio_identity_check(t, t0) <= 1e-9


def test_direct_route_refuses_a_circle_around_a_zero():
    # the zero at 1/2 + 14.13i lies inside the radius-4 circle about 1/2 + 10.5i;
    # the formal series log used to answer 0.0058567 here
    with pytest.raises(RadiusError):
        translated_sigma_direct(FunctionId.XI, 0.5 + 10.5j, 4)
