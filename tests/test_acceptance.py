"""Acceptance gate: one test (or test group) per published-results criterion.

Each criterion is asserted at its stated tolerance. Where a published
coordinate is internally inconsistent with the surrounding published values,
the literal sub-assertion is marked strict-xfail and the consistent
sub-assertions are kept; the analysis lives in the project notes.
"""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from click.testing import CliRunner

from zetasums.bell import bell_eval, verify_link3
from zetasums.cli import main as cli_main
from zetasums.errors import NonConvergenceWarning
from zetasums.rhscan import (
    find_derivative_zeros,
    condition_scan,
    lagarias_suzuki_y_star,
    u_func,
    v_func,
)
from zetasums.special import FunctionId, evaluate
from zetasums.sumrules import (
    SigmaSeries,
    inverse_square_modulus_sum,
    keiper_identity_residuals,
    sigma_series_derivative,
    tau_lambda_from_sigma,
    verify_sum_rule,
)
from zetasums.translate import (
    interlacing_report,
    ratio_identity_check,
    translated_sigma_direct,
    translated_sigma_series,
    translation_window_search,
    xi_halfshift_ordinates,
)
from zetasums.zeros import real_axis_zeros


def assert_printed(value: float, printed: str) -> None:
    """value agrees with the printed decimal to all its significant digits."""
    target = float(printed)
    tol = 0.51 * 10.0 ** Decimal(printed).as_tuple().exponent
    assert abs(value - target) <= tol, f"{value!r} != printed {printed}"


# ---------------------------------------------------------------------------
# criteria 1-4: power-sum tables, both routes, printed digits


_TABLES = {
    FunctionId.XI: ["0.0000370527", "-0.0000184068", "-1.43019e-7", "4.69061e-8"],
    FunctionId.T_PLUS_TILDE: [
        "0.000614337",
        "-0.000299036",
        "-9.63049e-6",
        "2.99816e-6",
    ],
    FunctionId.T_MINUS_TILDE: [
        "0.00838236",
        "-0.00476457",
        "0.000730707",
        "-0.000317834",
    ],
    FunctionId.L4_COMPLETED: [
        "0.000910626",
        "-0.000437344",
        "-0.000021164",
        "6.40057e-6",
    ],
}


def _check_table(f, ds, printed):
    rows = verify_sum_rule(f, ds, range(3, 7))
    for (m, lhs, rhs, _diff), want in zip(rows, printed):
        assert_printed(lhs, want)
        assert_printed(rhs, want)


def test_criterion_01_table_xi(ds_xi):
    assert len(ds_xi.ordinates()) >= 2000
    _check_table(FunctionId.XI, ds_xi, _TABLES[FunctionId.XI])


def test_criterion_02_table_tplus(ds_tplus):
    assert len(ds_tplus.ordinates()) >= 1500
    _check_table(FunctionId.T_PLUS_TILDE, ds_tplus, _TABLES[FunctionId.T_PLUS_TILDE])


def test_criterion_03_table_tminus(ds_tminus):
    assert len(ds_tminus.real_points()) == 2
    _check_table(
        FunctionId.T_MINUS_TILDE, ds_tminus, _TABLES[FunctionId.T_MINUS_TILDE]
    )


def test_criterion_04_table_l4(ds_l4):
    _check_table(
        FunctionId.L4_COMPLETED, ds_l4, _TABLES[FunctionId.L4_COMPLETED]
    )


# ---------------------------------------------------------------------------
# criterion 5: Keiper identity residuals at K=30


def test_criterion_05_keiper_identities(sig_der):
    for f, bound in (
        (FunctionId.XI, 1e-10),
        (FunctionId.T_PLUS_TILDE, 1e-10),
        (FunctionId.L4_COMPLETED, 1e-10),
        (FunctionId.T_MINUS_TILDE, 1e-9),
    ):
        s = sig_der[f]
        s30 = SigmaSeries(s.function, s.values[:30], s.method[:30], s.zeros_used)
        r1, r2, r3 = keiper_identity_residuals(s30)
        assert max(r1, r2, r3) <= bound, f


# ---------------------------------------------------------------------------
# criterion 6: tau bound for xi


def test_criterion_06_tau_bound(sig_der):
    kc = tau_lambda_from_sigma(sig_der[FunctionId.XI], 51)
    assert np.max(np.abs(kc.tau[:51])) < 0.046191479322


# ---------------------------------------------------------------------------
# criterion 7: lambda slopes (through-origin least squares; lambda_0 = 0
# exactly, and the referenced slopes reflect the low-k fit regime)


def test_criterion_07_lambda_slopes(sig_der):
    for f, ref in ((FunctionId.XI, 0.023), (FunctionId.T_PLUS_TILDE, 0.089)):
        kc = tau_lambda_from_sigma(sig_der[f], 30)
        lam = kc.lam[1:31].real
        k = np.arange(1, 31)
        slope = float(np.sum(k * lam) / np.sum(k * k))
        assert abs(slope - ref) <= 0.2 * ref, (f, slope)


# ---------------------------------------------------------------------------
# criterion 8: inverse-square modulus sums


def test_criterion_08_inverse_square(ds_tplus, ds_tminus, ds_l4):
    raw_tp, _ = inverse_square_modulus_sum(ds_tplus)
    assert abs(raw_tp - 0.182438) <= 0.001
    _, tm_with = inverse_square_modulus_sum(ds_tminus)
    assert abs(tm_with - 0.356758) <= 0.001
    _, tm_without = inverse_square_modulus_sum(ds_tminus, include_real_axis=False)
    assert abs(tm_without - 0.173522) <= 0.001
    # documented smaller-N value with tail correction (~999 zeros scanned)
    _, l4_corr = inverse_square_modulus_sum(ds_l4)
    assert abs(l4_corr - 0.1552) <= 0.001


# ---------------------------------------------------------------------------
# criterion 9: linkage coefficient table


def test_criterion_09_linkage_table():
    reports = verify_link3(5)
    printed = [
        "0.5",
        "-0.523096",
        "0.0697834",
        "-0.0486797",
        "0.00401739",
        "-0.00210626",
    ]
    for r, want in zip(reports, printed):
        assert_printed(r.lhs_coeff, want)
        assert r.residual <= 1e-12 * max(1.0, abs(r.lhs_coeff))


# ---------------------------------------------------------------------------
# criterion 10: order-2 symmetric-function constants


def test_criterion_10_symmetric_constants(sig_der):
    for f, want in (
        (FunctionId.XI, "0.0233439"),
        (FunctionId.T_PLUS_TILDE, "0.0974409"),
        (FunctionId.T_MINUS_TILDE, "-0.0050851"),
    ):
        s = sig_der[f]
        value = (s.sigma(1).real ** 2 - s.sigma(2).real) / 2.0
        assert_printed(value, want)


# ---------------------------------------------------------------------------
# criterion 11: T_minus real zeros


def test_criterion_11_real_zeros():
    xs = sorted(real_axis_zeros(FunctionId.T_MINUS))
    assert xs[1] == pytest.approx(3.91231, abs=1e-5)
    assert xs[0] == pytest.approx(-2.91231, abs=1e-5)
    assert xs[0] + xs[1] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# criterion 12: interlacing experiments


def test_criterion_12_interlacing(ds_tminus, ds_tplus, ds_xi):
    b = xi_halfshift_ordinates(ds_xi)
    between = interlacing_report(ds_tminus.ordinates(), b, "between", n_check=1500)
    expected = np.array([921, 995, 1307, 1495])
    got = np.array(between.failures)
    assert got.shape == expected.shape
    shifts = got - expected
    assert np.all(shifts == shifts[0]) and abs(int(shifts[0])) <= 1
    after = interlacing_report(ds_tplus.ordinates(), b, "after", n_check=1500)
    assert abs(len(after.failures) - 232) <= 3


def test_criterion_12_translation_window(ds_tminus, ds_xi):
    b = xi_halfshift_ordinates(ds_xi)
    lo, hi = translation_window_search(ds_tminus.ordinates(), b, n_check=1500)
    assert abs(lo - (-0.080)) <= 0.005
    assert abs(hi - (-0.036)) <= 0.005


# ---------------------------------------------------------------------------
# criterion 13: RH-scan spot checks and the 200-zero condition scan


@pytest.fixture(scope="module")
def reports_417():
    return find_derivative_zeros(416.5, 419.5)


@pytest.fixture(scope="module")
def reports_988():
    return find_derivative_zeros(986.8, 989.2)


def _nearest(reports, t):
    return min(reports, key=lambda r: abs(r.s_d.imag - t))


def test_criterion_13_spot_417(reports_417):
    r = _nearest(reports_417, 417.293)
    # reported with sigma < 1/2 in the paper; reflection-equivalent
    sigma = min(r.s_d.real, 1.0 - r.s_d.real)
    assert abs(sigma - (-0.143103)) <= 1e-3
    assert abs(r.s_d.imag - 417.293) <= 1e-3
    assert abs(r.modulus - 1.16957) <= 1e-4


def test_criterion_13_spot_418(reports_417):
    r = _nearest(reports_417, 418.49)
    sigma = min(r.s_d.real, 1.0 - r.s_d.real)
    assert abs(sigma - 0.163301) <= 1e-3
    assert abs(r.modulus - 1.01891) <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason=(
        "printed ordinate 418.4092 transposes the computed 418.49219; the "
        "printed sigma and modulus match the 418.49219 zero to 5e-5 and "
        "2e-5, and no derivative zero exists near imag 418.4092"
    ),
)
def test_criterion_13_spot_418_literal_ordinate(reports_417):
    r = _nearest(reports_417, 418.4092)
    assert abs(r.s_d.imag - 418.4092) <= 1e-3


def test_criterion_13_spot_988(reports_988):
    r1 = _nearest(reports_988, 988.611)
    assert abs(r1.modulus - 1.001357) <= 1e-4
    r2 = _nearest(reports_988, 987.373)
    assert abs(r2.modulus - 1.0808) <= 1e-4


@pytest.mark.slow
def test_criterion_13_condition_scan_first_200(ds_tplus):
    tp = ds_tplus.ordinates()
    t_hi = float((tp[199] + tp[200]) / 2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        all_met, reports = condition_scan(0.0, t_hi)
    assert all_met
    assert all(r.modulus > 1.0 for r in reports)
    assert len(reports) == 129
    # the triplets whose search finds no derivative zero, all below t = 50
    assert all(w.category is NonConvergenceWarning for w in caught)
    warned = [float(str(w.message).rsplit("= ", 1)[1]) for w in caught]
    expected = [8.35, 9.68, 11.27, 12.15, 27.15, 35.28, 35.88, 49.89]
    assert warned == pytest.approx(expected, abs=0.01)


# ---------------------------------------------------------------------------
# criterion 14: y*


def test_criterion_14_y_star():
    assert abs(lagarias_suzuki_y_star() - 7.0555) <= 1e-3


# ---------------------------------------------------------------------------
# criterion 15: zero-count consistency


def test_criterion_15_t_plus_count(ds_tplus):
    n = len(ds_tplus.ordinates())
    assert abs(n - 1517) <= 2
    t = 1000.0
    predicted = (t / math.pi) * math.log(t / math.pi) - t / math.pi
    assert abs(n - predicted) <= 3


# ---------------------------------------------------------------------------
# criterion 16: always-runnable property suites (compact representatives;
# the full suites live in the per-module test files)


def test_criterion_16_symmetries(rng):
    for _ in range(10):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.5, 25.0))
        a = evaluate(FunctionId.XI, s)
        b = evaluate(FunctionId.XI, 1 - s)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


def test_criterion_16_link_identities(rng):
    import cmath

    from zetasums.special import log_xi1

    for _ in range(10):
        s = complex(rng.uniform(-0.5, 1.5), rng.uniform(0.5, 20.0))
        xi1_2s = cmath.exp(log_xi1(2 * s))
        xi1_2sm1 = cmath.exp(log_xi1(2 * s - 1))
        tp = evaluate(FunctionId.T_PLUS, s)
        tm = evaluate(FunctionId.T_MINUS, s)
        assert abs(xi1_2s - 2 * (tp + tm)) <= 1e-10 * abs(xi1_2s)
        assert abs(xi1_2sm1 - 2 * (tp - tm)) <= 1e-10 * abs(xi1_2sm1)


def test_criterion_16_bell_exact():
    x1, x2, x3, x4 = 3.0, -2.0, 4.0, -5.0
    x = [x1, x2, x3, x4]
    assert bell_eval(x, 2) == x1**2 + x2
    assert bell_eval(x, 3) == x1**3 + 3 * x1 * x2 + x3
    assert bell_eval(x, 4) == x1**4 + 6 * x1**2 * x2 + 4 * x1 * x3 + 3 * x2**2 + x4


def test_criterion_16_translated_sigma(sig_der, rng):
    sig = sig_der[FunctionId.XI]
    for _ in range(5):
        z0 = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        m = int(rng.integers(3, 7))
        a = translated_sigma_series(sig, z0, m, terms=40).value
        b = translated_sigma_direct(FunctionId.XI, z0, m).value
        assert abs(a - b) <= 1e-9


def test_criterion_16_moebius(rng):
    for _ in range(10):
        s = complex(rng.uniform(-0.5, 1.5), rng.uniform(5.0, 100.0))
        u = u_func(s)
        v = v_func(s)
        assert abs(v - (1.0 + u) / (1.0 - u)) <= 1e-12 * max(1.0, abs(v))


def test_criterion_16_ratio_identity():
    for t, t0 in ((45.7, 0.0), (120.4, 0.03), (310.2, -0.08)):
        assert ratio_identity_check(t, t0) <= 1e-9


# ---------------------------------------------------------------------------
# CLI acceptance examples


def test_cli_sumrule_printed_row():
    runner = CliRunner()
    result = runner.invoke(cli_main, ["sumrule", "--function", "xi", "--m", "1..6"])
    assert result.exit_code == 0
    # the cells carry every digit; rounded to the paper's ten decimals both
    # routes give its printed value
    m3 = next(line for line in result.output.splitlines() if line.startswith("3,"))
    lhs, rhs = (float(cell) for cell in m3.split(",")[1:3])
    assert f"{lhs:.10f}" == f"{rhs:.10f}" == "0.0000370527"
