"""Bell polynomials: recurrence vs set-partition and explicit-form oracles,
series reconstruction, and the cross-function linkage residuals."""

import math
from itertools import combinations

import numpy as np
import pytest

from zetasums.bell import (
    bell_eval,
    bell_table,
    series_from_sigma,
    sigma_cross_relations,
    symmetric_sum_check,
    verify_link3,
)
from zetasums.special import FunctionId
from zetasums.sumrules import sigma_series_derivative, taylor_log_coeffs


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _bell_by_partitions(x, n):
    """Independent oracle: sum over set partitions of {1..n} of the product
    of x_{block size} over blocks."""
    if n == 0:
        return 1.0
    total = 0.0
    for part in _set_partitions(list(range(n))):
        prod = 1.0
        for block in part:
            prod *= x[len(block) - 1]
        total += prod
    return total


@pytest.mark.parametrize("n", range(6))
def test_bell_vs_set_partition_oracle(n):
    x = [0.7, -1.3, 0.4, 2.1, -0.9]
    assert bell_eval(x, n) == pytest.approx(_bell_by_partitions(x, n), rel=1e-13)


def test_bell_explicit_forms_exact():
    # integer arguments keep every operation exact in doubles
    x1, x2, x3, x4 = 2.0, -3.0, 5.0, 7.0
    x = [x1, x2, x3, x4]
    assert bell_eval(x, 1) == x1
    assert bell_eval(x, 2) == x1**2 + x2
    assert bell_eval(x, 3) == x1**3 + 3 * x1 * x2 + x3
    assert bell_eval(x, 4) == x1**4 + 6 * x1**2 * x2 + 4 * x1 * x3 + 3 * x2**2 + x4


def test_bell_ones_gives_bell_numbers():
    # B_n at x = (1,1,...) are the Bell numbers
    x = [1.0] * 8
    assert bell_table(x, 7) == [1, 1, 2, 5, 15, 52, 203, 877]


def test_series_from_sigma_matches_direct_taylor():
    K = 8
    sig = sigma_series_derivative(FunctionId.XI, K)
    rebuilt = series_from_sigma(sig, K)
    direct = taylor_log_coeffs(FunctionId.XI, K)
    # exponentiate the log series independently via numpy polynomials
    logc = np.array(direct.coeffs[: K + 1])
    expc = np.zeros(K + 1, dtype=complex)
    expc[0] = 1.0
    for n in range(1, K + 1):
        expc[n] = sum(k * logc[k] * expc[n - k] for k in range(1, n + 1)) / n
    for k in range(K + 1):
        assert abs(rebuilt.coeffs[k] - expc[k]) < 1e-12 * max(1.0, abs(expc[k]))


def test_symmetric_sum_check(ds_xi, sig_der):
    report = symmetric_sum_check(ds_xi, sig_der[FunctionId.XI])
    assert report.residual < 1e-9


def test_verify_link3_residuals():
    reports = verify_link3(10)
    for r in reports:
        assert r.residual <= 1e-12 * max(1.0, abs(r.lhs_coeff))


def test_sigma_cross_relations(sig_der):
    residuals = sigma_cross_relations(
        sig_der[FunctionId.XI],
        sig_der[FunctionId.T_PLUS_TILDE],
        sig_der[FunctionId.T_MINUS_TILDE],
        K=10,
    )
    assert max(residuals) < 1e-10
