"""Bell polynomials: recurrence vs set-partition and explicit-form oracles,
series reconstruction, and the cross-function linkage residuals."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zetasums
from zetasums.bell import (
    bell_eval,
    bell_table,
    series_from_sigma,
    sigma_cross_relations,
    symmetric_sum_check,
    verify_link3,
)
from zetasums.errors import DomainError
from zetasums.special import FunctionId
from zetasums.sumrules import taylor_log_coeffs


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


def test_bell_rejects_complex_arguments():
    with pytest.raises(DomainError):
        bell_eval([1.0, 2j], 2)


def test_series_from_sigma_matches_direct_taylor(sig_der):
    # the sigma carry FFT noise in Im, which the Newton recurrence drops
    K = 50
    for f, sig in sig_der.items():
        rebuilt = series_from_sigma(sig, K)
        direct = taylor_log_coeffs(f, K)
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
    for K in (10, 13, 14, 20, 50):
        reports = verify_link3(K)
        assert len(reports) == K + 1
        for r in reports:
            assert isinstance(r.lhs_coeff, float) and isinstance(r.rhs_coeff, float)
            assert r.residual <= 1e-12 * max(1.0, abs(r.lhs_coeff))


def test_sigma_cross_relations(sig_der):
    residuals = sigma_cross_relations(
        sig_der[FunctionId.XI],
        sig_der[FunctionId.T_PLUS_TILDE],
        sig_der[FunctionId.T_MINUS_TILDE],
        K=10,
    )
    assert max(residuals) < 1e-14


def test_series_from_sigma_needs_sigma_to_order_k(sig_der):
    sig = sig_der[FunctionId.XI]
    for K in (-1, len(sig.values) + 1):
        with pytest.raises(DomainError):
            series_from_sigma(sig, K)


def test_runtime_needs_no_mpmath():
    # a blocked import raises ImportError: the library and the CLI run without
    # mpmath or scipy, tailed zero sums included
    code = """
import sys
sys.modules["mpmath"] = None
sys.modules["scipy"] = None
import zetasums.cli
from zetasums.bell import series_from_sigma, verify_link3
from zetasums.special import FunctionId, riemann_zeta
from zetasums.sumrules import sigma_from_zeros, sigma_series_derivative
from zetasums.zeros import ZeroDataset
assert len(verify_link3(40)) == 41
ds = ZeroDataset(FunctionId.XI, line=[14.134725], t_max_scanned=20.0)
assert sigma_from_zeros(ds, 1) > sigma_from_zeros(ds, 1, tail_correction=False) > 0
sig = sigma_series_derivative(FunctionId.T_MINUS_TILDE, 50)
assert len(series_from_sigma(sig, 50).coeffs) == 51
assert riemann_zeta(-1 + 400j) != 0
"""
    src = str(Path(zetasums.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
