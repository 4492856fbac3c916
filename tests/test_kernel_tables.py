"""The term tables of the kernel: the Lanczos sum and the Euler-Maclaurin
corrections are bitwise batch-invariant, and agree with the term-by-term
loops they replaced (frozen below) to rounding level."""

import math

import numpy as np
import pytest

from zetasums.special import _COLUMNS, _hurwitz_em_once, _lanczos_loggamma_right

# ---------------------------------------------------------------------------
# frozen term-by-term loops: the reference for the tables

_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
)
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS_C = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)


def _loop_lanczos(z):
    ser = np.full(z.shape, _LANCZOS_C0, dtype=complex)
    for j, c in enumerate(_LANCZOS_C, start=1):
        ser = ser + c / (z + j)
    t = z + _LANCZOS_G + 0.5
    return (z + 0.5) * np.log(t) - t + np.log(math.sqrt(2 * math.pi) * ser / z)


def _loop_em(flat, a, n_direct):
    nu = len(_BERNOULLI) - 1
    n = np.arange(n_direct, dtype=float) + a
    total = np.exp(np.multiply.outer(flat, -np.log(n))).sum(axis=1)
    b = float(n_direct) + a
    lb = math.log(b)
    bs = np.exp(-flat * lb)
    total = total + bs * b / (flat - 1.0) + 0.5 * bs
    fact = 1.0
    rising = np.ones_like(flat)
    power = bs * b
    for k in range(1, nu + 1):
        fact *= (2 * k - 1) * (2 * k)
        if k == 1:
            rising = flat.copy()
        else:
            rising = rising * (flat + (2 * k - 3)) * (flat + (2 * k - 2))
        power = power / (b * b)
        total = total + (_BERNOULLI[k - 1] / fact) * rising * power
    k = nu + 1
    fact *= (2 * k - 1) * (2 * k)
    rising = rising * (flat + (2 * k - 3)) * (flat + (2 * k - 2))
    power = power / (b * b)
    tail = np.abs((_BERNOULLI[-1] / fact) * rising * power)
    ratio = np.abs(flat + 2 * nu + 1) / np.maximum(flat.real + 2 * nu + 1, 1.0)
    return total, tail * ratio


# ---------------------------------------------------------------------------
# batch invariance


def test_lanczos_blocks_are_bitwise():
    # more points than one table holds; every point's value is the same in
    # one call and in one-point calls
    rng = np.random.default_rng(23)
    z = rng.uniform(0.25, 2.0, _COLUMNS + 276) + 1j * rng.uniform(-1260.0, 1260.0, _COLUMNS + 276)
    together = _lanczos_loggamma_right(z)
    one_by_one = [_lanczos_loggamma_right(z[i : i + 1])[0] for i in range(z.size)]
    assert all(a == b for a, b in zip(together, one_by_one))


# ---------------------------------------------------------------------------
# agreement with the loops


@pytest.mark.parametrize("a", [1.0, 0.25, 0.75])
@pytest.mark.parametrize("n_direct", [50, 400, 1260])
def test_em_tables_match_the_term_loop(n_direct, a):
    rng = np.random.default_rng([n_direct, int(4 * a)])
    s = rng.uniform(-0.5, 3.0, 400) + 1j * rng.uniform(-2520.0, 2520.0, 400)
    total, bound = _hurwitz_em_once(s, a, n_direct)
    expected, expected_bound = _loop_em(s, a, n_direct)
    assert np.all(np.abs(total - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
    # the tail bound is each entry's own
    assert np.all(np.abs(bound - expected_bound) <= 1e-13 * expected_bound)


def test_lanczos_table_matches_the_term_loop():
    # the kernel's arguments w/2 and (w+1)/2, Re w in [1/2, 3], |Im w| <= 2520
    rng = np.random.default_rng(2520)
    w = rng.uniform(0.5, 3.0, 2000) + 1j * rng.uniform(-2520.0, 2520.0, 2000)
    z = np.concatenate((w / 2.0, (w + 1.0) / 2.0))
    expected = _loop_lanczos(z)
    assert np.all(np.abs(_lanczos_loggamma_right(z) - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
