"""Kernel tests: gamma, zeta, Hurwitz zeta, the four completed functions,
their symmetries, and the additive linkage identities."""

import cmath
import math
import re
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetasums.errors import AccuracyError, DomainError, PoleError
from zetasums import special
from zetasums.special import (
    SPECS,
    FunctionId,
    TaylorJets,
    _hurwitz_em_array,
    _hurwitz_em_once,
    critical_line_form,
    critical_line_values,
    evaluate,
    gamma,
    hurwitz_zeta,
    laurent_check,
    log_gamma,
    log_xi1,
    riemann_zeta,
)
from zetasums.rhscan import _v_derivatives, u_func, v_func
from zetasums.zeros import _chunk_jets, default_grid_step

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# gamma: Stirling-series oracle and exact values


def _stirling_gamma(s: complex) -> complex:
    """Independent Stirling-series oracle, shifted for accuracy."""
    shift = 0
    z = s
    while abs(z) < 20:
        z += 1
        shift += 1
    # B_{2n} / (2n (2n-1)) for n = 1..6
    bern = [
        1.0 / 12,
        -1.0 / 360,
        1.0 / 1260,
        -1.0 / 1680,
        1.0 / 1188,
        -691.0 / 360360,
    ]
    series = sum(b / z ** (2 * k + 1) for k, b in enumerate(bern))
    lg = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series
    out = cmath.exp(lg)
    for j in range(shift):
        out /= s + j
    return out


@pytest.mark.parametrize(
    "s",
    [2.5, 7.0, 0.5 + 3.0j, -1.5 + 2.0j, 4.0 - 6.0j, 0.25, -3.3 + 0.7j],
)
def test_gamma_vs_stirling(s):
    expected = _stirling_gamma(complex(s))
    assert abs(gamma(s) - expected) <= 1e-12 * abs(expected)


def test_gamma_exact_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    for n in range(1, 10):
        assert gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-13)
    # reflection formula
    s = 0.3 + 0.4j
    lhs = gamma(s) * gamma(1 - s)
    rhs = math.pi / cmath.sin(math.pi * s)
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_gamma_pole():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)


def test_log_gamma_recurrence():
    s = 1.7 + 9.2j
    assert abs(log_gamma(s + 1) - (log_gamma(s) + cmath.log(s))) < 1e-12


# the reflection branch of log_gamma switches its form of log sin(pi z) at |Im z| = 8
@pytest.mark.parametrize(
    "s", [-0.5 + 7.9j, -0.5 + 8.1j, 0.2 + 8.1j, 0.2 - 8.1j, -1.5 - 7.9j, -2.3 + 30.0j]
)
def test_gamma_matches_mpmath_across_im_8(s):
    with mpmath.workdps(30):
        expected = complex(mpmath.gamma(s))
    assert abs(gamma(s) - expected) <= 1e-12 * abs(expected)


# L4 left of Re s = 0 takes 1/Gamma((s+1)/2), which crosses |Im| = 8 at |Im s| = 16;
# past |Im s| = 1800 that factor alone overflows a double
@pytest.mark.parametrize(
    "s",
    [-0.6 + 15.0j, -0.6 + 17.0j, -1.0 + 40.0j, -2.0 - 25.0j, -2.0 - 15.5j, -3.0 + 300.0j,
     -1.0 + 2000.0j],
)
def test_l4_matches_mpmath_across_im_16(s):
    with mpmath.workdps(30):
        expected = complex(mpmath.dirichlet(s, [0, 1, 0, -1]))
    # the phase of each log factor is ~|Im s| log|Im s| large, so its rounding grows with height
    assert abs(evaluate(FunctionId.L4, s) - expected) <= 1e-11 * abs(expected)


# ---------------------------------------------------------------------------
# zeta / Hurwitz: brute-force partial-sum oracle and exact values


def _brute_zeta(s: complex, n: int = 1_000_000) -> complex:
    k = np.arange(1, n + 1, dtype=float)
    total = np.sum(k ** (-s))
    # integral tail plus half-term correction
    return total + n ** (1 - s) / (s - 1) - 0.5 * n ** (-s)


@pytest.mark.parametrize("s", [3.0, 2.5 + 1.0j, 4.0 - 2.0j])
def test_zeta_vs_brute_force(s):
    expected = _brute_zeta(complex(s))
    assert abs(riemann_zeta(s) - expected) <= 1e-10 * abs(expected)


def test_zeta_exact_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)
    assert riemann_zeta(0.0) == pytest.approx(-0.5, rel=1e-13)
    assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-12)


def test_zeta_pole():
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


@pytest.mark.parametrize("call", [riemann_zeta, lambda s: hurwitz_zeta(s, 0.25)])
@pytest.mark.parametrize(
    "s", [complex(math.nan, 0.0), complex(0.5, math.nan), math.inf, complex(0.5, -math.inf), complex(-math.inf, 3.0)]
)
def test_zeta_refuses_a_non_finite_point_after_a_stale_overflow(call, s):
    # an earlier libm overflow leaves errno at ERANGE; abs(s - 1) at a nan
    # part then raised OverflowError("absolute value too large")
    with pytest.raises(OverflowError):
        math.exp(1000.0)
    with pytest.raises(DomainError):
        call(s)


@pytest.mark.parametrize(
    "call",
    [
        gamma,
        log_gamma,
        log_xi1,
        lambda s: log_gamma(np.array([1.5, s])),
        lambda s: log_xi1(np.array([1.5, s])),
        riemann_zeta,
        u_func,
        v_func,
        lambda s: evaluate(FunctionId.XI, s),
        lambda s: hurwitz_zeta(s, 0.25),
    ],
    ids=[
        "gamma", "log_gamma", "log_xi1", "log_gamma_array", "log_xi1_array", "riemann_zeta", "u_func", "v_func",
        "evaluate", "hurwitz_zeta",
    ],
)
@pytest.mark.parametrize("s", [complex(math.nan, 1.0), math.inf, -math.inf])
def test_kernel_entry_points_refuse_a_non_finite_point(call, s):
    # gamma(+-inf) raised OverflowError from round() in its own pole test;
    # log_gamma returned nan, and log_xi1 raised AccuracyError, each after a
    # numpy RuntimeWarning, which this suite turns into an error; so did
    # u_func and v_func at +-inf, from 2s - 1. The message names the point
    # as given: left of Re 1/2, log_xi1 and riemann_zeta named 1 - s
    with pytest.raises(DomainError, match=re.escape(f"got {complex(s)}")):
        call(s)


def test_zeta_left_of_minus_half_matches_mpmath():
    # the functional equation in logs holds at every height the datasets reach
    for sigma in (-3.0, -2.2, -1.5, -0.75, -0.51):
        for t in np.linspace(-2520.0, 2520.0, 29):
            s = complex(sigma, t)
            with mpmath.workdps(30):
                expected = complex(mpmath.zeta(s))
            assert abs(riemann_zeta(s) - expected) <= 1e-11 * abs(expected), s


def test_hurwitz_vs_brute_force():
    s, a = 3.5, 0.75
    n = 1_000_000
    k = np.arange(n, dtype=float)
    expected = np.sum((k + a) ** (-s))
    expected += (n + a) ** (1 - s) / (s - 1) - 0.5 * (n + a) ** (-s)
    assert hurwitz_zeta(s, a) == pytest.approx(expected, rel=1e-10)


def test_hurwitz_reduces_to_zeta():
    s = 2.2 + 3.0j
    assert abs(hurwitz_zeta(s, 1.0) - riemann_zeta(s)) < 1e-12


def test_hurwitz_splitting_identity():
    # zeta(s) = 2^-s [zeta(s, 1/2) + zeta(s, 1)]
    s = 1.5 + 10.0j
    lhs = riemann_zeta(s)
    rhs = 2.0 ** (-s) * (hurwitz_zeta(s, 0.5) + hurwitz_zeta(s, 1.0))
    assert abs(lhs - rhs) < 1e-11


def test_hurwitz_below_minus_half_is_a_domain_error():
    # the direct sum would cancel like N^(1 - Re s) times rounding, unseen by
    # the tail bound: it returned 0.0038404 here, mpmath gives 0.0038442
    with pytest.raises(DomainError):
        hurwitz_zeta(-5.0, 0.5)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.5])
def test_hurwitz_matches_mpmath(sigma, a):
    for t in np.linspace(-100.0, 100.0, 21):
        s = complex(sigma, t)
        with mpmath.workdps(30):
            expected = complex(mpmath.zeta(mpmath.mpc(s), a))
        assert abs(hurwitz_zeta(s, a) - expected) <= 1e-11


def test_em_tail_bound_miss_is_an_accuracy_error():
    # at s = -40 the first omitted Bernoulli term grows with the cutoff, so
    # doubling it twice cannot meet the target
    with pytest.raises(AccuracyError):
        _hurwitz_em_array(np.array([-40 + 0j]), 0.5)


def test_em_row_slabs_are_bitwise(rng):
    # 1,300 points span eight row slabs; at one cutoff every point's direct
    # sum is the same in one call and in one-point calls
    s = rng.uniform(0.5, 1.5, 1300) + 1j * rng.uniform(-700.0, 700.0, 1300)
    together = _hurwitz_em_once(s, 1.0, 400)[0]
    one_by_one = [_hurwitz_em_once(s[i : i + 1], 1.0, 400)[0][0] for i in range(s.size)]
    assert all(a == b for a, b in zip(together, one_by_one))
    # points of one ordinate |Im s| = t share one phase row of the direct
    # sum, and those below the real axis take the conjugate sum; a one-point
    # call forms its own row, and its correction tables are one column wide,
    # so a 1-ulp drift between the paths shows
    for a in (1.0, 0.25, 0.75):
        for n_direct in (50, 400, 1260):
            t = rng.uniform(n_direct, 2.0 * n_direct)  # a height the cutoff serves
            s = rng.uniform(-0.5, 3.0, 1300) + 1j * t * rng.choice([-1.0, 1.0], 1300)
            together = _hurwitz_em_once(s, a, n_direct)[0]
            one_by_one = [_hurwitz_em_once(s[i : i + 1], a, n_direct)[0][0] for i in range(s.size)]
            assert all(x == y for x, y in zip(together, one_by_one)), (a, n_direct)


def _v_stencil(s):
    """The kernel argument of one V' step at s: the 12 log_xi1 points of
    rhscan._v_derivatives, reflected into Re w >= 1/2 by _xi1_log_form, so
    that they share |Im w|; those of 2s - 1 lie below the real axis if
    Re s < 3/4."""
    seen = []

    def spy(w, a, jets=None):
        seen.append(w)
        return _hurwitz_em_array(w, a, jets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_hurwitz_em_array", spy)
        _v_derivatives(s)
    (w,) = seen
    assert np.unique(np.abs(w.imag)).size == 1
    return w


def test_direct_sum_is_bitwise_in_any_batch(rng):
    # the stencil alone takes one phase row; inside a call of mixed
    # ordinates each entry takes its own, with the same products and sums
    w = _v_stencil(complex(0.6, 500.3))
    assert (w.imag < 0).sum() == 6
    others = rng.uniform(0.5, 2.0, 40) + 1j * rng.uniform(-1100.0, 1100.0, 40)
    mixed = np.concatenate((others[:20], w, others[20:]))
    for a in (1.0, 0.25, 0.75):
        alone = _hurwitz_em_once(w, a, 600)[0]
        assert alone.tobytes() == _hurwitz_em_once(mixed, a, 600)[0][20:32].tobytes(), a
    values, bound = _hurwitz_em_once(np.zeros(0, dtype=complex), 1.0, 50)
    assert values.shape == bound.shape == (0,)
    # Im s = +-0: one shared row of zero phases, the same sum on both sides,
    # alone, together and among other ordinates, with a +0 imaginary part
    axis = np.array([2.0, 0.75, complex(2.0, -0.0), complex(0.75, -0.0)])
    for a in (1.0, 0.25):
        alone = np.array([_hurwitz_em_once(axis[i : i + 1], a, 50)[0][0] for i in range(4)])
        together = _hurwitz_em_once(axis, a, 50)[0]
        among = _hurwitz_em_once(np.append(axis, 1.0 + 3j), a, 50)[0][:4]
        assert alone.tobytes() == together.tobytes() == among.tobytes(), a
        assert alone[:2].tobytes() == alone[2:].tobytes()
        assert not np.signbit(alone.imag).any()


# The parent kernel's worst absolute error over 23 V' stencils per (t, a)
# at each height, rounded up: 1.8e-13, 2.3e-12 and 3.6e-12, from the
# rounding of the direct terms' phases, largest for a = 1/4.
_STENCIL_BOUNDS = {100.0: 2e-13, 1000.0: 2.5e-12, 2500.0: 4e-12}


@pytest.mark.parametrize("t", sorted(_STENCIL_BOUNDS))
def test_shared_ordinate_sums_match_mpmath(t):
    rng = np.random.default_rng(int(t))
    for a in (1.0, 0.25, 0.75):
        for _ in range(3):
            w = _v_stencil(complex(rng.uniform(0.5, 1.0), t / 2.0 + rng.uniform(-1.0, 1.0)))
            got = _hurwitz_em_array(w, a)
            with mpmath.workdps(30):
                exact = [complex(mpmath.zeta(mpmath.mpc(z.real, z.imag), a)) for z in w]
            assert np.max(np.abs(got - exact)) <= _STENCIL_BOUNDS[t], (a, w[0])


# mixed heights: each ordinate drawn below 40, where the cutoff rungs
# change, or anywhere to 2520; Re s in the rungs' reference region
_mixed_points = st.lists(
    st.builds(
        complex,
        st.floats(-0.5, 10.0),
        st.one_of(st.floats(-40.0, 40.0), st.floats(-2520.0, 2520.0)),
    ),
    min_size=2,
    max_size=16,
)


def _bitwise_alone(values, func, pts):
    """Entries of values whose bytes differ from func at that one point."""
    return [i for i in range(pts.size) if values[i : i + 1].tobytes() != func(pts[i : i + 1]).tobytes()]


@settings(max_examples=40, deadline=None)
@given(_mixed_points)
def test_every_value_is_bitwise_in_any_batch(pts):
    # each entry takes the cutoff of its own |Im s|, and retries on its own
    # tail bound, so no value depends on the other points of its call; the
    # points stay clear of every pole and removable point, all in {0, 1/2, 1}
    s = np.array([p for p in pts if min(abs(p), abs(p - 0.5), abs(p - 1.0)) > 1e-3])
    for a in (1.0, 0.25, 0.75):
        func = partial(_hurwitz_em_array, a=a)
        assert _bitwise_alone(func(s), func, s) == [], a
    assert _bitwise_alone(log_xi1(s), log_xi1, s) == []
    # higher up the completed functions underflow to 0, which proves nothing
    low = s[np.abs(s.imag) <= 40.0]
    for f in FunctionId:
        func = partial(evaluate, f)
        assert _bitwise_alone(func(low), func, low) == [], f


def _em_passes(s, a):
    """(cutoff, entries) of every _hurwitz_em_once call one kernel call makes."""
    calls = []

    def spy(flat, a, n_direct, jets=None):
        calls.append((n_direct, flat.size))
        return _hurwitz_em_once(flat, a, n_direct, jets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(special, "_hurwitz_em_once", spy)
        _hurwitz_em_array(s, a)
    return calls


def test_cutoffs_meet_the_tail_target_in_one_pass():
    # a grid to |Im s| = 200 with every rung edge and the points just above
    # it, over the rungs' reference region, where the rungs meet the target
    # in one pass, and so does max(50, ceil(|Im s|/2)) at Re s >= 0 (not at
    # Re s < 0 above |Im s| ~ 95, which the per-entry retry serves)
    t = np.concatenate((np.arange(0.0, 200.0, 0.25), special._RUNG_EDGES, np.nextafter(special._RUNG_EDGES, 99.0)))
    cutoffs = special._cutoffs(t)
    assert cutoffs.tolist() == [special._cutoff(x) for x in t]
    assert set(cutoffs[t <= 40.0]) == set(special._RUNGS)
    s = (np.arange(-0.5, special._RUNG_RE + 0.25, 0.5)[:, None] + 1j * t).ravel()
    s = s[(s != 1.0) & ((s.real >= 0.0) | (s.imag <= 90.0))]
    for a in (1.0, 0.25, 0.75):
        passes = _em_passes(s, a)
        assert sorted(n for n, _ in passes) == sorted(set(cutoffs)), a
        assert sum(size for _, size in passes) == s.size, a
    # a retry redoes only the entries whose own bound missed, at twice N
    assert _em_passes(np.array([-0.5 + 150j, 2.0 + 150j, 2.0 - 150j]), 1.0) == [(75, 3), (150, 1)]


# The parent kernel's worst error over 60 seeded points per a, Re s in
# [-1/2, 10] and |Im s| <= 20, at N = 50, relative to max(1, |zeta|)
# (zeta(s, 1/4) reaches 8.6e5 at Re s = 10), rounded up
_SMALL_S_BOUNDS = {1.0: 1.6e-14, 0.25: 6.3e-14, 0.75: 8.1e-14}


@pytest.mark.parametrize("a", sorted(_SMALL_S_BOUNDS))
def test_small_s_matches_mpmath(a):
    rng = np.random.default_rng([20, int(4 * a)])
    s = rng.uniform(-0.5, 10.0, 60) + 1j * rng.uniform(-20.0, 20.0, 60)
    with mpmath.workdps(30):
        exact = np.array([complex(mpmath.zeta(mpmath.mpc(z.real, z.imag), a)) for z in s])
    err = np.abs(_hurwitz_em_array(s, a) - exact) / np.maximum(1.0, np.abs(exact))
    assert np.max(err) <= _SMALL_S_BOUNDS[a]


# ---------------------------------------------------------------------------
# completed functions: values, poles, limits


def test_xi_special_values():
    # xi(0) = xi(1) = 1/2
    assert evaluate(FunctionId.XI, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert evaluate(FunctionId.XI, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_l4_value_at_one():
    # L_{-4}(1) = pi/4 (Leibniz series)
    assert evaluate(FunctionId.L4, 1.0) == pytest.approx(math.pi / 4, rel=1e-12)


def test_l4_value_at_two_catalan():
    # L_{-4}(2) is Catalan's constant
    assert evaluate(FunctionId.L4, 2.0) == pytest.approx(
        0.915965594177219015, rel=1e-12
    )


def test_xi1_pole():
    with pytest.raises(PoleError):
        evaluate(FunctionId.XI1, 1.0)


def test_t_plus_removable_point():
    # T_plus(1/2) = xi_1(1)-pole cancellation; finite limit
    val = evaluate(FunctionId.T_PLUS, 0.5)
    direct = evaluate(FunctionId.T_PLUS, 0.5 + 1e-4)
    assert val == pytest.approx(direct, rel=1e-6)


def test_laurent_check_t_plus():
    residue, _const = laurent_check(FunctionId.T_PLUS, 1.0)
    # xi_1(2s)/4 near s=1: residue (1/2)/4 = 1/8 from the argument scaling
    assert residue == pytest.approx(0.125, abs=1e-8)


# xi_1 has residues -1 and 1 at 0 and 1; T+- = (xi_1(2s) +- xi_1(2s - 1))/4
# halve them, and at 1/2 both terms of T_minus add 1/8
_RESIDUES = {
    (FunctionId.XI1, 0.0): -1.0,
    (FunctionId.XI1, 1.0): 1.0,
    (FunctionId.T_PLUS, 0.0): -0.125,
    (FunctionId.T_PLUS, 1.0): 0.125,
    (FunctionId.T_MINUS, 0.0): -0.125,
    (FunctionId.T_MINUS, 0.5): 0.25,
    (FunctionId.T_MINUS, 1.0): -0.125,
}


def test_laurent_check_at_every_declared_pole():
    assert {(f, p) for f, row in SPECS.items() for p in row.poles} == set(_RESIDUES)
    for (f, pole), residue in _RESIDUES.items():
        assert laurent_check(f, pole)[0] == pytest.approx(residue, abs=1e-14), (f, pole)


@pytest.mark.parametrize(
    "f, point",
    [(FunctionId.XI, 0.0), (FunctionId.XI, 1.0), (FunctionId.T_PLUS, 0.5), (FunctionId.T_MINUS, 2.0)],
)
def test_laurent_check_refuses_a_point_that_is_no_declared_pole(f, point):
    with pytest.raises(DomainError):
        laurent_check(f, point)


def test_completed_zeta_normalisation():
    # the pole structure of T_plus fixes the normalisation of xi_1
    r0, _ = laurent_check(FunctionId.T_PLUS, 0.0)
    r1, _ = laurent_check(FunctionId.T_PLUS, 1.0)
    assert abs(r0 + 0.125) <= 1e-9
    assert abs(r1 - 0.125) <= 1e-9
    mid = evaluate(FunctionId.T_PLUS, 0.5)
    assert abs(mid - (EULER_GAMMA - math.log(4.0 * math.pi)) / 4.0) <= 1e-9


# ---------------------------------------------------------------------------
# array evaluation: one call on many points equals one call per point

_generic_point = st.builds(complex, st.floats(-3.0, 4.0), st.floats(-20.0, 20.0))
# within 1e-4 of the removable points (and, for xi1 and T_plus/T_minus, poles)
_point_near_special = st.builds(
    lambda c, r, a: c + r * cmath.exp(1j * a),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(1e-9, 1e-4),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(FunctionId)),
    st.lists(st.one_of(_generic_point, _point_near_special), min_size=1, max_size=12),
)
def test_array_evaluation_matches_scalar(f, pts):
    s = np.array(pts)
    try:
        expected = np.array([evaluate(f, p) for p in pts])
    except PoleError:
        with pytest.raises(PoleError):
            evaluate(f, s)
        return
    values = evaluate(f, s)
    assert values.shape == s.shape
    assert np.all(np.abs(values - expected) <= 1e-14 * np.abs(expected))


@pytest.mark.parametrize(
    "f, pole",
    [
        (FunctionId.XI1, 1.0),
        (FunctionId.XI1, 0.0),
        (FunctionId.T_PLUS, 0.0),
        (FunctionId.T_MINUS, 0.5),
    ],
)
def test_array_containing_a_pole_raises(f, pole):
    with pytest.raises(PoleError):
        evaluate(f, np.array([0.3 + 2.0j, pole, 2.5 - 1.0j]))


def test_array_evaluation_keeps_shape():
    s = np.array([[0.2 + 1.0j, 3.0], [-1.5 + 0.5j, 0.5]])
    values = evaluate(FunctionId.T_MINUS_TILDE, s)
    assert values.shape == (2, 2)
    assert values[1, 1] == evaluate(FunctionId.T_MINUS_TILDE, 0.5)
    for f in FunctionId:  # L4's branches, which call each other, run on no entries
        assert evaluate(f, np.zeros(0, dtype=complex)).shape == (0,), f


# ---------------------------------------------------------------------------
# symmetries (criterion: functional equations hold to 1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-3.0, 4.0).filter(lambda x: abs(x - 0.5) > 0.05),
    st.floats(0.1, 40.0),
)
def test_xi_even_symmetry(sig, t):
    s = complex(sig, t)
    a = evaluate(FunctionId.XI, s)
    b = evaluate(FunctionId.XI, 1 - s)
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-300)


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.0, 2.0), st.floats(0.1, 20.0))
def test_t_tilde_symmetries(sig, t):
    s = complex(sig, t)
    p = evaluate(FunctionId.T_PLUS_TILDE, s)
    p2 = evaluate(FunctionId.T_PLUS_TILDE, 1 - s)
    assert abs(p - p2) <= 1e-10 * max(abs(p), 1e-300)
    # the (s - 1/2) factor and the odd T_minus flip sign together: even
    m = evaluate(FunctionId.T_MINUS_TILDE, s)
    m2 = evaluate(FunctionId.T_MINUS_TILDE, 1 - s)
    assert abs(m - m2) <= 1e-10 * max(abs(m), 1e-300)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-2.0, 3.0).filter(lambda x: abs(x - 1.0) > 0.05 and abs(x) > 0.05),
    st.floats(0.1, 20.0),
)
def test_l4_completed_even_symmetry(sig, t):
    s = complex(sig, t)
    a = evaluate(FunctionId.L4_COMPLETED, s)
    b = evaluate(FunctionId.L4_COMPLETED, 1 - s)
    assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


@settings(max_examples=20, deadline=None)
@given(st.floats(1.5, 5.0), st.floats(-20.0, 20.0))
def test_conjugation_symmetry(sig, t):
    s = complex(sig, t)
    for f in (FunctionId.XI, FunctionId.L4_COMPLETED):
        a = evaluate(f, s)
        b = evaluate(f, s.conjugate())
        assert abs(a - b.conjugate()) <= 1e-12 * max(abs(a), 1e-300)


# ---------------------------------------------------------------------------
# additive linkage identities (criterion: 1e-10 relative at random points)


def test_link_half_sum_identities(rng):
    for _ in range(50):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.3, 30.0))
        xi1_2s = cmath.exp(log_xi1(2 * s))
        xi1_2sm1 = cmath.exp(log_xi1(2 * s - 1))
        tp = evaluate(FunctionId.T_PLUS, s)
        tm = evaluate(FunctionId.T_MINUS, s)
        assert abs(xi1_2s - 2 * (tp + tm)) <= 1e-10 * abs(xi1_2s)
        assert abs(xi1_2sm1 - 2 * (tp - tm)) <= 1e-10 * abs(xi1_2sm1)


def test_link_tilde_identities(rng):
    for _ in range(50):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.1, 20.0))
        xi_2s = evaluate(FunctionId.XI, 2 * s)
        xi_2sm1 = evaluate(FunctionId.XI, 2 * s - 1)
        tpt = evaluate(FunctionId.T_PLUS_TILDE, s)
        tmt = evaluate(FunctionId.T_MINUS_TILDE, s)
        lhs3 = (1 - s) * xi_2s
        rhs3 = 4 * (tmt + (s - 0.5) * tpt)
        assert abs(lhs3 - rhs3) <= 1e-10 * max(abs(lhs3), 1e-300)
        lhs4 = s * xi_2sm1
        rhs4 = 4 * (tmt - (s - 0.5) * tpt)
        assert abs(lhs4 - rhs4) <= 1e-10 * max(abs(lhs4), 1e-300)


# ---------------------------------------------------------------------------
# critical-line real forms


def test_critical_line_form_real_and_signed():
    # the scaled forms are real and change sign across the first xi zero
    lo = critical_line_form(FunctionId.XI, 14.0)
    hi = critical_line_form(FunctionId.XI, 14.2)
    assert np.sign(lo) != np.sign(hi)


def test_critical_line_values_vectorized_consistency():
    ts = np.array([5.0, 10.0, 15.0, 20.0])
    vals = critical_line_values(FunctionId.XI, ts)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(critical_line_form(FunctionId.XI, float(t)), rel=1e-10)


@pytest.mark.parametrize(
    "f, unit",
    [(FunctionId.XI, 1), (FunctionId.T_PLUS, 1), (FunctionId.T_MINUS, 1j), (FunctionId.L4_COMPLETED, 1)],
)
def test_critical_line_values_match_evaluate(f, unit):
    # below t = 60 nothing is clamped, so the line form is the function itself
    ts = np.linspace(0.5, 60.0, 239)[1:]
    expected = (evaluate(f, 0.5 + 1j * ts) / unit).real
    assert np.all(np.abs(critical_line_values(f, ts) - expected) <= 1e-12 * np.abs(expected))


def _check_jet_values(f, t, jets, share):
    """Jet reads of f's line form at t agree with pointwise ones within
    share * max|r|, and have their signs wherever |r| exceeds that."""
    jet = critical_line_values(f, t, jets)
    point = critical_line_values(f, t)
    bound = share * np.max(np.abs(point))
    assert np.max(np.abs(jet - point)) <= bound
    big = np.abs(point) > bound
    assert np.array_equal(np.sign(jet[big]), np.sign(point[big]))


@pytest.mark.parametrize(
    "f, t0",
    [(f, t0) for f in (FunctionId.XI, FunctionId.T_PLUS, FunctionId.T_MINUS, FunctionId.L4_COMPLETED)
     for t0 in (10.0, 100.0, 1000.0)] + [(FunctionId.XI, 2500.0)],
)
def test_grid_values_match_pointwise(f, t0):
    # 500 points of the scan grid read on the jets of a scan chunk over
    # them. Measured worst 7.4e-13 max|r| (xi, t ~ 2500)
    step = default_grid_step(t0)
    t = np.arange(round(t0 / step), round(t0 / step) + 500, dtype=float) * step
    _check_jet_values(f, t, _chunk_jets(t[0], t[-1], step), 1e-12)


@pytest.mark.parametrize(
    "f, t0",
    [(f, t0) for f in (FunctionId.XI, FunctionId.T_PLUS, FunctionId.T_MINUS, FunctionId.L4_COMPLETED)
     for t0 in (10.0, 100.0, 500.0, SPECS[f].t_max - 5.0)],
)
def test_jet_values_match_pointwise(f, t0, rng):
    # 32 jets about grid cells spread over [t0, t0 + 5], read within half a
    # cell of their centres and at the cell ends. Measured worst
    # |jet - pointwise| over 150 random such windows per function: 2.1e-12
    # max|r| for xi (at t ~ 2431), 4.0e-13 for the others; the pointwise
    # sum itself errs by up to ~3e-12 absolute in zeta at t ~ 2200
    step = default_grid_step(t0 + 5.0)
    centres = np.round(np.linspace(t0, t0 + 5.0, 33)[:-1] / step) * step + 0.5 * step
    offsets = np.concatenate((rng.uniform(-0.5, 0.5, (32, 6)), [[-0.5, 0.0, 0.5]] * 32), axis=1)
    t = (centres[:, None] + step * offsets).ravel()
    _check_jet_values(f, t, TaylorJets(centres, 0.5 * step), 5e-12)


def test_jets_read_beyond_their_radius_rebuild_or_raise(monkeypatch):
    spec = SPECS[FunctionId.XI]
    centres = np.array([100.01, 100.33, 100.65])
    jets = TaylorJets(centres, 0.01)
    spec.line(centres + 0.01, jets)
    (jet,) = jets._tables.values()
    sized = jet.coeffs.shape[0]
    # a read 0.2 from its centre needs more terms than 0.01: the jets are
    # rebuilt, and the value still matches the pointwise one
    far = centres + 0.2
    point = critical_line_values(FunctionId.XI, far)
    assert np.max(np.abs(spec.line(far, jets) - point)) <= 5e-12 * np.max(np.abs(point))
    (jet,) = jets._tables.values()
    assert jet.coeffs.shape[0] > sized
    # the direct sum adds its truncation bound to the tail bound
    w = 0.5 + 1j * far
    tail = _hurwitz_em_once(w, 1.0, 51)[1]
    with_jets = _hurwitz_em_once(w, 1.0, 51, jets)[1]
    assert np.all(tail < with_jets) and np.all(with_jets <= tail + special._JET_SHARE)
    # a read that no jet of at most _JET_TERMS terms reaches raises
    with pytest.raises(AccuracyError):
        spec.line(centres + 5.0, jets)
    monkeypatch.setattr(special, "_JET_TERMS", 3)
    with pytest.raises(AccuracyError):
        spec.line(centres, TaylorJets(centres, 0.01))


def test_critical_line_no_underflow_at_large_t():
    ts = np.linspace(995.0, 1000.0, 32)
    for f in (FunctionId.T_PLUS, FunctionId.T_MINUS, FunctionId.XI):
        vals = critical_line_values(f, ts)
        assert np.all(np.isfinite(vals))
        assert np.all(vals != 0.0)
