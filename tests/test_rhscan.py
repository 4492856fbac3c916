"""The ratio function V: Moebius consistency, zero/pole placement,
derivative zeros, the unit contour, and the asymptotic regime."""

import cmath
import math
import warnings

import numpy as np
import pytest

from zetasums import datasets, rhscan
from zetasums.errors import DomainError, NonConvergenceWarning, PoleError
from zetasums.rhscan import (
    _family_critical_line,
    _merged_triplets,
    _newton_vprime,
    _v_derivatives,
    asymptotic_check,
    condition_scan,
    family_line_zeros,
    find_derivative_zeros,
    lagarias_suzuki_y_star,
    trace_unit_contour,
    u_func,
    v_func,
)
from zetasums.special import log_xi1
from zetasums.zeros import _bracket_roots


def test_moebius_consistency(rng):
    for _ in range(100):
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(5.0, 300.0))
        u = u_func(s)
        v = v_func(s)
        expected = (1.0 + u) / (1.0 - u)
        assert abs(v - expected) <= 1e-12 * max(1.0, abs(expected))


def test_u_pure_imaginary_on_critical_line(rng):
    # |U| = 1 on the critical line; V is purely imaginary there
    for _ in range(20):
        s = complex(0.5, rng.uniform(5.0, 200.0))
        u = u_func(s)
        assert abs(abs(u) - 1.0) < 1e-10
        v = v_func(s)
        assert abs(v.real) <= 1e-10 * max(1.0, abs(v))


def test_u_func_is_one_log_xi1_call_bitwise(rng):
    s = rng.uniform(-1.0, 2.0, 200) + 1j * rng.uniform(5.0, 900.0, 200)
    for p in s:
        assert u_func(p) == np.exp(log_xi1(2 * p - 1) - log_xi1(2 * p))
    assert np.array_equal(u_func(s), np.exp(log_xi1(2 * s - 1) - log_xi1(2 * s)))


def test_zero_and_pole_placement(ds_tplus, ds_tminus):
    for t in ds_tplus.ordinates()[:5]:
        assert abs(v_func(complex(0.5, t))) < 1e-6
    for t in ds_tminus.ordinates()[:5]:
        assert abs(v_func(complex(0.5, t))) > 1e6


def test_asymptotic_regime():
    mod_err_1k, arg_err_1k = asymptotic_check(10.0, 1000.0)
    leading = math.sqrt(2.0 / 1000.0)
    assert mod_err_1k <= 0.3 * leading
    mod_err_4k, _ = asymptotic_check(10.0, 4000.0)
    assert mod_err_4k < mod_err_1k
    with pytest.raises(DomainError):
        asymptotic_check(2.0, 1000.0)


def test_derivative_zeros_near_417(rhscan_417):
    reports = rhscan_417
    # the deep off-line zero: sigma -0.143103 (or its mirror), |V| = 1.16957
    best = min(reports, key=lambda r: abs(r.s_d.imag - 417.293))
    assert abs(r_off := abs(best.s_d.real - 0.5)) == r_off  # real offset
    assert abs(best.s_d.real - 0.5) == pytest.approx(0.643103, abs=1e-3)
    assert best.s_d.imag == pytest.approx(417.293, abs=1e-3)
    assert best.modulus == pytest.approx(1.16957, abs=1e-4)


def test_reflection_symmetry(rhscan_417):
    for r in rhscan_417:
        mirror = 1.0 - r.s_d.conjugate()
        assert abs(abs(v_func(mirror)) - r.modulus) <= 1e-8


def test_triplet_kinds_alternate_labels(rhscan_417):
    for r in rhscan_417:
        assert r.triplet_kind in ("ZPZ", "PZP")
        assert r.condition_met


def test_v_pole_names_the_point(monkeypatch):
    s = np.array([0.5 + 10j, 0.7 + 10j, 0.9 + 10j])
    monkeypatch.setattr(rhscan, "u_func", lambda w: np.where(w == s[1], 1.0 + 0j, 0.5 + 0j))
    with pytest.raises(PoleError, match=r"pole at s=\(0\.7\+10j\) \(U = 1\)$"):
        v_func(s)
    with pytest.raises(PoleError, match=r"pole at s=\(0\.7\+10j\) \(U = 1\)$"):
        v_func(s[1])


def _v_derivative_nested(s, order):
    # the nested central differences the search used before: V' from one
    # v_func call on 2 points, V'' from another on 4
    if order == 0:
        return v_func(s)
    hs = 1e-5 * np.maximum(1.0, np.abs(s))
    inner = _v_derivative_nested(np.concatenate((s + hs, s - hs)), order - 1)
    return (inner[: s.size] - inner[s.size :]) / (2.0 * hs)


def test_v_derivatives_match_the_nested_differences(rng):
    s = rng.uniform(-0.5, 1.5, 200) + 1j * rng.uniform(5.0, 1000.0, 200)
    for p in s:
        first, second = (complex(_v_derivative_nested(np.array([p]), k)[0]) for k in (1, 2))
        assert _v_derivatives(p) == (first, second)


def test_newton_stays_in_box(ds_tplus, ds_tminus, monkeypatch):
    # a search that wandered to |Im s| ~ 5e5 made every kernel call there cost
    # ~5e5 terms; searches now stay within 20 of their seeds' ordinates
    seen = []

    def spy(w):
        seen.append((np.size(w), float(np.max(np.abs(np.imag(w)), initial=0.0))))
        return log_xi1(w)

    monkeypatch.setattr(rhscan, "log_xi1", spy)
    reports = find_derivative_zeros(191.5, 192.0)
    assert len(reports) == 1
    assert max(im for _, im in seen) <= 2.0 * (192.0 + 20.0) + 1.0
    # one call of 12 points per Newton trial (V' and V'' together), and one
    # of 2 points for each report's modulus
    sizes = [size for size, _ in seen]
    assert sizes.count(2) == len(reports)
    assert sizes.count(12) == len(sizes) - len(reports)
    assert len(seen) < 150  # 242 with separate V' and V'' calls; 2,214 unbounded


@pytest.mark.parametrize(
    "window, s_d, modulus, ordinals",
    [
        ((191.5, 192.0), 1.1343939289 + 191.9029744168j, 1.1441120748, (381, 382, 383)),
        ((432.0, 432.5), 1.1278835848 + 432.3500166000j, 1.0923054136, (1081, 1082, 1083)),
        ((858.5, 859.0), 1.2771226500 + 858.5387444510j, 1.0744340936, (2521, 2522, 2523)),
    ],
    ids=["191.5", "432.0", "858.5"],
)
def test_derivative_zeros_pinned(ds_tplus, ds_tminus, window, s_d, modulus, ordinals):
    (r,) = find_derivative_zeros(*window)
    assert abs(r.s_d - s_d) <= 1e-8
    assert r.modulus == pytest.approx(modulus, abs=1e-10)
    assert r.anchor_ordinals == ordinals


@pytest.mark.parametrize(
    "window, s_d, modulus, ordinals",
    [
        # both triplets' searches reach the one zero, reported once
        ((47.5, 48.0), 0.9554994277 + 47.6380321696j, 1.2851430390, (53, 54, 55)),
        # the zero goes under the triplet nearest to it, not the one whose search found it first
        ((156.5, 157.0), 1.2767179800 + 156.7548947134j, 1.2242509690, (292, 293, 294)),
        # one triplet's search fails, and its neighbour's zero covers it: no warning
        ((106.5, 107.0), 1.0035997760 + 106.9753082207j, 1.2046581945, (173, 174, 175)),
    ],
    ids=["shared", "nearest", "covered"],
)
def test_one_report_for_two_triplets(ds_tplus, ds_tminus, window, s_d, modulus, ordinals):
    assert len(rhscan._merged_triplets(*window)) == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (r,) = find_derivative_zeros(*window)
    assert caught == []
    assert abs(r.s_d - s_d) <= 1e-8
    assert r.modulus == pytest.approx(modulus, abs=1e-10)
    assert r.anchor_ordinals == ordinals


@pytest.mark.parametrize("window", [(124.5, 125.0), (12.0, 12.5)], ids=["124.5", "12.0"])
def test_derivative_zeros_pinned_warning_windows(ds_tplus, ds_tminus, window):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert find_derivative_zeros(*window) == []
    assert [w.category for w in caught] == [NonConvergenceWarning]


@pytest.fixture(scope="module")
def rhscan_417():
    return find_derivative_zeros(416.5, 419.5)


@pytest.fixture(scope="module")
def contour_518(ds_tplus):
    t_center = float(ds_tplus.ordinates()[517])
    return trace_unit_contour(t_center, n_points=48)


def test_contour_closed_and_on_level(contour_518):
    c = contour_518
    assert c.closed
    for p in c.points:
        assert abs(abs(v_func(p)) - 1.0) <= 1e-3


def test_contour_crosses_line_at_plus_minus_i(contour_518):
    # the two critical-line crossings carry V = +-i
    on_line = [p for p in contour_518.points if abs(p.real - 0.5) < 1e-9]
    assert len(on_line) == 2
    vals = sorted(v_func(p).imag for p in on_line)
    assert vals[0] == pytest.approx(-1.0, abs=1e-6)
    assert vals[1] == pytest.approx(1.0, abs=1e-6)
    for p in on_line:
        assert abs(v_func(p).real) < 1e-6


def test_contour_winding_is_one(contour_518):
    args = np.unwrap([cmath.phase(v_func(p)) for p in contour_518.points])
    closure = args[-1] - args[0] + (args[1] - args[0])
    assert closure == pytest.approx(2.0 * math.pi, rel=1e-2)


def test_contour_u_imaginary_moebius_correct(contour_518):
    # |V| = 1 <=> U on the imaginary axis; near the U-pole the well-posed
    # statement is smallness of Re(1/U)
    for p in contour_518.points:
        u = u_func(p)
        if abs(u) <= 1.0:
            assert abs(u.real) <= 1e-6
        else:
            assert abs((1.0 / u).real) <= 1e-6


def test_contour_passes_through_u_zero_and_pole(contour_518):
    # a zero of U (V = 1) and a pole of U (V = -1) lie on the curve
    vs = [v_func(p) for p in contour_518.points]
    assert min(abs(v - 1.0) for v in vs) < 0.2
    assert min(abs(v + 1.0) for v in vs) < 0.2


@pytest.mark.parametrize("y", [6.0, 7.0, 7.1])
def test_family_line_zeros_match_scalar_grid(y):
    # the reference evaluates the grid one point at a time
    ts = np.geomspace(1e-6, 1.5, 400)
    vals = [_family_critical_line(float(t), y) for t in ts]
    func = lambda t: _family_critical_line(t, y)
    expected = [
        float(_bracket_roots(func, [ts[i]], [ts[i + 1]], [vals[i]], [vals[i + 1]], 1e-8)[0])
        for i in range(len(ts) - 1)
        if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0
    ]
    assert family_line_zeros(y, 1.5) == expected
    assert len(expected) == (1 if y < 7.0555 else 0)  # the pair collides at y* ~ 7.0555


Y_STAR = 4.0 * math.pi * math.exp(-np.euler_gamma)  # 7.055507955448182


@pytest.mark.parametrize("resolution", [1e-2, 1e-3, 1e-4])
def test_y_star_within_its_resolution(resolution):
    assert abs(lagarias_suzuki_y_star(resolution) - Y_STAR) <= resolution


@pytest.mark.parametrize("resolution", [1e-8, 1e-12])
def test_y_star_to_the_rounding_of_its_phase(resolution):
    # arg xi_1(1 + 2e-6 i) errs by 1.3e-16, which moves the root in y by
    # 8.9e-10, and the cosine's argument rounds by up to 1.1e-16 more;
    # 1.13e-9 and 5.4e-10 measured
    assert abs(lagarias_suzuki_y_star(resolution) - Y_STAR) <= 2e-9


@pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, math.inf])
def test_y_star_refuses_a_bad_resolution(resolution, monkeypatch):
    # a resolution <= 0 used to bisect forever, and nan returned 7.0 unchecked;
    # both are refused before the family is evaluated at all
    def unreachable(w):
        raise AssertionError("the family was evaluated")

    monkeypatch.setattr(rhscan, "log_xi1", unreachable)
    with pytest.raises(DomainError):
        lagarias_suzuki_y_star(resolution)


def test_y_star_evaluates_xi1_once(monkeypatch):
    # one one-point log_xi1 call per search, at the family grid's first
    # ordinate, and no cache: a second search calls it again
    calls = []

    def spy(w):
        calls.append(np.asarray(w).tolist())
        return log_xi1(w)

    monkeypatch.setattr(rhscan, "log_xi1", spy)
    lagarias_suzuki_y_star(1e-4)
    lagarias_suzuki_y_star(1e-3)
    assert calls == [complex(1.0, 2.0 * rhscan._T0)] * 2


@pytest.mark.parametrize(
    "y, t_hi",
    [(0.0, 1.5), (-1.0, 1.5), (math.nan, 1.5), (math.inf, 1.5),
     (7.0, -1.0), (7.0, 1e-6), (7.0, math.nan), (7.0, math.inf)],
)
def test_family_line_zeros_refuses_bad_arguments(y, t_hi):
    # y <= 0 raised a builtin ValueError, y = nan returned [] and t_hi = -1
    # a DomainError about a nan |Im s|
    with pytest.raises(DomainError):
        family_line_zeros(y, t_hi)


def test_y_star_below_the_float_spacing_returns():
    # past adjacent doubles the midpoint equals an end; a bisection used to
    # spin there. A subnormal resolution must not overflow the solver's
    # step count (width / tol is inf)
    for resolution in (1e-20, 5e-324):
        assert abs(lagarias_suzuki_y_star(resolution) - Y_STAR) <= 1e-9


def test_derivative_zero_bounds_must_be_finite():
    with pytest.raises(DomainError):
        find_derivative_zeros(math.nan, 420.0)
    # a reversed or empty range has no triplets; the condition is not met over nothing
    for bounds in [(420.0, 410.0), (410.0, 410.0)]:
        with pytest.raises(DomainError):
            condition_scan(*bounds)
        with pytest.raises(DomainError):
            find_derivative_zeros(*bounds)


def test_newton_commutes_with_the_reflection(ds_tplus, ds_tminus):
    # V'(1 - conj s) = conj V'(s), so the search from 1/2 - off + it is the
    # mirror image of the one from 1/2 + off + it: the seed ladder keeps only
    # the right-hand seeds. Both pass the band and centroid filters, or neither.
    triplets = _merged_triplets(10.0, 990.0)
    picks = np.random.default_rng(33).choice(len(triplets), 20, replace=False)
    for n, i in enumerate(picks):
        _, _, ts, centroid_t = triplets[i]
        off = (0.15, 0.3, 0.6, 0.05)[n % 4]
        right = _newton_vprime(complex(0.5 + off, centroid_t))
        left = _newton_vprime(complex(0.5 - off, centroid_t))

        def kept(s_d):
            return (
                s_d is not None
                and abs(s_d.imag - centroid_t) <= 1.5 * (ts[2] - ts[0])
                and abs(s_d.real - 0.5) <= 1.0
            )

        assert kept(right) == kept(left), (centroid_t, off, right, left)
        if kept(right):
            assert abs(left - (1.0 - right.conjugate())) <= 1e-9



def test_merged_triplets_reuse_the_dataset_reads(ds_tplus, ds_tminus, monkeypatch):
    loads = []
    real = datasets.load_dataset
    monkeypatch.setattr(datasets, "load_dataset", lambda p: loads.append(p) or real(p))
    first = _merged_triplets(600.0, 600.5)
    n = len(loads)
    assert _merged_triplets(600.0, 600.5) == first
    assert len(loads) == n <= 2
