"""Zero finder: scanning, refinement, counts, and real-axis zeros."""

import math

import mpmath
import numpy as np
import pytest

from zetasums import special, zeros
from zetasums.errors import DomainError
from zetasums.special import FunctionId, critical_line_form, critical_line_values
from zetasums.datasets import CRITICAL_LINE, REAL_AXIS, dataset_rows
from zetasums.zeros import (
    _bracket_roots,
    count_check,
    real_axis_zeros_tminus,
    ZeroDataset,
    scan_zeros,
    with_real_axis_records,
)

# first xi zero ordinates (classical, used as a bracket oracle only through
# an independent bisection below)
FIRST_XI_T = 14.134725141734693


def _bisect_oracle(f, lo, hi, tol=1e-12):
    flo = critical_line_form(f, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = critical_line_form(f, mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_refine_matches_independent_bisection():
    (t,) = scan_zeros(FunctionId.XI, 14.0, 14.3).ordinates()
    oracle = _bisect_oracle(FunctionId.XI, 14.0, 14.3)
    assert t == pytest.approx(oracle, abs=1e-9)
    assert t == pytest.approx(FIRST_XI_T, abs=1e-9)


def test_adjacent_scans_concatenate_to_one_scan():
    # the grid is aligned to step multiples, so a scan continued from its
    # top finds what one scan over the union range finds
    low = scan_zeros(FunctionId.T_MINUS, 0.0, 60.0).ordinates()
    high = scan_zeros(FunctionId.T_MINUS, 60.0, 80.0).ordinates()
    joined = np.concatenate((low, high[high > low[-1]]))
    whole = scan_zeros(FunctionId.T_MINUS, 0.0, 80.0).ordinates()
    assert joined.shape == whole.shape
    assert np.all(np.abs(joined - whole) <= 1e-10)


def _counted(func):
    calls = []

    def wrapped(x):
        calls.append(np.size(x))
        return func(x)

    return wrapped, calls


def test_bracket_roots_exact_zero_at_endpoint():
    func, calls = _counted(lambda x: x - 0.5)
    roots = _bracket_roots(func, [0.5, 0.0], [1.0, 0.5], [0.0, -0.5], [0.5, 0.0], 1e-11)
    assert list(roots) == [0.5, 0.5]
    assert calls == []


def test_bracket_roots_exact_zero_at_probe():
    # the regula falsi point of a line is its root, where the line is exactly 0
    func, calls = _counted(lambda x: x - 0.25)
    roots = _bracket_roots(func, [0.0], [1.0], [-0.25], [0.75], 1e-11)
    assert roots[0] == 0.25
    assert len(calls) == 1


def test_bracket_roots_values_near_1e_300():
    # the product of two end values underflows to 0; only the signs count
    g = lambda x: 1e-300 * np.sin(x)
    k = np.arange(1, 4)
    a, b = k * np.pi - 0.2, k * np.pi + 0.3
    assert np.all(g(a) * g(b) == 0.0)
    roots = _bracket_roots(g, a, b, g(a), g(b), 1e-11)
    assert np.all(np.abs(roots - k * np.pi) <= 1e-11)


def test_bracket_roots_flat_crossing_within_bisection_bound():
    # sin(x)^9 is flat at its zeros, where regula falsi alone would crawl;
    # all five brackets move in lockstep, one call per step
    g = lambda x: np.sin(x) ** 9
    k = np.arange(1, 6)
    a, b = k * np.pi - 0.3 * k, k * np.pi + 1.0 / k
    func, calls = _counted(g)
    roots = _bracket_roots(func, a, b, g(a), g(b), 1e-11)
    assert np.all(np.abs(roots - k * np.pi) <= 1e-11)
    assert len(calls) <= math.ceil(math.log2(np.max(b - a) / 1e-11))


@pytest.mark.parametrize("t_hi", [math.nan, math.inf])
def test_scan_bounds_must_be_finite(t_hi):
    with pytest.raises(DomainError):
        scan_zeros(FunctionId.XI, 0.0, t_hi)


def test_scan_bounds_must_increase():
    # a reversed range used to return an empty dataset scanned to t_hi
    with pytest.raises(DomainError):
        scan_zeros(FunctionId.XI, 50.0, 10.0)
    with pytest.raises(DomainError):
        scan_zeros(FunctionId.XI, 10.0, 10.0)


def test_dataset_arrays_are_read_only_copies():
    line = np.array([2.0, 3.0])
    ds = ZeroDataset(FunctionId.XI, line=line, t_max_scanned=4.0)
    line[0] = 99.0
    assert ds.ordinates().tolist() == [2.0, 3.0]
    assert ds.ordinates() is ds.ordinates()
    for column in (ds.ordinates(), ds.real_points()):
        with pytest.raises(ValueError):
            column[:1] = 1.0


def test_dataset_fields_after_the_function_are_keywords():
    with pytest.raises(TypeError):
        ZeroDataset(FunctionId.XI, [], 30.0)
    with pytest.raises(DomainError):
        ZeroDataset(FunctionId.XI, line=[[2.0, 3.0]])


def test_real_axis_zeros_are_set_not_appended():
    ds = with_real_axis_records(scan_zeros(FunctionId.T_MINUS, 0.0, 20.0))
    twice = with_real_axis_records(ds)
    assert len(twice.real_points()) == 2
    assert twice.real_points().tolist() == real_axis_zeros_tminus().tolist()
    assert twice.ordinates().tolist() == ds.ordinates().tolist()


def test_scan_small_range_xi():
    ds = scan_zeros(FunctionId.XI, 0.0, 60.0)
    # classical ordinates below 60
    expected = [
        14.134725,
        21.022040,
        25.010858,
        30.424876,
        32.935062,
        37.586178,
        40.918719,
        43.327073,
        48.005151,
        49.773832,
        52.970321,
        56.446248,
        59.347044,
    ]
    got = ds.ordinates()
    assert len(got) == len(expected)
    assert np.allclose(got, expected, atol=2e-6)


def test_ordinates_sorted_and_indexed(ds_xi):
    ts = ds_xi.ordinates()
    assert np.all(np.diff(ts) > 0)
    cl = [r for r in dataset_rows(ds_xi) if r[2] == CRITICAL_LINE]
    assert [r[1] for r in cl] == list(range(1, len(cl) + 1))


def test_interlacing_of_t_plus_t_minus(ds_tplus, ds_tminus):
    tp = ds_tplus.ordinates()
    tm = ds_tminus.ordinates()
    n = min(len(tp), len(tm))
    merged = np.empty(2 * n)
    merged[0::2] = tp[:n]  # T_plus starts lower
    merged[1::2] = tm[:n]
    # strict alternation: the interleaved sequence must be sorted
    assert np.all(np.diff(merged) > 0)


def test_count_check_passes(ds_xi, ds_tplus, ds_tminus, ds_l4):
    for ds in (ds_xi, ds_tplus, ds_tminus, ds_l4):
        obs, pred = count_check(ds)
        assert abs(obs - pred) <= 2 + 0.05 * pred


def test_t_plus_count_to_1000(ds_tplus):
    assert len(ds_tplus.ordinates()) == 1517


def test_real_axis_zeros():
    xs = real_axis_zeros_tminus()
    assert len(xs) == 2
    hi = max(xs)
    lo = min(xs)
    assert hi == pytest.approx(3.91231, abs=1e-5)
    assert lo == pytest.approx(-2.91231, abs=1e-5)
    assert hi + lo == pytest.approx(1.0, abs=1e-9)


def test_real_axis_records_present(ds_tminus):
    ra = [r for r in dataset_rows(ds_tminus) if r[2] == REAL_AXIS]
    assert len(ra) == 2


@pytest.mark.parametrize("lo", [12.0, 997.0, 2498.0])
def test_xi_window_matches_mpmath(lo):
    ts = scan_zeros(FunctionId.XI, lo, lo + 5.0).ordinates()
    first = int(mpmath.nzeros(lo))
    assert len(ts) == int(mpmath.nzeros(lo + 5.0)) - first
    for n, t in enumerate(ts, start=first + 1):
        assert abs(t - float(mpmath.zetazero(n).imag)) <= 1e-11


def test_rounding_level_grid_end_keeps_the_mpmath_root(monkeypatch):
    # t = J h lies within rounding of a zero of xi near 2497.648, where the
    # value read on the jets of the scan's one chunk and the pointwise one
    # have opposite signs
    J, h = 249765, 0.009999993855210304
    t = np.arange(J - 100, J + 101, dtype=float) * h
    grid = critical_line_values(FunctionId.XI, t, zeros._chunk_jets(t[0], t[-1], h))
    point = critical_line_values(FunctionId.XI, t)
    assert np.sign(grid[100]) != np.sign(point[100])
    assert abs(point[100]) <= 1e-12 * np.max(np.abs(point))
    found = scan_zeros(FunctionId.XI, t[0], t[-1], h).ordinates()
    # the same scan with a pointwise grid
    monkeypatch.setattr(
        zeros, "critical_line_values", lambda f, t, jets=None: special.critical_line_values(f, t)
    )
    pointwise = scan_zeros(FunctionId.XI, t[0], t[-1], h).ordinates()
    assert found.size == pointwise.size == 2
    # the brackets start from the jet values: neither read is closer to
    # the truth, and the roots lie within the bracket width of the
    # pointwise scan's and within 1e-12 of mpmath (4.5e-13 and 9.1e-13)
    first = int(mpmath.nzeros(t[0]))
    exact = [float(mpmath.zetazero(n).imag) for n in (first + 1, first + 2)]
    assert np.max(np.abs(found - exact)) <= 1e-12
    assert np.max(np.abs(found - pointwise)) <= 1e-11


@pytest.mark.parametrize(
    "f, lo",
    [(FunctionId.XI, 100.0), (FunctionId.XI, 1000.0), (FunctionId.XI, 2495.0)]
    + [(f, lo) for f in (FunctionId.T_PLUS, FunctionId.T_MINUS, FunctionId.L4_COMPLETED) for lo in (100.0, 995.0)],
)
def test_jet_refinement_matches_pointwise_refinement(f, lo, monkeypatch):
    found = scan_zeros(f, lo, lo + 5.0).ordinates()
    # with no jets the refiner reads the line form pointwise, at each
    # call's own cutoff
    monkeypatch.setattr(zeros, "TaylorJets", lambda centres, radius: None)
    pointwise = scan_zeros(f, lo, lo + 5.0).ordinates()
    assert found.size == pointwise.size > 0
    assert np.max(np.abs(found - pointwise)) <= 1e-11


@pytest.mark.parametrize("step", [0.05, 0.1])
@pytest.mark.parametrize(
    "f, lo", [(FunctionId.T_PLUS, 990.0), (FunctionId.XI, 2490.0), (FunctionId.L4_COMPLETED, 1110.0)]
)
def test_coarse_steps_find_the_default_step_ordinates(f, lo, step):
    # the jet centres are spaced in t, not in grid points, so a coarse step
    # keeps the jets' reach; centres every 32 points of a 0.05 step would
    # need more than 48 terms for T_plus at t ~ 990
    coarse = scan_zeros(f, lo, lo + 10.0, step).ordinates()
    fine = scan_zeros(f, lo, lo + 10.0).ordinates()
    assert coarse.size == fine.size > 0
    assert np.max(np.abs(coarse - fine)) <= 1e-11


@pytest.mark.parametrize(
    "f, parameters", [(FunctionId.XI, 1), (FunctionId.T_PLUS, 1), (FunctionId.L4_COMPLETED, 2)]
)
def test_each_chunk_builds_its_jets_once(f, parameters, monkeypatch):
    # [0, 200] at step 0.02 is three chunks. The chunk read and every
    # refinement step read the same jets, and no read rebuilds them: the
    # carried cell lies within the radius of the first centre
    built, reads, line_reads = [], [], []
    build, sums = special.TaylorJets._build, special.TaylorJets.sums
    monkeypatch.setattr(special.TaylorJets, "_build", lambda jets, *a: built.append(jets) or build(jets, *a))
    monkeypatch.setattr(special.TaylorJets, "sums", lambda jets, flat, *a: reads.append(flat.size) or sums(jets, flat, *a))
    values = zeros.critical_line_values
    monkeypatch.setattr(
        zeros, "critical_line_values", lambda f, t, jets=None: line_reads.append(jets) or values(f, t, jets)
    )
    assert scan_zeros(f, 0.0, 200.0).ordinates().size > 0
    assert len(built) == 3 * parameters
    assert len({id(jets._tables) for jets in built}) == 3
    # the chunks of 4,096, 4,096 and 1,809 points are each read once on
    # their jets; every other read is a refinement step's four probes per
    # open bracket
    chunks = sorted([4096, 4096, 1809] * parameters)
    assert sorted(n for n in reads if n in chunks) == chunks
    probes = [n for n in reads if n not in chunks]
    assert probes and all(n % 4 == 0 for n in probes)
    # and no read of the line form is pointwise
    assert line_reads and all(jets is not None for jets in line_reads)


def _mpmath_form(f, t):
    """The critical-line form of f at 1/2 + it, built from mpmath alone."""
    with mpmath.workdps(30):
        if f == FunctionId.L4_COMPLETED:
            s = mpmath.mpc(0.5, t)
            gamma = mpmath.gamma((s + 1) / 2)
            return (2 ** (s - 1) * mpmath.pi ** (-(s + 1) / 2) * gamma * mpmath.dirichlet(s, [0, 1, 0, -1])).real
        w = 1 + 2j * mpmath.mpf(t)
        xi1 = mpmath.pi ** (-w / 2) * mpmath.gamma(w / 2) * mpmath.zeta(w)
        return xi1.real if f == FunctionId.T_PLUS else xi1.imag


@pytest.mark.parametrize(
    "f, lo", [(FunctionId.T_PLUS, 702.0), (FunctionId.T_MINUS, 403.0), (FunctionId.L4_COMPLETED, 1101.0)]
)
def test_ordinate_brackets_mpmath_sign_change(f, lo):
    ts = scan_zeros(f, lo, lo + 2.0).ordinates()
    t = float(ts[len(ts) // 2])
    assert _mpmath_form(f, t - 1e-9) * _mpmath_form(f, t + 1e-9) < 0
