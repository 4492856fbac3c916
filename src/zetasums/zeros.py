"""Zero location on the critical line and the real axis.

Zeros are found as sign changes of the rescaled critical-line real form on
a grid, refined together by one bracketed solver (Illinois steps with a
bisection point at every step, one array call per step, started at an
inverse cubic through the grid values and ended at a regula falsi point),
and returned as datasets of read-only arrays. Each chunk of the grid has
one table of Taylor jets of its Euler-Maclaurin direct sums
(special.TaylorJets), built once: the chunk's grid points and its
refiner's probes are all read on it, each at the cost of a Horner sum,
not N complex exps. A scan makes no pointwise read of the line form.
T_plus and T_minus share one complex line form, and scan_zero_sets finds
both sets in one scan: one read per chunk, each set refining its part.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DomainError, MissedZeroWarning
from .special import SPECS, FunctionId, TaylorJets, evaluate

_CHUNK = 4096
# Spacing in t of a chunk's jet centres, in grid steps of at most 0.02: a
# step of 0.01 puts a centre on every 32nd point, and a coarser step keeps
# the jets' reach, and so their number of terms, that of 0.02.
_CENTRE_STEPS = 32
# Half-width of the first probes about a bracket's inverse-cubic start. Over
# xi, T+ and l4c scans the start errs by 3e-8 to 1.2e-6 in the median and by
# 2e-7 to 4.5e-6 at p90, so most first steps close a bracket to 3e-6.
_SPREAD = 3e-6


@dataclass(frozen=True, eq=False)
class ZeroDataset:
    """The zeros of one function, as read-only float arrays.

    line holds the critical-line ordinates t, increasing, each standing for
    the pair 1/2 +- it; real holds the real-axis zeros x. Both arrays are
    copied once, so a caller's later edits do not reach the dataset.
    """

    function: FunctionId
    _: KW_ONLY
    line: np.ndarray = ()
    real: np.ndarray = ()
    t_max_scanned: float = 0.0
    generator_metadata: str = ""

    def __post_init__(self):
        for name in ("line", "real"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.line.ndim != 1 or self.real.ndim != 1:
            raise DomainError("need two 1-d arrays of zeros")

    def ordinates(self) -> np.ndarray:
        """Critical-line ordinates t, in increasing order."""
        return self.line

    def real_points(self) -> np.ndarray:
        return self.real

    def __len__(self) -> int:
        return self.line.size + self.real.size


def default_grid_step(t_hi: float) -> float:
    """0.02 up to t=1200, 0.01 above (mean zero gap shrinks like 1/log t)."""
    return 0.02 if t_hi <= 1200.0 else 0.01


def _sign_changes(v: np.ndarray) -> np.ndarray:
    """Indices i where v[i] and v[i + 1] have strictly opposite signs.

    A product of signs, not of values: rescaled critical-line values can be
    ~1e-300 and their product would underflow to zero.
    """
    return np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)[0]


def _chunk_jets(first: float, last: float, grid_step: float) -> TaylorJets:
    """The jets of a scan chunk from first to last: centres every
    _CENTRE_STEPS * min(grid_step, 0.02) in t from first, radius half that."""
    spacing = _CENTRE_STEPS * min(grid_step, 0.02)
    return TaylorJets(first + spacing * np.arange(round((last - first) / spacing) + 1), 0.5 * spacing)


def _bracket_roots(func, a, b, fa, fb, tol: float, guess=None, spread: float = 0.0) -> np.ndarray:
    """Roots of func in the brackets [a[i], b[i]], all refined in lockstep.

    func maps a float array to a float array; fa and fb are its values at
    the bracket ends, of strictly opposite signs (a value of exactly 0 is a
    root). Each step makes one call of func at four probes per open
    bracket: the Illinois (modified regula falsi) point x, x -+ tol/2
    clamped to the bracket, and the bracket midpoint. The pair around x
    closes the bracket to width <= tol as soon as x is that close to the
    root; the midpoint halves it at every step, so a bracket of width w
    closes within ceil(log2(w / tol)) steps. guess: None, or a start
    inside each bracket, which the first step probes in place of x, with
    guess -+ spread in place of x -+ tol/2. Returns the regula falsi point
    of each closed bracket on the true values at its ends (the Illinois
    weights halve them), or the probe where func is exactly 0.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    va, vb = np.array(fa, dtype=float), np.array(fb, dtype=float)  # func at the ends
    wa, wb = va.copy(), vb.copy()  # the Illinois weights
    roots = np.where(va == 0.0, a, np.where(vb == 0.0, b, np.nan))
    a_pos = va > 0.0  # the sign of func at the a end of each bracket
    kept = np.zeros(a.shape, dtype=int)  # end the last step kept: -1 a, 1 b
    width = float(np.max(b - a, initial=tol))
    # two logs: width / tol overflows for a subnormal tol
    for step in range(max(math.ceil(math.log2(width) - math.log2(tol)), 0)):
        live = np.nonzero(np.isnan(roots) & (b - a > tol))[0]
        if live.size == 0:
            break
        la, lb, lwa, lwb = a[live], b[live], wa[live], wb[live]
        mid = 0.5 * (la + lb)
        if step == 0 and guess is not None:
            x, half = np.asarray(guess, dtype=float)[live], spread
        else:
            x, half = la + (lb - la) * (lwa / (lwa - lwb)), 0.5 * tol
        x = np.where((la < x) & (x < lb), x, mid)
        probes = np.stack((x - half, x, x + half, mid), axis=1)
        probes = np.sort(probes.clip(la[:, None], lb[:, None]), axis=1)
        values = func(probes.ravel()).reshape(probes.shape)
        zero = values == 0.0
        hit = zero.any(axis=1)
        roots[live[hit]] = probes[hit, zero[hit].argmax(axis=1)]
        # the new bracket ends at the first column whose sign differs from a's
        cols = np.concatenate((la[:, None], probes, lb[:, None]), axis=1)
        vals = np.concatenate((va[live, None], values, vb[live, None]), axis=1)
        flip = (vals[:, 1:] > 0.0) != a_pos[live, None]
        flip[:, -1] = True
        j = flip.argmax(axis=1) + 1
        last = cols.shape[1] - 1
        rows = np.arange(live.size)
        a[live], b[live] = cols[rows, j - 1], cols[rows, j]
        va[live], vb[live] = vals[rows, j - 1], vals[rows, j]
        # Illinois: an end kept twice running has its weight halved
        wa[live] = np.where(j == 1, lwa * np.where(kept[live] == -1, 0.5, 1.0), va[live])
        wb[live] = np.where(j == last, lwb * np.where(kept[live] == 1, 0.5, 1.0), vb[live])
        kept[live] = np.where(j == 1, -1, np.where(j == last, 1, 0))
    return np.where(np.isnan(roots), a + (b - a) * (va / (va - vb)), roots)


def _inverse_cubic(t: np.ndarray, v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """A start for the root in each cell [t[i], t[i + 1]] of a sign change:
    the inverse cubic through the grid points i - 1 .. i + 2 at v = 0, or
    the secant of the cell where those points are missing or the cubic's
    root leaves the cell."""
    k = np.clip(i[:, None] + np.arange(-1, 3), 0, v.size - 1)
    x, y = t[k] - t[i, None], v[k]
    with np.errstate(all="ignore"):  # a repeated value leaves the cell
        secant = x[:, 2] * (y[:, 1] / (y[:, 1] - y[:, 2]))
        # Lagrange weights at 0: the product over l != j of y_l / (y_l - y_j)
        ratio = y[:, None, :] / (y[:, None, :] - y[:, :, None])
        ratio[:, np.arange(4), np.arange(4)] = 1.0
        cubic = np.sum(np.prod(ratio, axis=2) * x, axis=1)
    use = (i >= 1) & (i + 2 < v.size) & (0.0 < cubic) & (cubic < x[:, 2])
    return t[i] + np.where(use, cubic, secant)


def scan_zeros(
    f: FunctionId,
    t_lo: float,
    t_hi: float,
    grid_step: Optional[float] = None,
) -> ZeroDataset:
    """Scan [t_lo, t_hi] for zeros of the critical-line form of f.

    The grid is aligned to integer multiples of the step, so adjacent scans
    share their boundary points and concatenate without loss. Each chunk of
    _CHUNK points, with the point carried from the chunk before, has one
    TaylorJets (_chunk_jets), whose radius holds every probe in its cells.
    The chunk's line form is read once on it, and all of its sign changes
    are refined together on the same jets, from the values of that read,
    to brackets of width 1e-11. Each bracket's first probes lie
    at the root of the inverse cubic through the grid values either side
    of its cell (_inverse_cubic) and _SPREAD about it, and each ordinate
    is the regula falsi point of its closed bracket: on the jets'
    long-double phases, xi's lie within a few ulp of the 30-digit oracle. The
    carried point keeps the value read on the chunk before's jets. Jet
    reads agree with pointwise ones at rounding level, so the ordinates
    are those of a scan with a pointwise grid within the bracket width;
    the set holds those ordinates alone, and the scan makes no pointwise
    read. grid_step defaults to default_grid_step(t_hi). Each ordinate
    stands for the pair 1/2 +- it, so t_lo below 0 raises DomainError. A
    scan from the origin (t_lo <= grid_step) holds every zero up to its
    top, so its count is checked against the density model (count_check);
    a scan that starts higher is not.
    """
    f = FunctionId(f)
    return _scan((f,), t_lo, t_hi, grid_step)[f]


def scan_zero_sets(
    f: FunctionId, t_lo: float, t_hi: float, grid_step: Optional[float] = None
) -> Dict[FunctionId, ZeroDataset]:
    """scan_zeros for f and every other function that shares its line form
    (T_plus and T_minus), keyed f first, from one scan: each chunk builds
    its jets and reads the form once, and each set, bitwise the one
    scan_zeros gives, refines the sign changes of its own part.
    """
    f = FunctionId(f)
    line = SPECS[f].line
    rows = (f, *(g for g, spec in SPECS.items() if g != f and line is not None and spec.line is line))
    return _scan(rows, t_lo, t_hi, grid_step)


def _scan(rows, t_lo: float, t_hi: float, grid_step: Optional[float]) -> Dict[FunctionId, ZeroDataset]:
    """The scan loop of scan_zeros, for rows that share one line form. From
    the origin it reads t = 0 for every row: there T_minus's part has the
    sign of its limit at its pole (special._t_line)."""
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise DomainError(f"scan bounds must be finite with t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if t_lo < 0.0:
        raise DomainError(f"scan bounds must be >= 0: t and -t are one pair of zeros, got t_lo = {t_lo}")
    if grid_step is None:
        grid_step = default_grid_step(t_hi)
    if not grid_step > 0:
        raise DomainError("grid_step must be positive")
    line = SPECS[rows[0]].line
    if line is None:
        raise DomainError(f"no critical-line real form for {rows[0]}")
    parts = [SPECS[g].part for g in rows]
    i_lo = math.ceil(t_lo / grid_step - 1e-9)
    i_hi = math.floor(t_hi / grid_step + 1e-9)
    roots: List[List[np.ndarray]] = [[] for _ in rows]
    prev_t = prev_form = None
    for start in range(i_lo, i_hi + 1, _CHUNK):
        stop = min(start + _CHUNK, i_hi + 1)
        t = np.arange(start, stop, dtype=float) * grid_step
        jets = _chunk_jets(t[0] if prev_t is None else prev_t, t[-1], grid_step)
        form = line(t, jets)
        if prev_t is not None:
            t = np.concatenate(([prev_t], t))
            form = np.concatenate(([prev_form], form))
        for found, part in zip(roots, parts):
            v = part(form)
            i = _sign_changes(v)
            guess = _inverse_cubic(t, v, i)
            found.append(_bracket_roots(
                lambda x: part(line(x, jets)), t[i], t[i + 1], v[i], v[i + 1], 1e-11, guess, _SPREAD
            ))
            found.append(t[v == 0.0])
        prev_t, prev_form = float(t[-1]), form[-1]
    sets = {}
    for g, found in zip(rows, roots):
        sets[g] = ZeroDataset(
            g,
            line=np.unique(np.concatenate(found)) if found else (),
            t_max_scanned=float(i_hi) * grid_step,
            generator_metadata=f"scan t in [{t_lo}, {t_hi}] step {grid_step}",
        )
        if t_lo <= grid_step:
            count_check(sets[g])
    return sets


def count_check(ds: ZeroDataset) -> Tuple[int, float]:
    """Compare the dataset's zero count on (0, t_max] with the density model.

    Emits MissedZeroWarning when the discrepancy exceeds 2 + 5% of the
    prediction; the smooth model itself fluctuates by O(log T).
    """
    zeros = SPECS[ds.function].zeros
    if zeros is None:
        raise DomainError(f"no zero-count model for {ds.function}")
    observed = int(np.sum(ds.ordinates() <= ds.t_max_scanned))
    predicted = zeros.count(ds.t_max_scanned) if ds.t_max_scanned > 0.0 else 0.0
    if abs(observed - predicted) > 2.0 + 0.05 * predicted:
        warnings.warn(
            f"{ds.function}: found {observed} zeros up to t={ds.t_max_scanned}, "
            f"density model predicts {predicted:.1f}",
            MissedZeroWarning,
        )
    return observed, predicted


def real_axis_zeros(f: FunctionId) -> np.ndarray:
    """The real-axis zeros of f, one per bracket of its SPECS row, in the
    row's order: for T_minus, [3.91231..., -2.91231...].

    Refined to 1e-11 on the row's series form, which has the same zeros
    away from the poles and is real on the real axis. Raises DomainError
    for a function whose row has no real-axis zeros.
    """
    f = FunctionId(f)
    spec = SPECS[f]
    if not spec.real_axis:
        raise DomainError(f"{f.value} has no real-axis zeros")
    a, b = np.array(spec.real_axis).T
    series = lambda x: evaluate(spec.series, x).real
    ends = series(np.concatenate((a, b)))
    return _bracket_roots(series, a, b, ends[: a.size], ends[a.size :], 1e-11)


def with_real_axis_records(ds: ZeroDataset) -> ZeroDataset:
    """Copy of a dataset with its function's real-axis zeros, which replace any it had.

    Raises DomainError for a function whose SPECS row has no real-axis zeros.
    """
    return replace(
        ds,
        real=real_axis_zeros(ds.function),
        generator_metadata=ds.generator_metadata + " + real-axis zeros",
    )
