"""Zero location on the critical line and the real axis.

Zeros are found as sign changes of the rescaled critical-line real form on
a grid, refined together by one bracketed solver (Illinois steps with a
bisection point at every step, one array call per step), and returned as
datasets of read-only arrays. The grid is aligned to multiples of
its step, so each chunk is read with the separable kernel: its
Euler-Maclaurin direct sums are one product of a block-phase matrix and a
step-phase matrix (special._hurwitz_em_once). The bracket ends, the
refiner's probes and the residuals are read pointwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import MissedZeroWarning, NoSignChangeError, DomainError
from .special import SPECS, FunctionId, critical_line_values, evaluate

_CHUNK = 4096
# Brackets refined together by scan_zeros. Small probe arrays keep the
# refiner's temporaries out of the heap that the grid chunks leave behind.
_BATCH = 32


@dataclass(frozen=True, eq=False)
class ZeroDataset:
    """The zeros of one function, as read-only float arrays.

    line holds the critical-line ordinates t, increasing, each standing for
    the pair 1/2 +- it; real holds the real-axis zeros x; residuals holds
    |f| at each zero, line zeros first (zeros when not given). Every array
    is copied once, so a caller's later edits do not reach the dataset.
    """

    function: FunctionId
    _: KW_ONLY
    line: np.ndarray = ()
    real: np.ndarray = ()
    residuals: Optional[np.ndarray] = None
    t_max_scanned: float = 0.0
    generator_metadata: str = ""

    def __post_init__(self):
        n = np.size(self.line) + np.size(self.real)
        residuals = np.zeros(n) if self.residuals is None else self.residuals
        for name, values in (("line", self.line), ("real", self.real), ("residuals", residuals)):
            values = np.array(values, dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.line.ndim != 1 or self.real.ndim != 1 or self.residuals.shape != (n,):
            raise DomainError(f"need two 1-d arrays of zeros and {n} residuals")

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


def _read_ends(func, t, v, top, carried: bool) -> None:
    """Replace grid values v, in place, by pointwise ones at the last point
    and at both ends of every sign change, until the sign changes settle.

    A grid value differs from the pointwise one at rounding level, so where
    r(t) is that small its sign may differ. Every bracket then starts from
    the same ends, and the same values, as a pointwise scan: each read
    includes the chunk's top point, so it shares the chunk's cutoff.
    carried: v[0] is the previous chunk's last value, read already.
    """
    exact = np.zeros(t.size, dtype=bool)
    exact[0] = carried
    need = np.zeros(t.size, dtype=bool)
    need[-1] = True  # carried into the next chunk
    while True:
        i = _sign_changes(v)
        need[i] = need[i + 1] = True
        need &= ~exact
        if not need.any():
            return
        at = np.nonzero(need)[0]
        v[at] = func(np.append(t[at], top))[:-1]
        exact |= need


def _bracket_roots(func, a, b, fa, fb, tol: float) -> np.ndarray:
    """Roots of func in the brackets [a[i], b[i]], all refined in lockstep.

    func maps a float array to a float array; fa and fb are its values at
    the bracket ends, of strictly opposite signs (a value of exactly 0 is a
    root). Each step makes one call of func at four probes per open
    bracket: the Illinois (modified regula falsi) point x, x -+ tol/2
    clamped to the bracket, and the bracket midpoint. The pair around x
    closes the bracket to width <= tol as soon as x is that close to the
    root; the midpoint halves it at every step, so a bracket of width w
    closes within ceil(log2(w / tol)) steps. Returns the midpoints of the
    closed brackets, or the probe where func is exactly 0.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    wa, wb = np.array(fa, dtype=float), np.array(fb, dtype=float)
    roots = np.where(wa == 0.0, a, np.where(wb == 0.0, b, np.nan))
    a_pos = wa > 0.0  # the sign of func at the a end of each bracket
    kept = np.zeros(a.shape, dtype=int)  # end the last step kept: -1 a, 1 b
    width = float(np.max(b - a, initial=tol))
    for _ in range(max(math.ceil(math.log2(width / tol)), 0)):
        live = np.nonzero(np.isnan(roots) & (b - a > tol))[0]
        if live.size == 0:
            break
        la, lb, lwa, lwb = a[live], b[live], wa[live], wb[live]
        mid = 0.5 * (la + lb)
        x = la + (lb - la) * (lwa / (lwa - lwb))
        x = np.where((la < x) & (x < lb), x, mid)
        probes = np.stack((x - 0.5 * tol, x, x + 0.5 * tol, mid), axis=1)
        probes = np.sort(probes.clip(la[:, None], lb[:, None]), axis=1)
        values = func(probes.ravel()).reshape(probes.shape)
        zero = values == 0.0
        hit = zero.any(axis=1)
        roots[live[hit]] = probes[hit, zero[hit].argmax(axis=1)]
        # the new bracket ends at the first column whose sign differs from a's
        cols = np.concatenate((la[:, None], probes, lb[:, None]), axis=1)
        vals = np.concatenate((lwa[:, None], values, lwb[:, None]), axis=1)
        flip = (vals[:, 1:] > 0.0) != a_pos[live, None]
        flip[:, -1] = True
        j = flip.argmax(axis=1) + 1
        last = cols.shape[1] - 1
        rows = np.arange(live.size)
        # Illinois: an end kept twice running has its weight halved
        a[live], b[live] = cols[rows, j - 1], cols[rows, j]
        wa[live] = np.where(j == 1, lwa * np.where(kept[live] == -1, 0.5, 1.0), vals[rows, j - 1])
        wb[live] = np.where(j == last, lwb * np.where(kept[live] == 1, 0.5, 1.0), vals[rows, j])
        kept[live] = np.where(j == 1, -1, np.where(j == last, 1, 0))
    return np.where(np.isnan(roots), 0.5 * (a + b), roots)


def refine_zero(f: FunctionId, t_bracket: Tuple[float, float]) -> float:
    """Refine a sign-change bracket of the critical-line form to width 1e-11
    and return the ordinate.

    A bracket holding two zeros (no sign change at the ends) is split by one
    interior subdivision and the lower zero is returned.
    """
    a, b = float(t_bracket[0]), float(t_bracket[1])
    if not a < b:
        raise DomainError("bracket must satisfy a < b")
    func = lambda t: critical_line_values(f, t)
    grid = np.linspace(a, b, 17)
    vals = func(grid)
    if np.sign(vals[0]) * np.sign(vals[-1]) > 0.0:
        # look for an interior sign change (possible zero pair)
        inner = _sign_changes(vals)
        if inner.size == 0:
            raise NoSignChangeError(
                f"no sign change of {f} critical-line form on [{a}, {b}]"
            )
        i = inner[0]
        grid, vals = grid[i : i + 2], vals[i : i + 2]
    return float(_bracket_roots(func, grid[:1], grid[-1:], vals[:1], vals[-1:], 1e-11)[0])


def scan_zeros(
    f: FunctionId,
    t_lo: float,
    t_hi: float,
    grid_step: Optional[float] = None,
) -> ZeroDataset:
    """Scan [t_lo, t_hi] for zeros of the critical-line form of f.

    The grid is aligned to integer multiples of the step, so adjacent scans
    share their boundary points and concatenate without loss, and each
    chunk of _CHUNK points is one separable grid call of
    critical_line_values. The ends of its sign changes are read again
    pointwise (_read_ends), and the sign changes are refined together, at
    most _BATCH at a time, to brackets of width 1e-11: the ordinates are
    those of a scan with a pointwise grid. grid_step defaults to
    default_grid_step(t_hi). A scan from the origin (t_lo <= grid_step)
    holds every zero up to its top, so its count is checked against the
    density model (count_check); a scan that starts higher is not.
    """
    f = FunctionId(f)
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise DomainError(f"scan bounds must be finite with t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if grid_step is None:
        grid_step = default_grid_step(t_hi)
    if not grid_step > 0:
        raise DomainError("grid_step must be positive")
    i_lo = math.ceil(t_lo / grid_step - 1e-9)
    i_hi = math.floor(t_hi / grid_step + 1e-9)
    if f == FunctionId.T_MINUS:
        i_lo = max(i_lo, 1)  # pole of T_minus at t=0
    func = lambda x: critical_line_values(f, x)
    roots: List[np.ndarray] = []
    prev_t = prev_v = None
    for start in range(i_lo, i_hi + 1, _CHUNK):
        stop = min(start + _CHUNK, i_hi + 1)
        t = np.arange(start, stop, dtype=float) * grid_step
        v = critical_line_values(f, t, grid_step)
        top = t[np.argmax(np.abs(t))]
        if prev_t is not None:
            t = np.concatenate(([prev_t], t))
            v = np.concatenate(([prev_v], v))
        _read_ends(func, t, v, top, prev_t is not None)
        change = _sign_changes(v)
        for k in range(0, change.size, _BATCH):
            i = change[k : k + _BATCH]
            roots.append(_bracket_roots(func, t[i], t[i + 1], v[i], v[i + 1], 1e-11))
        roots.append(t[v == 0.0])
        prev_t, prev_v = float(t[-1]), float(v[-1])
    found = np.unique(np.concatenate(roots)) if roots else np.empty(0)
    ds = ZeroDataset(
        f,
        line=found,
        residuals=np.abs(func(found)) if found.size else found,
        t_max_scanned=float(i_hi) * grid_step,
        generator_metadata=f"scan t in [{t_lo}, {t_hi}] step {grid_step}",
    )
    if t_lo <= grid_step:
        count_check(ds)
    return ds


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


def _tminus_real(x: np.ndarray) -> np.ndarray:
    return evaluate(FunctionId.T_MINUS_TILDE, x).real


def real_axis_zeros_tminus() -> np.ndarray:
    """The two real-axis zeros of T_minus, [3.91231..., -2.91231...].

    Located on the pole-free modified form (same zeros away from the poles),
    which is real on the real axis.
    """
    a, b = np.array([3.5, -3.3]), np.array([4.3, -2.5])
    ends = _tminus_real(np.concatenate((a, b)))
    return _bracket_roots(_tminus_real, a, b, ends[:2], ends[2:], 1e-11)


def with_real_axis_records(ds: ZeroDataset) -> ZeroDataset:
    """Copy of a T_minus dataset with its two real-axis zeros, which replace any it had.

    Raises DomainError for a function whose SPECS row has no real-axis zeros.
    """
    if not SPECS[ds.function].real_axis:
        raise DomainError(f"{ds.function.value} has no real-axis zeros")
    x = real_axis_zeros_tminus()
    return ZeroDataset(
        ds.function,
        line=ds.line,
        real=x,
        residuals=np.concatenate((ds.residuals[: ds.line.size], np.abs(_tminus_real(x)))),
        t_max_scanned=ds.t_max_scanned,
        generator_metadata=ds.generator_metadata + " + real-axis zeros",
    )
