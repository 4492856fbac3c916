"""Complex evaluation kernel and the table of the supported zeta-type functions.

Provides Gamma (Lanczos rational approximation), Riemann and Hurwitz zeta
(Euler-Maclaurin), the completed function xi1(s) = pi^(-s/2) Gamma(s/2) zeta(s),
the symmetric xi, the half-sum/half-difference pair built from xi1(2s) and
xi1(2s-1), the Dirichlet L function of conductor 4 with its completed even
form, and real-valued restrictions to the critical line.

Every value comes from one Euler-Maclaurin kernel with one fixed accuracy
policy: the corrections B_2..B_24 of _BERNOULLI, an absolute tail-bound
target of _TARGET_ABS_ERROR = 1e-12, and for each point its own cutoff,
N = max(ceil(|Im s|/2), r) direct terms. r is the smallest rung of the
ladder 12, 25, 50 whose a-priori tail bound meets half the target at that
|Im s| anywhere in -1/2 <= Re s <= 10.5; the rung edges are derived at
import from the Bernoulli coefficients (_rung_edges): 12 terms up to
|Im s| ~ 13, 25 up to ~ 37, and 50 above, where N is max(50, ceil(|Im s|/2)).
A point whose own bound misses the target is redone at twice its N, at
most twice, and then AccuracyError is raised. That target bounds
truncation only, of the Euler-Maclaurin series and of
the Taylor jets. The rounding of the pointwise direct terms' phases is not
bounded: on the critical line it adds up to 1.1e-12 at t ~ 1000 and
4.5e-12 at t ~ 2500, against the 30-digit oracle. The Taylor jets form their
phases in long double at anchor centres, and their critical-line zeros lie
within a few ulp of the 30-digit oracle's. Where numpy's long double is
plain double (MSVC, macOS on arm64) the anchors round as the pointwise
phases do, and the jets err as they do.

The Bernoulli corrections and the Lanczos sum are (terms x points) tables
with a few whole-table operations each, in blocks of _COLUMNS points, and
every step is elementwise in the points: a point's corrections and Gamma
are the same bitwise whatever else its call holds, and a small call pays
a few whole-table operations plus one row product per term. The pointwise
direct sum forms each term as a real exp times a unit phase
(n+a)^(-i|Im s|), with one phase row for a call of one |Im s| and one per
entry otherwise, so a point's sum too is the same bitwise in any batch.
The zero scan reads a second form of the direct sum: many reads near few
centres take Taylor jets about the centres (TaylorJets), whose truncation
bound joins the tail bound, and whose phase table comes from long-double
anchor columns by a recurrence of one complex multiply per entry.

SPECS holds one FunctionSpec row per FunctionId: the array evaluator and
the poles it declares, the series form and its circle radius, the default
dataset and the brackets of its real-axis zeros, the smooth zero count and
the critical-line form, which shares its log-form builder with the
evaluator. Other modules read every per-function fact from that row. The
evaluators are pure functions and keep no shared mutable state: the only
module-level data are constant tables, and jets live in the TaylorJets
their caller builds.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

__all__ = [
    "FunctionId",
    "FunctionSpec",
    "SPECS",
    "gamma",
    "log_gamma",
    "riemann_zeta",
    "hurwitz_zeta",
    "log_xi1",
    "evaluate",
    "critical_line_form",
    "critical_line_values",
    "laurent_check",
]

LN_PI = math.log(math.pi)
LN_2 = math.log(2.0)
LN_4 = math.log(4.0)

# Log-scale clamp for critical-line forms: keeps values normal floats while
# preserving signs and zeros once the true magnitude underflows double range.
_LOG_FLOOR = -600.0


class FunctionId(str, Enum):
    XI = "xi"
    XI1 = "xi1"
    T_PLUS = "tplus"
    T_MINUS = "tminus"
    T_PLUS_TILDE = "tplus_tilde"
    T_MINUS_TILDE = "tminus_tilde"
    L4 = "l4"
    L4_COMPLETED = "l4c"


# B_2, B_4, ..., B_26: the kernel applies all but the last as corrections,
# and its tail bound reads the last.
_BERNOULLI = np.array([
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
])
_EM_K = np.arange(1.0, _BERNOULLI.size + 1.0)  # k of B_2k
_EM_COEFF = _BERNOULLI / np.cumprod((2.0 * _EM_K - 1.0) * (2.0 * _EM_K))  # B_2k/(2k)!
# (s+2k-3)(s+2k-2) = (s + 2k - 5/2)^2 - 1/4, k = 2..nu+1 (complex, so that
# the outer sum with s needs no cast)
_EM_MIDPOINTS = (2.0 * _EM_K[1:] - 2.5).astype(complex)
# Absolute accuracy target of the Euler-Maclaurin tail bound.
_TARGET_ABS_ERROR = 1e-12
# Highest |Im s| the kernel takes. The pointwise direct sum holds up to two
# rows of N = |Im s|/2 complex terms and one real row, 200 MB at 1e7 (800 MB
# once the tail bound has doubled N twice); nan and inf are refused with it.
_IM_LIMIT = 1e7

# Lanczos, g = 607/128, 15 terms (Godfrey coefficients).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS_C = np.array([
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
], dtype=complex)[:, None]  # c_1..c_14 as a column, complex: no cast
_LANCZOS_J = np.arange(1.0, _LANCZOS_C.size + 1.0, dtype=complex)

# Largest number of points in one (terms x points) table of the Lanczos
# sum or the Euler-Maclaurin corrections: at most 14 x 1024 complex, about
# 230 KB, which stays in cache. Fewer, wider blocks pay less numpy
# overhead per point; 4,096-point tables were slower on scan chunks.
_COLUMNS = 1024


def _tables(flat, rows):
    """(columns, points, table) for each block of at most _COLUMNS entries
    of flat, the table a (rows x points) view of one reused buffer."""
    buffer = np.empty((rows, min(flat.size, _COLUMNS)), dtype=complex)
    for i in range(0, flat.size, _COLUMNS):
        block = flat[i : i + _COLUMNS]
        yield slice(i, i + _COLUMNS), block, buffer[:, : block.size]


def _row_sum(table):
    """Sum of the rows of a (rows x points) table, in place, in a fixed
    order: the lower half of the rows gains the upper half until one row
    is left. Every step is elementwise, so each column's sum is the same
    bitwise whatever the other columns."""
    n = table.shape[0]
    while n > 1:
        half = n // 2
        table[:half] += table[n - half : n]
        n -= half
    return table[0]


def _lanczos_loggamma_right(z):
    """log Gamma on Re z >= 0.25 (array-safe, principal-ish branch).

    The series C0 + sum_j c_j/(z + j) is a (terms x points) table summed
    by _row_sum, block by block, so a point's value never depends on its
    batch. The imaginary part is only guaranteed modulo 2*pi; every
    consumer either exponentiates it or uses the real part, so the branch
    is irrelevant.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    ser = np.empty_like(flat)
    for cols, block, terms in _tables(flat, _LANCZOS_C.size):
        np.add.outer(_LANCZOS_J, block, out=terms)
        np.divide(_LANCZOS_C, terms, out=terms)
        np.add(_row_sum(terms), _LANCZOS_C0, out=ser[cols])
    ser = ser.reshape(z.shape)
    t = z + _LANCZOS_G + 0.5
    return (z + 0.5) * np.log(t) - t + np.log(math.sqrt(2 * math.pi) * ser / z)


def _log_sin_pi(z):
    """log sin(pi z), stable for large |Im z| (imag part modulo 2*pi)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z.imag) < 8.0
    if np.any(small):
        out[small] = np.log(np.sin(np.pi * z[small]))
    big = ~small
    if np.any(big):
        zb = z[big]
        sign = np.where(zb.imag > 0, 1.0, -1.0)
        # sin(pi z) = -(e^{-i pi z sign}) (1 - e^{2 i pi z sign}) / (2 i sign)
        out[big] = (
            -1j * np.pi * zb * sign
            + np.log1p(-np.exp(2j * np.pi * zb * sign))
            - np.log(-2j * sign)
        )
    return out


def log_gamma(s):
    """log Gamma(s) for scalar or array complex s.

    Real part is accurate to ~1e-13 relative; imaginary part is defined
    modulo 2*pi (reflection may shift branches). PoleError at non-positive
    integers, DomainError unless finite.
    """
    z = np.asarray(s, dtype=complex)
    finite = np.isfinite(z)
    if not finite.all():
        raise DomainError(f"log_gamma needs finite points, got {z[~finite][0]}")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape, dtype=complex)
    right = z.real >= 0.25
    if np.any(right):
        out[right] = _lanczos_loggamma_right(z[right])
    left = ~right
    if np.any(left):
        zl = z[left]
        if np.any((np.abs(zl - np.round(zl.real)) < 1e-13) & (np.abs(zl.imag) < 1e-13)):
            raise PoleError("log_gamma at a non-positive integer")
        out[left] = LN_PI - _log_sin_pi(zl) - _lanczos_loggamma_right(1.0 - zl)
    return complex(out[0]) if scalar else out


def gamma(s) -> complex:
    """Gamma(s); PoleError at non-positive integers, DomainError unless finite,
    as log_gamma, and AccuracyError where it overflows."""
    lg = log_gamma(complex(s))
    if lg.real > 709.0:
        raise AccuracyError("Gamma overflows double precision at this argument")
    return cmath.exp(lg)


# The cutoff ladder at small |Im s|, rungs halving from 50, and the largest
# Re s of the region it is sized for: every small-|Im| caller, the
# translated sums' arguments at Re w ~ 10.4 included. At these rungs the
# region's worst point is Re s = -1/2.
_RUNGS = (12, 25, 50)
_RUNG_RE = 10.5


def _rung_edges(rungs):
    """For each cutoff in rungs, the largest |Im s| at which its a-priori
    tail bound meets half of _TARGET_ABS_ERROR, by bisection.

    The bound is the kernel's own, |B_2nu+2/(2nu+2)!| |s (s+1) ... (s+2nu)|
    b^(-sigma-2nu-1) |s+2nu+1|/(sigma+2nu+1), with b = N + a >= N and each
    |s + j| <= |s| + j, at the worst point of -1/2 <= sigma <= _RUNG_RE for
    the given |Im s|: every entry there meets the half target in one pass.
    """
    sigma = np.arange(-0.5, _RUNG_RE + 0.25, 0.5)[:, None]  # sigma x rungs
    edge = 2.0 * _EM_K[-1] - 1.0  # 2 nu + 1
    j = np.arange(edge)
    b = np.asarray(rungs, dtype=float)
    log_b = np.log(b)
    log_target = math.log(_TARGET_ABS_ERROR / 2.0) - math.log(abs(_EM_COEFF[-1]))

    def meets(t):
        log_bound = (
            np.log(np.hypot(sigma, t)[..., None] + j).sum(axis=-1)
            - (sigma + edge) * log_b
            + np.log(np.hypot(sigma + edge, t) / (sigma + edge))
        )
        return log_bound.max(axis=0) <= log_target

    low, high = np.zeros(b.size), 4.0 * b
    for _ in range(50):
        mid = 0.5 * (low + high)
        ok = meets(mid)
        low, high = np.where(ok, mid, low), np.where(ok, high, mid)
    return low


# The edges of every rung but the top one: 13.2 for 12 terms, 37.0 for 25.
_RUNG_EDGES = tuple(_rung_edges(_RUNGS[:-1]).tolist())


def _cutoff(t: float) -> int:
    """The direct-sum cutoff N = max(ceil(t/2), rung) at |Im s| = t."""
    return max(math.ceil(t / 2.0), _RUNGS[bisect.bisect_left(_RUNG_EDGES, t)])


def _cutoffs(t: np.ndarray) -> np.ndarray:
    """_cutoff of every entry of t."""
    rung = np.take(_RUNGS, np.searchsorted(_RUNG_EDGES, t))
    return np.maximum(np.ceil(t / 2.0), rung).astype(int)


def _hurwitz_em_array(s: np.ndarray, a: float, jets=None) -> np.ndarray:
    """Euler-Maclaurin Hurwitz zeta on an array of s, each entry at its own
    cutoff.

    An entry of |Im s| = t takes N = max(ceil(t/2), rung) direct terms
    (_cutoff), a function of t alone: a call groups its entries by N and
    makes one pass per group, so every value is the same bitwise in any
    batch. Above |Im s| ~ 37 the rung is 50, and N = max(50, ceil(t/2)).
    An entry whose own tail bound misses _TARGET_ABS_ERROR is redone at
    twice its N, at most twice (negative Re s at large |Im s| needs the
    headroom); then AccuracyError. DomainError for a point that is not
    finite, checked before any arithmetic, or |Im s| above _IM_LIMIT.
    jets: None, or TaylorJets, whose reads all take the cutoff of the jets'
    top (see _hurwitz_em_once).
    """
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise DomainError(f"zeta needs finite points, got {flat[~finite][0]}")
    t = np.abs(flat.imag)
    im_max = float(t.max(initial=0.0))
    if jets is not None:
        im_max = max(im_max, jets.top)
    if not im_max <= _IM_LIMIT:
        raise DomainError(f"|Im s| must be at most {_IM_LIMIT:g}, got {im_max!r}")
    # N rises with t: a call whose lowest and highest entries share it is one group
    n_direct = _cutoff(im_max)
    if jets is not None or n_direct == _cutoff(float(t.min(initial=im_max))):
        return _em_retried(flat, a, n_direct, jets).reshape(s.shape)
    cutoffs = _cutoffs(t)
    order = np.argsort(cutoffs, kind="stable")
    total = np.empty_like(flat)
    for group in np.split(order, np.flatnonzero(np.diff(cutoffs[order])) + 1):
        total[group] = _em_retried(flat[group], a, int(cutoffs[group[0]]), jets)
    return total.reshape(s.shape)


def _em_retried(flat, a, n_direct, jets, retries=2):
    """_hurwitz_em_once's values; the entries whose tail bound misses
    _TARGET_ABS_ERROR are redone at twice the cutoff, at most retries times."""
    total, bound = _hurwitz_em_once(flat, a, n_direct, jets)
    if bound.max(initial=0.0) <= _TARGET_ABS_ERROR:
        return total
    if not retries:
        raise AccuracyError("Euler-Maclaurin tail bound exceeds target accuracy")
    miss = ~(bound <= _TARGET_ABS_ERROR)  # a nan bound misses
    total[miss] = _em_retried(flat[miss], a, 2 * n_direct, jets, retries - 1)
    return total


# Largest temporary of the pointwise direct sum.
_SLAB_BYTES = 1 << 20
# Most Taylor terms of a jet, and the share of _TARGET_ABS_ERROR its
# truncation may take; the tail bound takes the rest. The scan's T+- jets
# reach 4.4 at t ~ 1000 and take 34 terms.
_JET_TERMS = 48
_JET_SHARE = _TARGET_ABS_ERROR / 16


def _jet_terms(mass, x):
    """The fewest Taylor terms J whose truncation bound mass x^J/J! e^x
    meets _JET_SHARE; AccuracyError if that takes more than _JET_TERMS."""
    bound = mass * math.exp(x) if x <= _JET_TERMS else math.inf
    for terms in range(1, _JET_TERMS + 1):
        bound *= x / terms
        if bound <= _JET_SHARE:
            return terms
    raise AccuracyError(f"a Taylor jet needs more than {_JET_TERMS} terms at reach {x:.3g}")


class TaylorJets:
    """Taylor jets of the Euler-Maclaurin direct sums about centres on a
    vertical line, for many reads near few points (a chunk of the zero
    scan, its grid points and its refiner's probes).

    centres: ordinates of the centres, increasing; radius: the largest
    distance of a read from its nearest centre, for which the jets are
    sized. Passed as the jets of a critical-line form (FunctionSpec.line):
    a read w = s0 + d then takes the jet of its nearest centre s0,

        sum_n (n+a)^(-s0-d) = sum_j M_j d^j,
        M_j = sum_n (n+a)^(-s0) (-log(n+a))^j / j!,

    M = P (J x N, real) @ A (N x centres complex exps), built once per
    Hurwitz parameter a at the cutoff of the highest centre plus radius and
    reused by every later read, which costs a Horner sum of J terms. J is
    the fewest terms whose truncation bound mass x^J/J! e^x, with
    x = |d| max|log(n+a)| and mass = sum_n (n+a)^(-Re s0), meets
    _JET_SHARE; the kernel adds that bound to the tail bound. A read
    farther out than the jets were sized for rebuilds them with more terms,
    and one that would need more than _JET_TERMS raises AccuracyError.

    The phases of A are formed in long double (_unit_phases). Evenly
    spaced centres, as a scan chunk's, take them at an anchor centre every
    _ANCHOR_COLUMNS, and every other column of A is the one before times
    the column of one spacing: a read's offset d is then taken from its
    anchor, so that it is exact for the centre the products realised.
    Other centres take long-double phases in every column.
    """

    def __init__(self, centres, radius, scale=1.0, tables=None):
        self.centres = np.asarray(centres, dtype=float)
        self.radius = float(radius)
        self.scale = scale  # Im w = scale t at the kernel
        self._tables = {} if tables is None else tables

    def scaled(self, c: float) -> "TaylorJets":
        """The same jets read at Im w = c t, sharing the built tables."""
        return TaylorJets(self.centres, self.radius, self.scale * c, self._tables)

    @property
    def top(self) -> float:
        """The largest |Im w| a read within the radius can have."""
        return self.scale * (float(np.max(np.abs(self.centres))) + self.radius)

    def sums(self, flat, a, log_n):
        """(direct sums at the points flat, truncation bound); log_n holds
        -log(n+a), n < N."""
        if flat.size == 0:
            return np.zeros(0, dtype=complex), 0.0
        im = self.scale * self.centres
        nearest = np.searchsorted(0.5 * (im[1:] + im[:-1]), flat.imag)
        re = float(flat.real[0])
        span = float(np.max(np.abs(log_n)))  # max |log(n+a)|
        reach = float(np.max(np.abs(flat.imag - im[nearest]))) * span
        jet = self._tables.get((a, self.scale))
        if jet is None or (jet.re, jet.size) != (re, log_n.size) or reach > jet.reach:
            jet = self._build(re, a, log_n, max(reach, self.scale * self.radius * span))
            self._tables[(a, self.scale)] = jet
        # the offset from the centre the jet's column realised, taken from
        # its anchor: the stored centre, which the reach above reads,
        # differs from it by rounding
        d = flat - jet.anchor[nearest] - jet.offset[nearest]
        coeffs = jet.coeffs[:, nearest]
        total = coeffs[-1]
        for row in coeffs[-2::-1]:
            total = total * d + row
        terms = coeffs.shape[0]
        return total, jet.mass * math.exp(reach) * reach**terms / math.factorial(terms)

    def _build(self, re, a, log_n, reach):
        size = self.centres.size
        magnitude = np.exp(re * log_n)  # (n+a)^(-Re s0)
        mass = float(np.sum(magnitude))
        terms = _jet_terms(mass, reach)
        im = self.scale * self.centres
        # even: every spacing within rounding of the mean one
        spacing = float(im[-1] - im[0]) / max(size - 1, 1)
        even = size > 1 and bool(np.all(np.abs(np.diff(im) - spacing) <= 1e-9 * spacing))
        stride = _ANCHOR_COLUMNS if even else 1
        log_long = np.log(np.arange(log_n.size, dtype=np.longdouble) + a)
        # the anchors' phases, and last those of one spacing
        units = _unit_phases(np.append(im[::stride], spacing), log_long)
        phases = np.empty((log_n.size, size), dtype=complex)  # A, a column per centre
        np.multiply(units[:, :-1], magnitude[:, None], out=phases[:, ::stride])
        ratio = units[:, -1:]
        for k in range(1, min(stride, size)):  # once per column offset from the anchors
            after = phases[:, k::stride]
            np.multiply(phases[:, k - 1 :: stride][:, : after.shape[1]], ratio, out=after)
        powers = np.empty((terms, log_n.size))  # P: (-log(n+a))^j / j!
        powers[0] = 1.0
        np.divide(log_n, np.arange(1.0, terms)[:, None], out=powers[1:])
        for j in range(2, terms):  # row products: faster than a cumprod down the columns
            np.multiply(powers[j - 1], powers[j], out=powers[j])
        # one real product: (N x centres) complex read as (N x 2 centres) real
        coeffs = (powers @ phases.view(float)).view(complex)
        offset = np.arange(size) % stride
        anchor = re + 1j * im[np.arange(size) - offset]
        return _Jet(re, log_n.size, reach, mass, coeffs, anchor, 1j * offset * spacing)


# 2 pi to 40 digits, read as long double: the reduction of the jets' phases
_TWO_PI_LONG = np.longdouble("6.283185307179586476925286766559005768394")
# Centres per long-double anchor column of the jets' phase table.
_ANCHOR_COLUMNS = 16


def _unit_phases(c, log_long):
    """exp(-i c log(n+a)) as an (n x c) table; log_long holds log(n+a) in
    long double, in which the phase is formed and reduced mod 2 pi before
    it is rounded to double. With a 64-bit mantissa (x86-64) the phase
    errs by a few 1e-15 at c log(n+a) ~ 2e4, not the 2e-12 of a double
    product; where long double is double, it errs as that product does."""
    phase = np.multiply.outer(log_long, -c.astype(np.longdouble))
    phase -= np.rint(phase / _TWO_PI_LONG) * _TWO_PI_LONG
    return np.exp(1j * phase.astype(float))


class _Jet(NamedTuple):
    """The jets of one Hurwitz parameter: centre real part, cutoff N, the
    reach x they are sized for, mass, M as a (terms x centres) table, and
    per centre the point of its anchor and its offset from it (i k
    spacing): the jet's centre is anchor + offset."""

    re: float
    size: int
    reach: float
    mass: float
    coeffs: np.ndarray
    anchor: np.ndarray
    offset: np.ndarray


def _direct_phases(t, log_n, out):
    """(n+a)^(-it) = exp(i t log_n) into out, a complex (t x n) table."""
    out.real = 0.0
    np.multiply.outer(t, log_n, out=out.imag)
    return np.exp(out, out=out)


def _hurwitz_em_once(flat, a, n_direct, jets=None):
    """Euler-Maclaurin sum at cutoff n_direct: (values, tail bound of each).

    The direct terms (n+a)^(-s), n < N, are summed pointwise when jets is
    None, each as the real magnitude exp(-Re s log(n+a)), numpy's SIMD
    float exp, times the unit phase exp(-i|Im s| log(n+a)) of the complex
    exp; entries below the real axis take the conjugate sum, whose every
    addition mirrors the one above. A call whose entries all share one
    |Im s| (the V' stencil, the two arguments of U, one entry) computes
    one phase row; any other call one row per entry. Every entry meets
    the same formula whatever its batch, so no value depends on the path.

    When jets is TaylorJets, each entry takes the Taylor jet of the direct
    sum about its nearest centre, and the jets' truncation bound joins the
    tail bound: one exp per centre and term, built once, in place of one
    per entry and term.

    The Bernoulli corrections and the tail bound stay pointwise: the
    nu = 12 corrections and the first omitted term form one (13 x points)
    table per block of _COLUMNS points, built by whole-table operations and
    12 row products, and summed by _row_sum, so each point's value is the
    same bitwise in any batch. No row product is in place: numpy runs an
    in-place product of one entry as a reduction, with a scalar complex
    product that can differ by 1 ulp from the array loop's.
    """
    log_n = -np.log(np.arange(n_direct, dtype=float) + a)  # -log(n+a), n < N
    truncation = 0.0
    if jets is not None:
        total, truncation = jets.sums(flat, a, log_n)
    else:
        # pairwise numpy reduction keeps ~1 ulp * log N. Summed in slabs of
        # reused buffers of at most _SLAB_BYTES, so the largest temporary is
        # bounded whatever N; each row's sum is the same whatever the slab.
        rows = max(_SLAB_BYTES // (16 * n_direct), 1)
        total = np.empty_like(flat)
        terms = np.empty((min(flat.size, rows), n_direct), dtype=complex)
        magnitude = np.empty(terms.shape)
        t = np.abs(flat.imag)
        shared = flat.size > 0 and bool((t == t[-1]).all())
        if shared:
            phase = _direct_phases(t[-1:], log_n, np.empty((1, n_direct), dtype=complex))
        for i in range(0, flat.size, rows):
            part = slice(i, i + rows)
            mags, out = magnitude[: t[part].size], terms[: t[part].size]
            np.exp(np.multiply.outer(flat.real[part], log_n, out=mags), out=mags)
            row = phase if shared else _direct_phases(t[part], log_n, out)
            total[part] = np.multiply(mags, row, out=out).sum(axis=1)
        np.conjugate(total, out=total, where=flat.imag < 0.0)

    # corrections B_2k/(2k)! s(s+1)...(s+2k-2) b^(-s-2k+1), k = 1..nu, and
    # the first omitted term, k = nu + 1, which the tail bound reads, as a
    # (terms x points) table: row 1 is s b^(-s+1), row k is row k - 1 times
    # (s+2k-3)(s+2k-2), and the column B_2k/(2k)! b^(-2k) scales the rows.
    b = float(n_direct) + a
    bs = np.exp(-flat * math.log(b))  # b^(-s)
    power = bs * b  # b^(-s+1)
    total = total + power / (flat - 1.0) + 0.5 * bs
    scale = (_EM_COEFF * b ** (-2.0 * _EM_K))[:, None]
    omitted = np.empty(flat.shape)
    for cols, block, table in _tables(flat, _EM_K.size + 1):
        rows = table[:-1]
        np.multiply(block, power[cols], out=rows[0])
        # the factor of row k waits in row k + 1, so no product is in place
        factors = np.add.outer(_EM_MIDPOINTS, block, out=table[2:])
        np.square(factors, out=factors)
        factors -= 0.25
        for k in range(1, _EM_K.size):
            np.multiply(table[k + 1], rows[k - 1], out=rows[k])
        rows *= scale
        omitted[cols] = np.abs(rows[-1])
        total[cols] += _row_sum(rows[:-1])
    # tail bound: first omitted term times |s+2nu+1|/(sigma+2nu+1)
    edge = 2.0 * _EM_K[-1] - 1.0  # 2 nu + 1
    ratio = np.abs(flat + edge) / np.maximum(flat.real + edge, 1.0)
    return total, omitted * ratio + truncation


def riemann_zeta(s) -> complex:
    """Riemann zeta at complex s: hurwitz_zeta(s, 1) at Re s >= -1/2.

    Below Re s = -1/2 it continues through xi1(s) = xi1(1 - s) in logs,
    zeta(s) = pi^(s/2) xi1(1 - s) / Gamma(s/2), at any |Im s|, and the
    kernel raises DomainError for a point that is not finite.
    """
    s = complex(s)
    if not s.real < -0.5:  # a nan real part too
        return hurwitz_zeta(s, 1.0)
    lg, z = _xi1_log_form(np.array([s]))
    return complex(_rgamma(np.array([s / 2.0]), lg + (s / 2.0) * LN_PI)[0] * z[0])


def hurwitz_zeta(s, a: float) -> complex:
    """Hurwitz zeta(s, a) for a in (0, 1] and Re s >= -1/2 (PoleError at s = 1).

    Below Re s = -1/2 the direct sum cancels like N^(1 - Re s) times the
    rounding error, which the tail bound does not see: DomainError, as for
    a non-finite s.
    """
    s = complex(s)
    # before abs(s - 1): at a nan part CPython's complex abs reads a stale
    # errno, and raises OverflowError after any earlier libm overflow
    if not cmath.isfinite(s):
        raise DomainError(f"zeta needs a finite point, got {s!r}")
    if not 0.0 < a <= 1.0:
        raise DomainError("hurwitz_zeta requires a in (0, 1]")
    if s.real < -0.5:
        raise DomainError("hurwitz_zeta requires Re s >= -1/2")
    if abs(s - 1.0) < 1e-300:
        raise PoleError("zeta pole at s=1")
    return complex(_hurwitz_em_array(np.array([s]), a)[0])


# ---------------------------------------------------------------------------
# completed functions
#
# The log-form builders return (log prefactor, kernel) at w = s or 1 - s,
# whichever has Re w >= 1/2: the functions they serve are even under s -> 1-s,
# and there Lanczos is in range and Euler-Maclaurin stable at any |Im s|.


def _xi1_log_form(s: np.ndarray, jets=None):
    """(log(pi^(-w/2) Gamma(w/2)), zeta(w)), so that xi1(s) = exp(log) * zeta.

    jets: None, or TaylorJets of the direct sum at w (_hurwitz_em_once).
    """
    w = np.where(s.real < 0.5, 1.0 - s, s)
    z = _hurwitz_em_array(w, 1.0, jets)  # first: it refuses a point that is not finite
    return _lanczos_loggamma_right(w / 2.0) - (w / 2.0) * LN_PI, z


def log_xi1(w):
    """log xi1(w) with xi1(w) = pi^(-w/2) Gamma(w/2) zeta(w).

    Uses the functional equation xi1(w) = xi1(1-w) to stay in Re w >= 1/2,
    so it is stable for arbitrarily large |Im w|. Imaginary part modulo 2*pi.
    """
    w = np.asarray(w, dtype=complex)
    lg, z = _xi1_log_form(np.atleast_1d(w))
    out = lg + np.log(z)
    return complex(out[0]) if w.ndim == 0 else out


# The evaluators below take and return 1-d complex arrays. Branches are
# masks; each branch runs once, on its own entries, and only if it has any.

_STENCIL = np.exp(1j * (math.pi / 8 + np.arange(8) * math.pi / 4))


def _near(s: np.ndarray, points, tol: float) -> np.ndarray:
    """Mask of the entries of s within tol of any of the points."""
    mask = np.zeros(s.shape, dtype=bool)
    for p in points:
        mask |= np.abs(s - p) < tol
    return mask


def _split(s: np.ndarray, mask: np.ndarray, on, off) -> np.ndarray:
    """on(s[mask]) merged with off(s[~mask]); neither runs without entries
    (L4's two branches call each other)."""
    if not s.size:
        return np.empty(s.shape, dtype=complex)
    if not mask.any():
        return off(s)
    out = np.empty(s.shape, dtype=complex)
    out[mask] = on(s[mask])
    if not mask.all():
        out[~mask] = off(s[~mask])
    return out


def _singular(poles=(), removable=(), tol: float = 0.0, radius: float = 0.0):
    """Evaluator decorator: PoleError if an entry lies within 1e-12 of a pole;
    entries within tol of a removable point get the mean of the function over
    8 points on a circle of the given radius, an O(radius^8) limit. The
    evaluator keeps its poles (FunctionSpec.poles)."""

    def wrap(direct):
        def func(s):
            hit = _near(s, poles, 1e-12)
            if hit.any():
                raise PoleError(f"{direct.__name__[1:]} pole at s={s[hit][0]}")

            def limit(z):
                pts = (z[:, None] + radius * _STENCIL).ravel()
                return func(pts).reshape(-1, 8).mean(axis=1)

            return _split(s, _near(s, removable, tol), limit, direct)

        func.poles = tuple(poles)
        return func

    return wrap


def _rgamma(z: np.ndarray, log_scale=0.0) -> np.ndarray:
    """exp(log_scale)/Gamma(z), entire in z (exact zero at non-positive
    integers). The scale joins the exponent, so a huge 1/Gamma times a tiny
    scale at large |Im z| neither overflows nor underflows."""
    n = np.round(z.real)
    pole = (np.abs(z.imag) < 1e-13) & (np.abs(z.real - n) < 1e-13) & (n <= 0)
    out = np.zeros(z.shape, dtype=complex)
    out[~pole] = np.exp(np.broadcast_to(log_scale, z.shape)[~pole] - log_gamma(z[~pole]))
    return out


@_singular(poles=(0.0, 1.0))
def _xi1(s: np.ndarray) -> np.ndarray:
    lg, z = _xi1_log_form(s)
    return np.exp(lg) * z


def _half_sum(s: np.ndarray, sign: float) -> np.ndarray:
    """(xi1(2s) + sign xi1(2s - 1)) / 4 from one kernel call (the two share |Im|)."""
    both = _xi1(np.concatenate((2.0 * s, 2.0 * s - 1.0)))
    return (both[: s.size] + sign * both[s.size :]) / 4.0


# s(s-1)/2 cancels the xi1 poles at 0 and 1, one of which is the zeta pole
@_singular(removable=(0.0, 1.0), tol=1e-7, radius=1e-3)
def _xi(s: np.ndarray) -> np.ndarray:
    lg, z = _xi1_log_form(s)
    return (s * (s - 1.0) / 2.0) * np.exp(lg) * z


# both xi1 poles cancel at 1/2; a wider circle keeps the cancellation noise down
@_singular(poles=(0.0, 1.0), removable=(0.5,), tol=1e-7, radius=1e-2)
def _t_plus(s: np.ndarray) -> np.ndarray:
    return _half_sum(s, 1.0)


@_singular(poles=(0.0, 0.5, 1.0))
def _t_minus(s: np.ndarray) -> np.ndarray:
    return _half_sum(s, -1.0)


@_singular(removable=(0.0, 1.0), tol=1e-4, radius=1e-3)
def _t_plus_tilde(s: np.ndarray) -> np.ndarray:
    return s * (1.0 - s) * _t_plus(s)


@_singular(removable=(0.0, 0.5, 1.0), tol=1e-4, radius=1e-3)
def _t_minus_tilde(s: np.ndarray) -> np.ndarray:
    return s * (1.0 - s) * (s - 0.5) * _t_minus(s)


def _l4_sum(z: np.ndarray, jets=None) -> np.ndarray:
    """L4 on Re z > 0 away from z = 1, as 4^(-z) (zeta(z, 1/4) - zeta(z, 3/4))."""
    return np.exp(-z * LN_4) * (
        _hurwitz_em_array(z, 0.25, jets) - _hurwitz_em_array(z, 0.75, jets)
    )


# the hurwitz pole residues cancel at 1 in the difference
@_singular(removable=(1.0,), tol=1e-7, radius=1e-2)
def _l4(s: np.ndarray) -> np.ndarray:
    """Dirichlet L for the non-principal character mod 4."""

    def left(z):
        # continue through the even completed form; 1/Gamma keeps trivial zeros exact
        lg, l4 = _l4c_log_form(1.0 - z)
        return _rgamma((z + 1.0) / 2.0, lg + (1.0 - z) * LN_2 + ((z + 1.0) / 2.0) * LN_PI) * l4

    return _split(s, s.real > 0.0, _l4_sum, left)


def _l4c_log_form(s: np.ndarray, jets=None):
    """(log(2^(w-1) pi^(-(w+1)/2) Gamma((w+1)/2)), L4(w)); that prefactor is
    Gamma(w) / (pi^(w/2) Gamma(w/2)) by Legendre duplication.

    jets: None, or TaylorJets of the direct sums on Re s = 1/2, where L4
    is its Hurwitz difference (_hurwitz_em_once).
    """
    w = np.where(s.real < 0.5, 1.0 - s, s)
    lg = (w - 1.0) * LN_2 - ((w + 1.0) / 2.0) * LN_PI + _lanczos_loggamma_right((w + 1.0) / 2.0)
    return lg, _l4(w) if jets is None else _l4_sum(w, jets)


def _l4_completed(s: np.ndarray) -> np.ndarray:
    lg, l4 = _l4c_log_form(s)
    return np.exp(lg) * l4


# ---------------------------------------------------------------------------
# critical-line real forms: the builders' pair at 1/2 + it (xi, l4c) or at
# 1 + 2it (T_plus, T_minus), with the prefactor's modulus kept as a log.
# Each takes TaylorJets about ordinates t, or None, and passes them, scaled
# to the Im of its kernel argument, to the builder.


def _scaled_real_part(log_scale, phase, values, take_imag=False):
    """exp(clamped log_scale) * Re(e^{i phase} values) elementwise."""
    rotated = np.exp(1j * phase) * values
    comp = rotated.imag if take_imag else rotated.real
    return np.exp(np.maximum(log_scale, _LOG_FLOOR)) * comp


def _xi_line(t: np.ndarray, jets=None) -> np.ndarray:
    # xi = s(s-1)/2 xi1, and s(s-1)/2 = -(t^2 + 1/4)/2 on the line
    lg, z = _xi1_log_form(0.5 + 1j * t, jets)
    return -_scaled_real_part(np.log(0.5 * (t * t + 0.25)) + lg.real, lg.imag, z)


def _t_line(t: np.ndarray, jets=None, take_imag: bool = False) -> np.ndarray:
    # xi1(2s - 1) = xi1(2 - 2s) = conj xi1(2s) on the line, so T_plus = Re xi1(1 + 2it)/2
    # and T_minus / i = Im xi1(1 + 2it)/2
    tiny = np.abs(t) < 1e-8
    if take_imag and np.any(tiny):
        raise PoleError("T_minus has a pole at s=1/2 (t=0)")
    w = np.where(tiny, 1.0 + 2e-6j, 1.0 + 2j * t)  # dodge the zeta pole at w=1
    lg, z = _xi1_log_form(w, None if jets is None else jets.scaled(2.0))
    out = 0.5 * _scaled_real_part(lg.real, lg.imag, z, take_imag)
    if np.any(tiny):
        out[tiny] = evaluate(FunctionId.T_PLUS, 0.5).real
    return out


def _l4c_line(t: np.ndarray, jets=None) -> np.ndarray:
    lg, l4 = _l4c_log_form(0.5 + 1j * t, jets)
    return _scaled_real_part(lg.real, lg.imag, l4)


# ---------------------------------------------------------------------------
# the function table


@dataclass(frozen=True)
class ZeroCount:
    """Smooth count N(T) = x log(T/h_log) - x + c, x = T/h, of the zeros with
    ordinate in (0, T] (one per conjugate pair), and its density dN/dT."""

    h: float
    h_log: float
    c: float = 0.0

    def count(self, t: float) -> float:
        x = t / self.h
        return x * math.log(t / self.h_log) - x + self.c

    def density(self, t):
        """dN/dT at t, a float or an array."""
        return np.log(t / self.h_log) / self.h


@dataclass(frozen=True)
class FunctionSpec:
    """Every fact the library keeps about one function of zeta type.

    evaluator: 1-d complex array -> array of its values.
    series: the form whose log-Taylor series about 0 gives the sum rules
        (pole-free, except xi1, which has no radius).
    radius: default Taylor circle radius, inside the nearest zero.
    t_max: height of the default zero dataset.
    real_axis: one (a, b) bracket per real-axis zero, each refined on the
        series form (zeros.real_axis_zeros); the default dataset carries
        them.
    zeros: smooth zero count and density, for the density-model tails.
    line: real critical-line form r(t) on a float array (critical_line_form),
        read pointwise or, given TaylorJets about ordinates t, on the jets
        (critical_line_values).
    poles: the poles _singular declared on the evaluator.
    """

    evaluator: Callable
    series: FunctionId
    radius: Optional[float] = None
    t_max: Optional[float] = None
    real_axis: Tuple[Tuple[float, float], ...] = ()
    zeros: Optional[ZeroCount] = None
    line: Optional[Callable] = None

    @property
    def poles(self) -> Tuple[float, ...]:
        return getattr(self.evaluator, "poles", ())


_XI_ZEROS = ZeroCount(2.0 * math.pi, 2.0 * math.pi, 7.0 / 8.0)
_T_ZEROS = ZeroCount(math.pi, math.pi)
_L4_ZEROS = ZeroCount(2.0 * math.pi, math.pi / 2.0)  # upper half-plane zeros only

SPECS = {
    FunctionId.XI: FunctionSpec(
        _xi, FunctionId.XI, radius=4.0, t_max=2520.0, zeros=_XI_ZEROS, line=_xi_line
    ),
    FunctionId.XI1: FunctionSpec(_xi1, FunctionId.XI1),
    FunctionId.T_PLUS: FunctionSpec(
        _t_plus, FunctionId.T_PLUS_TILDE, t_max=1000.0, zeros=_T_ZEROS, line=_t_line
    ),
    FunctionId.T_MINUS: FunctionSpec(
        _t_minus, FunctionId.T_MINUS_TILDE, t_max=1000.0, real_axis=((3.5, 4.3), (-3.3, -2.5)),
        zeros=_T_ZEROS, line=partial(_t_line, take_imag=True),
    ),
    FunctionId.T_PLUS_TILDE: FunctionSpec(
        _t_plus_tilde, FunctionId.T_PLUS_TILDE, radius=2.0, zeros=_T_ZEROS
    ),
    FunctionId.T_MINUS_TILDE: FunctionSpec(
        _t_minus_tilde, FunctionId.T_MINUS_TILDE, radius=1.5, zeros=_T_ZEROS
    ),
    FunctionId.L4: FunctionSpec(_l4, FunctionId.L4_COMPLETED, zeros=_L4_ZEROS),
    FunctionId.L4_COMPLETED: FunctionSpec(
        _l4_completed, FunctionId.L4_COMPLETED, radius=3.0, t_max=1126.33,
        zeros=_L4_ZEROS, line=_l4c_line,
    ),
}


def evaluate(f: FunctionId, s):
    """Evaluate the selected function at complex s, a scalar or an array.

    Returns a complex for scalar s, else an array of the shape of s. Raises
    DomainError if any entry is not finite or has |Im s| > _IM_LIMIT,
    PoleError if any entry is a genuine pole and AccuracyError if any value
    is non-finite; removable singularities are filled by a limit stencil.
    """
    f = FunctionId(f)
    z = np.asarray(s, dtype=complex)
    finite = np.isfinite(z)
    if not finite.all():
        raise DomainError(f"{f.value} needs finite points, got {z[~finite][0]}")
    values = SPECS[f].evaluator(z.ravel())
    bad = ~np.isfinite(values)
    if bad.any():
        raise AccuracyError(f"non-finite value from {f} at s={z.ravel()[bad][0]}")
    return complex(values[0]) if z.ndim == 0 else values.reshape(z.shape)


def critical_line_values(f: FunctionId, t, jets=None):
    """Vectorised critical-line real form r(t); see critical_line_form.

    jets: None, or TaylorJets about ordinates near t. The Euler-Maclaurin
    direct sums are then read on the jets (_hurwitz_em_once), at the
    cutoff of their top; the values agree with the pointwise ones to
    rounding level, about 1e-12 relative to the largest |r| of the call.
    """
    f = FunctionId(f)
    if SPECS[f].line is None:
        raise DomainError(f"no critical-line real form for {f}")
    t = np.asarray(t, dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        raise DomainError(f"{f.value} needs finite ordinates, got {t[~finite][0]}")
    out = SPECS[f].line(np.atleast_1d(t), jets)
    return float(out[0]) if t.ndim == 0 else out


def critical_line_form(f: FunctionId, t: float) -> float:
    """Real restriction r(t) whose sign changes bracket critical-line zeros.

    XI -> xi(1/2+it); T_PLUS -> T_plus(1/2+it); T_MINUS -> T_minus(1/2+it)/i;
    L4_COMPLETED -> completed L4 at 1/2+it. Where the true magnitude would
    underflow double precision, the value is rescaled by a continuous
    positive factor (signs and zeros are preserved exactly).
    """
    return critical_line_values(f, float(t))


def laurent_check(f: FunctionId, pole):
    """(residue, constant term) at a simple pole declared by f's evaluator
    (FunctionSpec.poles), by averaging over 64 points on a circle of radius
    1e-2 about it. Raises DomainError at any other point."""
    f = FunctionId(f)
    pole = complex(pole)
    if not any(abs(pole - p) <= 1e-12 for p in SPECS[f].poles):
        raise DomainError(f"{f.value} has no declared pole at s={pole}")
    theta = 2.0 * math.pi * np.arange(64) / 64
    ring = 1e-2 * np.exp(1j * theta)
    vals = SPECS[f].evaluator(pole + ring)
    residue = np.mean(vals * ring)
    constant = np.mean(vals)
    return float(residue.real), float(constant.real)
