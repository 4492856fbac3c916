"""Reference values computed with mpmath, apart from the library.

Nothing here imports zetasums: the checks compare the library's outputs
against these independent computations (or against constants of the
theory), so a fault in the library cannot hide in its own reference.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30
CHI4 = [0, 1, 0, -1]  # the non-principal character mod 4


def sigma1_xi() -> float:
    """sigma_1 of xi: 1 + gamma/2 - log(4 pi)/2."""
    with mp.workdps(DPS):
        return float(1 + mp.euler / 2 - mp.log(4 * mp.pi) / 2)


def y_star() -> float:
    """Collision parameter of the two-term xi_1 family: 4 pi e^(-gamma)."""
    with mp.workdps(DPS):
        return float(4 * mp.pi * mp.exp(-mp.euler))


def xi_count(t: float) -> int:
    """Number of zeta zeros with ordinate in (0, t]."""
    return int(mp.nzeros(t))


def xi_ordinate(n: int) -> float:
    """Ordinate of the n-th zeta zero."""
    return float(mp.zetazero(n).imag)


def _xi1(w):
    return mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w)


def critical_line_sign(function: str, t: float) -> int:
    """Sign of the real critical-line form of a function at 1/2 + it.

    On the line, T+ = Re xi_1(1 + 2it) / 2 and T-/i = Im xi_1(1 + 2it) / 2;
    the completed mod-4 L function 2^(s-1) pi^(-(s+1)/2) Gamma((s+1)/2) L(s)
    is real there.
    """
    with mp.workdps(DPS):
        t = mp.mpf(t)
        if function in ("tplus", "tminus"):
            v = _xi1(1 + 2j * t)
            part = v.real if function == "tplus" else v.imag
        elif function == "l4c":
            s = mp.mpc(0.5, t)
            part = (
                2 ** (s - 1)
                * mp.pi ** (-(s + 1) / 2)
                * mp.gamma((s + 1) / 2)
                * mp.dirichlet(s, CHI4)
            ).real
        else:
            raise ValueError(f"no critical-line form for {function!r}")
        return int(mp.sign(part))


def changes_sign_across(function: str, t: float, delta: float = 1e-8) -> bool:
    """True when the critical-line form changes sign between t - delta and t + delta."""
    return critical_line_sign(function, t - delta) * critical_line_sign(function, t + delta) < 0


def _u_and_log_derivative(s):
    """U(s) = xi_1(2s-1)/xi_1(2s) and U'(s)/U(s)."""

    def dlog_xi1(w):
        return -mp.log(mp.pi) / 2 + mp.digamma(w / 2) / 2 + mp.zeta(w, 1, 1) / mp.zeta(w)

    u = _xi1(2 * s - 1) / _xi1(2 * s)
    return u, 2 * (dlog_xi1(2 * s - 1) - dlog_xi1(2 * s))


def v_modulus(s: complex) -> float:
    """|V(s)| with V = (1 + U)/(1 - U)."""
    with mp.workdps(DPS):
        u, _ = _u_and_log_derivative(mp.mpc(s))
        return float(abs((1 + u) / (1 - u)))


def v_prime_zero(start: complex) -> complex:
    """Zero of V' = 2 U' / (1 - U)^2 found by mpmath's secant solver from start."""

    def v_prime(s):
        u, dlog = _u_and_log_derivative(s)
        return 2 * u * dlog / (1 - u) ** 2

    with mp.workdps(DPS):
        s0 = mp.mpc(start)
        return complex(mp.findroot(v_prime, (s0, s0 + 1e-4j)))
