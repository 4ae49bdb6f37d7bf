"""Critical (exceptional) points of K_n(rho): the double eigenvalue -n.

Every critical point is a root t_c of U_{n-1}(t) -+ n with the known trivial
factors removed: type-1 points come from U_{n-1} - n, type-2 points from
U_{n-1} + n.  The parameter value follows as a Chebyshev ratio in t_c, with
half-integer degrees when n is even.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import ChebDegree, cheb_t, cheb_u
from .errors import DegenerateArgument, RootFindingFailure, SizeError, UnsupportedCase
from .kms import EigType, type_sign

_MERGE_DIST = 1e-8
_ORACLE_GAP = 1e-5  # scaled by n; QR loses half its digits at a defective eigenvalue


@dataclass(frozen=True)
class CriticalPoint:
    n: int
    eig_type: EigType
    t_c: complex
    mu_c: complex
    rho_c: complex
    lambda_c: complex


def _u_coeffs(n_minus_1: int) -> list[int]:
    """Integer monomial coefficients (ascending) of U_{n-1}."""
    prev, cur = [1], [0, 2]
    if n_minus_1 == 0:
        return prev
    for _ in range(n_minus_1 - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _divide_linear(coeffs: list[int], root: int) -> list[int]:
    """Exact synthetic division of an ascending-coefficient poly by (t - root)."""
    desc = coeffs[::-1]
    out = [desc[0]]
    for c in desc[1:]:
        out.append(c + root * out[-1])
    remainder = out.pop()
    if remainder != 0:
        raise RootFindingFailure(f"expected exact factor (t - {root}), remainder {remainder}")
    return out[::-1]


def q_polynomial(n: int, eig_type: EigType) -> list[int]:
    """The deflated critical polynomial, exact integer coefficients ascending.

    Type-1 divides U_{n-1} - n by (t-1) (even n) or (t^2-1) (odd n >= 5);
    type-2 divides U_{n-1} + n by (t+1) (even n) and by nothing (odd n).
    Type-1 with n = 3 is undefined: K_3 has the type-1 eigenvalue 1 - rho^2,
    which never bifurcates.
    """
    if n < 3:
        raise SizeError(f"need n >= 3, got {n}")
    if eig_type is EigType.Type1 and n == 3:
        raise UnsupportedCase("no type-1 critical polynomial for n = 3")
    coeffs = _u_coeffs(n - 1)
    coeffs[0] += type_sign(eig_type) * n
    if eig_type is EigType.Type1:
        coeffs = _divide_linear(coeffs, 1)
        if n % 2 == 1:
            coeffs = _divide_linear(coeffs, -1)
    elif n % 2 == 0:
        coeffs = _divide_linear(coeffs, -1)
    return coeffs


def _newton_polish(n: int, s: int, t: complex) -> complex:
    # residual U_{n-1}(t) + s n, derivative (n T_n - t U_{n-1})/(t^2 - 1)
    best, best_res = t, abs(cheb_u(n - 1, t) + s * n)
    for _ in range(40):
        u = cheb_u(n - 1, t)
        g = u + s * n
        dg = (n * cheb_t(n, t) - t * u) / (t * t - 1.0)
        if dg == 0:
            break
        t = t - g / dg
        res = abs(cheb_u(n - 1, t) + s * n)
        if res < best_res:
            best, best_res = t, res
        if res <= 1e-13 * n:
            break
    return best


def critical_t_values(n: int, eig_type: EigType) -> list[complex]:
    """All nontrivial roots of U_{n-1}(t) -+ n, Newton-polished.

    Roots come from the eigenvalues of the second-kind-basis colleague matrix
    (the monomial coefficients of U_{n-1} overflow well before n = 50, the
    Chebyshev-basis companion does not), then the known factor roots +/-1 are
    deflated and each survivor is polished on the Chebyshev-form residual.
    """
    q_polynomial(n, eig_type)  # validates n and the (Type1, n=3) exclusion
    s = type_sign(eig_type)
    size = n - 1
    colleague = np.zeros((size, size))
    for j in range(size):
        if j + 1 < size:
            colleague[j + 1, j] = 0.5
        if j - 1 >= 0:
            colleague[j - 1, j] = 0.5
    c = np.zeros(size + 1)
    c[size] = 1.0
    c[0] = s * n
    colleague[:, size - 1] -= c[:size] / (2.0 * c[size])
    raw = list(np.linalg.eigvals(colleague))

    if eig_type is EigType.Type1:
        trivial = [1.0] if n % 2 == 0 else [1.0, -1.0]
    else:
        trivial = [-1.0] if n % 2 == 0 else []
    for r in trivial:
        nearest = min(range(len(raw)), key=lambda i: abs(raw[i] - r))
        if abs(raw[nearest] - r) > 1e-6:
            raise RootFindingFailure(f"expected a root near t = {r}, none found")
        raw.pop(nearest)

    polished = []
    for t in raw:
        t = _newton_polish(n, s, complex(t))
        if abs(cheb_u(n - 1, t) + s * n) > 1e-9 * n:
            raise RootFindingFailure(f"root residual above tolerance at t = {t}")
        if all(abs(t - seen) > _MERGE_DIST for seen in polished):
            polished.append(t)
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished


def rho_c_of_t(n: int, t_c: complex, eig_type: EigType) -> complex:
    """Critical parameter value as a Chebyshev ratio at t_c.

    Odd n uses integer degrees (U ratio for type-1, T ratio for type-2);
    even n needs half-integer degrees (n +/- 1)/2, evaluated on the principal
    Arccos branch.  The ratio is branch-independent.
    """
    t_c = complex(t_c)
    if n % 2 == 1:
        if eig_type is EigType.Type1:
            num = cheb_u((n - 1) // 2, t_c)
            den = cheb_u((n - 3) // 2, t_c)
        else:
            num = cheb_t((n + 1) // 2, t_c)
            den = cheb_t((n - 1) // 2, t_c)
    else:
        if eig_type is EigType.Type1:
            num = cheb_u(ChebDegree(n - 1), t_c)
            den = cheb_u(ChebDegree(n - 3), t_c)
        else:
            num = cheb_t(ChebDegree(n + 1), t_c)
            den = cheb_t(ChebDegree(n - 1), t_c)
    if abs(den) < 1e-12 * (1.0 + abs(num)):
        raise DegenerateArgument(f"critical-rho denominator vanished at t_c = {t_c}")
    return num / den


@lru_cache(maxsize=None)
def _catalog(n: int) -> tuple:
    from .oracle import kms_spectrum  # deferred: oracle depends on geometry only

    points = []
    for eig_type in (EigType.Type1, EigType.Type2):
        if eig_type is EigType.Type1 and n == 3:
            continue
        for t_c in critical_t_values(n, eig_type):
            rho_c = rho_c_of_t(n, t_c, eig_type)
            if min(abs(rho_c - v) for v in (-1.0, 0.0, 1.0)) < 1e-9:
                continue  # excluded parameter values never carry a bifurcation
            gaps = np.sort(np.abs(kms_spectrum(n, rho_c).eigenvalues + n))
            if gaps[1] > _ORACLE_GAP * n:
                raise RootFindingFailure(
                    f"oracle found no double eigenvalue -{n} at rho_c = {rho_c} "
                    f"(gaps {gaps[:3]})")
            if n > 2 and len(gaps) > 2 and gaps[2] <= _ORACLE_GAP * n:
                raise RootFindingFailure(
                    f"unexpected eigenvalue multiplicity > 2 at rho_c = {rho_c}")
            points.append(CriticalPoint(
                n=n, eig_type=eig_type, t_c=t_c, mu_c=cmath.acos(t_c),
                rho_c=rho_c, lambda_c=complex(-n)))
    points.sort(key=lambda p: (p.eig_type.value, cmath.phase(p.rho_c),
                               abs(p.rho_c), p.rho_c.real, p.rho_c.imag))
    return tuple(points)


def all_critical_points(n: int) -> list[CriticalPoint]:
    """Every critical point of K_n, both types, oracle-verified.

    Each point is checked against the dense eigensolver: the spectrum of
    K_n(rho_c) must contain exactly two eigenvalues within 1e-5 n of -n.
    Points are ordered by (type, arg rho_c).
    """
    if n < 3:
        raise SizeError(f"need n >= 3, got {n}")
    return list(_catalog(n))
