"""Critical (exceptional) points of K_n(rho): the double eigenvalue -n.

Every critical point is a root t_c of U_{n-1}(t) -+ n with the known trivial
roots +/-1 removed: type-1 points come from U_{n-1} - n, type-2 points from
U_{n-1} + n.  The parameter value follows as a Chebyshev ratio in t_c, with
half-integer degrees when n is even.  The oracle takes part only through
oracle.gate, which accepts or rejects each point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import cheb_t, cheb_u
from .errors import DegenerateArgument, DomainError, RootFindingFailure
from .kms import EigType, _finite_complex, _guard, check_order, type_sign
from .oracle import gate

_MERGE_DIST = 1e-8
_MAX_ROOTS_N = 1024  # the O(n^3) colleague solve's largest n; see critical_t_values
_MAX_CATALOG_N = 384  # the largest n the catalog accepts; see all_critical_points


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of K_n: the double eigenvalue lambda_c = -n at rho_c.

    gate_gap is the second-smallest |lambda + n| that oracle.gate measured on
    the point's own type block when it accepted the point, at most
    GATE_RADIUS n; None means the point was not gated (built by hand).  It
    takes no part in equality, so a point built without it equals the
    catalog's point.
    """
    n: int
    eig_type: EigType
    t_c: complex
    mu_c: complex
    rho_c: complex
    lambda_c: complex
    gate_gap: float | None = field(default=None, compare=False)


def _newton_polish(n: int, s: int, t: complex) -> tuple[complex, float]:
    """Newton on g(t) = U_{n-1}(t) + s n; returns the best iterate and its |g|."""
    # derivative (n T_n - t U_{n-1})/(t^2 - 1); each step evaluates U_{n-1} once
    u = cheb_u(n - 1, t)
    best, best_res = t, abs(u + s * n)
    for _ in range(40):
        dg = (n * cheb_t(n, t) - t * u) / (t * t - 1.0)
        if dg == 0:
            break
        t = t - (u + s * n) / dg
        u = cheb_u(n - 1, t)
        res = abs(u + s * n)
        if res < best_res:
            best, best_res = t, res
        if res <= 1e-13 * n:
            break
    return best, best_res


def critical_t_values(n: int, eig_type: EigType) -> list[complex]:
    """All nontrivial roots t_c of U_{n-1}(t) + s n (s = type_sign), Newton-polished.

    The roots are the eigenvalues of the colleague matrix in the second-kind
    Chebyshev basis (monomial coefficients overflow long before n = 50), less
    the trivial roots t = +/-1, sorted by (real, imag).  That leaves n - 2
    roots for even n and n - 3 (type 1) or n - 1 (type 2) for odd n, so type 1
    at n = 3 gives [] (K_3's type-1 eigenvalue 1 - rho^2 never bifurcates).
    Both types take about 6 s together at n = 1024 on a 2-vCPU Xeon VM: SizeError,
    before the colleague matrix is built, unless n is an integer in [3, 1024].
    RootFindingFailure when the colleague eigensolve fails, a trivial root is
    missing, a polished residual exceeds 1e-9 n or two polished roots coincide.
    """
    n = check_order(n, _MAX_ROOTS_N)
    s = type_sign(eig_type)
    size = n - 1
    colleague = np.zeros((size, size))
    off = np.arange(size - 1)
    colleague[off + 1, off] = colleague[off, off + 1] = 0.5
    colleague[0, size - 1] -= s * n / 2.0
    try:
        raw = list(np.linalg.eigvals(colleague))
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc

    # U_{n-1}(+/-1) = (+/-1)^(n-1) n, so t = 1 is a root for s = -1 and t = -1 for s = (-1)^n
    for r in [r for r, root_sign in ((1.0, -1), (-1.0, (-1) ** n)) if s == root_sign]:
        nearest = min(range(len(raw)), key=lambda i: abs(raw[i] - r))
        if abs(raw[nearest] - r) > 1e-6:
            raise RootFindingFailure(f"expected a root near t = {r}, none found")
        raw.pop(nearest)

    polished = []
    for t in raw:
        t, residual = _newton_polish(n, s, complex(t))
        if residual > 1e-9 * n:
            raise RootFindingFailure(f"root residual above tolerance at t = {t}")
        polished.append(t)
    polished.sort(key=lambda z: (z.real, z.imag))
    # sorted by real part: compare each root with the earlier ones within _MERGE_DIST in real part
    for i in range(1, len(polished)):
        j = i - 1
        while j >= 0 and polished[i].real - polished[j].real <= _MERGE_DIST:
            if abs(polished[i] - polished[j]) <= _MERGE_DIST:
                raise RootFindingFailure(f"polished roots coincide at t = {polished[i]}")
            j -= 1
    return polished


def rho_c_of_t(n: int, t_c: complex, eig_type: EigType) -> complex:
    """Critical parameter value as a Chebyshev ratio at t_c.

    Odd n: U_{(n-1)/2}/U_{(n-3)/2} (type 1) or T_{(n+1)/2}/T_{(n-1)/2} (type 2).
    Even n needs the half-integer degrees (n +/- 1)/2, evaluated in place from
    mu = Arccos t_c; the ratio is even in mu, so the branch does not matter.
    Raises SizeError unless n is an integer >= 3, DomainError for a t_c that
    is not a finite complex number or where |t_c -/+ 1| or a Chebyshev value
    overflows double precision, and DegenerateArgument at t_c = +/-1 for even
    n and wherever the denominator vanishes.
    """
    n = check_order(n)
    type1 = type_sign(eig_type) < 0
    t_c = _finite_complex(t_c, "t_c")
    if n % 2 == 1:
        if type1:
            num = cheb_u((n - 1) // 2, t_c)
            den = cheb_u((n - 3) // 2, t_c)
        else:
            num = cheb_t((n + 1) // 2, t_c)
            den = cheb_t((n - 1) // 2, t_c)
    else:
        try:
            if min(abs(t_c - 1.0), abs(t_c + 1.0)) < 1e-14:
                raise DegenerateArgument(f"critical-rho ratio undefined at t_c = {t_c}")
            mu = cmath.acos(t_c)
            if type1:
                s = cmath.sin(mu)  # U_k = sin((k+1)mu)/sin(mu), k = (n-1)/2 and (n-3)/2
                num = cmath.sin((n + 1) / 2 * mu) / s
                den = cmath.sin((n - 1) / 2 * mu) / s
            else:
                num = cmath.cos((n + 1) / 2 * mu)
                den = cmath.cos((n - 1) / 2 * mu)
        except OverflowError:
            raise DomainError(f"critical-rho ratio overflows at t_c = {t_c}") from None
    _guard(num, den, f"the critical-rho ratio at t_c = {t_c}")
    return num / den


def all_critical_points(n: int) -> list[CriticalPoint]:
    """Every critical point of K_n, both types, each accepted by oracle.gate and
    carrying the gap the gate measured as gate_gap.

    Each call builds the catalog (0.07, 0.76 and 6.3 s at n = 64, 128, 256,
    one thread on a 2-vCPU Xeon VM); a caller that reads it twice keeps the
    list.  Points are ordered by (type, arg rho_c).  SizeError unless n is an
    integer in [3, 384], the largest order CI builds: the gate's radius does not
    scale with the norm of K_n(rho_c) (ROADMAP item 13), so the worst gate_gap / n
    reads 8.2e-6 at n = 400 and 9.93e-6 at 448 against 1e-5, and at 480 a true
    point fails the gate.
    """
    n = check_order(n, _MAX_CATALOG_N)
    points = []
    for eig_type in EigType:
        for t_c in critical_t_values(n, eig_type):
            rho_c = rho_c_of_t(n, t_c, eig_type)
            points.append(CriticalPoint(
                n=n, eig_type=eig_type, t_c=t_c, mu_c=cmath.acos(t_c),
                rho_c=rho_c, lambda_c=complex(-n), gate_gap=gate(n, rho_c, eig_type)))
    points.sort(key=lambda p: (p.eig_type.value, cmath.phase(p.rho_c),
                               abs(p.rho_c), p.rho_c.real, p.rho_c.imag))
    return points
