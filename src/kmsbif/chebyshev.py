"""Chebyshev polynomials T_k and U_k for complex arguments.

Supports integer and half-integer degrees through a common representation
(``ChebDegree`` stores ``twice_k``), plus overflow-safe hyperbolic and
log-space forms for real arguments > 1.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .errors import DegenerateArgument, DomainError

_LN2 = math.log(2.0)
_BRANCH_TOL = 1e-10


@dataclass(frozen=True)
class ChebDegree:
    """Degree k = twice_k / 2, so integer and half-integer degrees share one form."""

    twice_k: int

    def __post_init__(self) -> None:
        if self.twice_k < 0:
            raise DomainError(f"degree must be >= 0, got k = {self.twice_k / 2}")

    @property
    def is_integer(self) -> bool:
        return self.twice_k % 2 == 0

    @property
    def value(self) -> float:
        return self.twice_k / 2.0


def _as_degree(k) -> ChebDegree:
    if isinstance(k, ChebDegree):
        return k
    if isinstance(k, numbers.Integral):
        return ChebDegree(2 * int(k))
    if isinstance(k, numbers.Real):
        twice = 2.0 * float(k)
        if twice != round(twice):
            raise DomainError(f"degree must be integer or half-integer, got {k}")
        return ChebDegree(int(round(twice)))
    raise DomainError(f"cannot interpret degree {k!r}")


def _t_recurrence(k: int, z):
    # forward three-term recurrence; stable off the interval (-1, 1)
    if k == 0:
        return 1.0 if isinstance(z, numbers.Real) else complex(1.0)
    prev, cur = type(z)(1), z
    for _ in range(k - 1):
        prev, cur = cur, 2 * z * cur - prev
    return cur


def _u_recurrence(k: int, z):
    if k == 0:
        return 1.0 if isinstance(z, numbers.Real) else complex(1.0)
    prev, cur = type(z)(1), 2 * z
    for _ in range(k - 1):
        prev, cur = cur, 2 * z * cur - prev
    return cur


def cheb_t(k, z):
    """Evaluate the first-kind Chebyshev polynomial T_k(z).

    Parameters
    ----------
    k : int, half-integer, or ChebDegree
        Degree.  Half-integer degrees are evaluated as cos(k Arccos z) on the
        principal branch; the result is branch-independent and a runtime check
        compares against the second Arccos branch.
    z : real or complex
        Evaluation point.  Real z > 1 routes through the hyperbolic form
        cosh(k arccosh z) to avoid cancellation.
    """
    deg = _as_degree(k)
    if deg.is_integer:
        ki = deg.twice_k // 2
        if isinstance(z, numbers.Real):
            x = float(z)
            if x > 1.0:
                return math.cosh(ki * math.acosh(x))
            if x < -1.0:
                sign = -1.0 if ki % 2 else 1.0
                return sign * math.cosh(ki * math.acosh(-x))
            return float(_t_recurrence(ki, x))
        return _t_recurrence(ki, complex(z))
    kh = deg.value
    mu = cmath.acos(complex(z))
    val = cmath.cos(kh * mu)
    other = cmath.cos(kh * -mu)  # second Arccos branch
    if abs(val - other) > _BRANCH_TOL * (1.0 + abs(val)):
        raise DegenerateArgument(f"branch-dependent T_{kh}({z})")
    return val


def cheb_u(k, z):
    """Evaluate the second-kind Chebyshev polynomial U_k(z).

    The degree k = -1 is accepted and gives U_{-1} = 0.  Half-integer degrees
    use sin((k+1) Arccos z)/sin(Arccos z) and are undefined at z = +/-1.
    """
    if isinstance(k, numbers.Real) and not isinstance(k, ChebDegree) and float(k) == -1.0:
        return 0.0 if isinstance(z, numbers.Real) else complex(0.0)
    deg = _as_degree(k)
    if deg.is_integer:
        ki = deg.twice_k // 2
        if isinstance(z, numbers.Real):
            x = float(z)
            if x > 1.0:
                v = math.acosh(x)
                if v == 0.0:
                    return float(ki + 1)
                return math.sinh((ki + 1) * v) / math.sinh(v)
            if x < -1.0:
                sign = -1.0 if ki % 2 else 1.0
                v = math.acosh(-x)
                if v == 0.0:
                    return sign * (ki + 1)
                return sign * math.sinh((ki + 1) * v) / math.sinh(v)
            if x == 1.0:
                return float(ki + 1)
            if x == -1.0:
                return float((ki + 1) * (-1 if ki % 2 else 1))
            return float(_u_recurrence(ki, x))
        return _u_recurrence(ki, complex(z))
    kh = deg.value
    zc = complex(z)
    if min(abs(zc - 1.0), abs(zc + 1.0)) < 1e-14:
        raise DegenerateArgument(f"U_{kh} undefined at z = {z}")
    mu = cmath.acos(zc)
    s = cmath.sin(mu)
    if abs(s) < 1e-12 * (1.0 + abs(cmath.sin((kh + 1) * mu))):
        raise DegenerateArgument(f"U_{kh} degenerate at z = {z}")
    val = cmath.sin((kh + 1) * mu) / s
    other = cmath.sin((kh + 1) * -mu) / cmath.sin(-mu)
    if abs(val - other) > _BRANCH_TOL * (1.0 + abs(val)):
        raise DegenerateArgument(f"branch-dependent U_{kh}({z})")
    return val


def cheb_t_hyperbolic(k: int, x: float) -> float:
    """T_k(x) = cosh(k arccosh x) for real x >= 1 (overflow-safe for k acosh x < ~700)."""
    if x < 1.0:
        raise DomainError(f"hyperbolic form requires x >= 1, got {x}")
    return math.cosh(int(k) * math.acosh(x))


def cheb_t_log(k: int, x: float) -> float:
    """log T_k(x) for real x > 1, computed without overflow.

    Uses log cosh(A) = A + log1p(exp(-2A)) - log 2 with A = k arccosh(x),
    which stays finite long after T_k itself overflows double precision.
    """
    if x <= 1.0:
        raise DomainError(f"log form requires x > 1, got {x}")
    if int(k) == 0:
        return 0.0
    return _log_cosh(int(k) * math.acosh(x))


# log cosh(x) and log sinh(x) for real x > 0, finite long after cosh(x) overflows
def _log_cosh(x: float) -> float:
    return x + math.log1p(math.exp(-2.0 * x)) - _LN2


def _log_sinh(x: float) -> float:
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2
