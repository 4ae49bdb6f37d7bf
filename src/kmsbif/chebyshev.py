"""Chebyshev polynomials T_k and U_k of integer degree.

``cheb_t`` and ``cheb_u`` run the three-term recurrence, in floats for a real
argument and in complex numbers otherwise.  For real x > 1 there is also
log T_k(x), which stays finite after T_k overflows.  A value that is not
finite in double precision raises DomainError.
"""

from __future__ import annotations

import cmath
import math
import numbers

from .errors import DomainError

_LN2 = math.log(2.0)


def _checked_degree(k, lowest: int) -> int:
    if not isinstance(k, numbers.Integral) or k < lowest:
        raise DomainError(f"degree must be an integer >= {lowest}, got {k!r}")
    return int(k)


def _as_field(z):
    return float(z) if isinstance(z, numbers.Real) else complex(z)


def _finite(value, name: str, k: int, z):
    # checked once per call: an overflow leaves inf or nan in the recurrence to the end
    if not cmath.isfinite(value):
        raise DomainError(f"{name}_{k}({z}) is not finite in double precision")
    return value


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
    """First-kind Chebyshev polynomial T_k(z) for an integer degree k >= 0.

    Raises DomainError when the value overflows double precision.
    """
    k, z = _checked_degree(k, 0), _as_field(z)
    return _finite(_t_recurrence(k, z), "T", k, z)


def cheb_u(k, z):
    """Second-kind Chebyshev polynomial U_k(z) for an integer degree k >= -1.

    The degree k = -1 is accepted and gives U_{-1} = 0.  Raises DomainError
    when the value overflows double precision.
    """
    k, z = _checked_degree(k, -1), _as_field(z)
    return type(z)(0) if k == -1 else _finite(_u_recurrence(k, z), "U", k, z)


def cheb_t_log(k: int, x: float) -> float:
    """log T_k(x) for real x > 1, computed without overflow.

    Uses log cosh(A) = A + log1p(exp(-2A)) - log 2 with A = k arccosh(x),
    which stays finite long after T_k itself overflows double precision.
    Raises DomainError for a degree that is not an integer >= 0, unless
    1 < x < inf (NaN included), and when log T_k(x) itself overflows.
    """
    k = _checked_degree(k, 0)
    if not 1.0 < x < math.inf:
        raise DomainError(f"log form requires 1 < x < inf, got {x}")
    if k == 0:
        return 0.0
    try:
        value = _log_cosh(k * math.acosh(x))
    except OverflowError:  # k itself is beyond float range
        value = math.inf
    return _finite(value, "log T", k, x)


# log cosh(x) and log sinh(x) for real x > 0, finite long after cosh(x) overflows
def _log_cosh(x: float) -> float:
    return x + math.log1p(math.exp(-2.0 * x)) - _LN2


def _log_sinh(x: float) -> float:
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2
