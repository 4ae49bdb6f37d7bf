"""Chebyshev polynomials T_k and U_k of integer degree 0 <= k <= 10**6.

``cheb_t`` and ``cheb_u`` run the three-term recurrence in complex numbers,
the field of the critical roots t_c.  A value that is not finite in double
precision raises DomainError.
"""

from __future__ import annotations

import cmath
import numbers

from .errors import DomainError
from .kms import _finite_complex

# a step takes about 0.16 us (CPython 3.11, 2-vCPU Xeon VM), so a value takes at
# most about 0.2 s; critical_t_values reads degrees up to its largest order, 1024
_MAX_DEGREE = 10 ** 6


def _checked_degree(k) -> int:
    if not isinstance(k, numbers.Integral) or k < 0:
        raise DomainError(f"degree must be an integer >= 0, got {k!r}")
    if k > _MAX_DEGREE:  # too large to show: str() refuses an int past 4300 digits
        raise DomainError(f"degree must be at most {_MAX_DEGREE}")
    return int(k)


def _finite(value: complex, name: str, k: int, z: complex) -> complex:
    # checked once per call: an overflow leaves inf or nan in the recurrence to the end
    if not cmath.isfinite(value):
        raise DomainError(f"{name}_{k}({z}) is not finite in double precision")
    return value


def _t_recurrence(k: int, z: complex) -> complex:
    # forward three-term recurrence; stable off the interval (-1, 1)
    if k == 0:
        return complex(1.0)
    prev, cur = complex(1), z
    for _ in range(k - 1):
        prev, cur = cur, 2 * z * cur - prev
    return cur


def _u_recurrence(k: int, z: complex) -> complex:
    if k == 0:
        return complex(1.0)
    prev, cur = complex(1), 2 * z
    for _ in range(k - 1):
        prev, cur = cur, 2 * z * cur - prev
    return cur


def cheb_t(k, z) -> complex:
    """First-kind Chebyshev polynomial T_k(z) for an integer degree 0 <= k <= 10**6.

    z is taken as complex(z).  Raises DomainError for any other k, for a z that
    is not a finite complex number and when the value overflows double precision.
    """
    k, z = _checked_degree(k), _finite_complex(z, "z")
    return _finite(_t_recurrence(k, z), "T", k, z)


def cheb_u(k, z) -> complex:
    """Second-kind Chebyshev polynomial U_k(z) for an integer degree 0 <= k <= 10**6.

    z is taken as complex(z).  Raises DomainError for any other k, for a z that
    is not a finite complex number and when the value overflows double precision.
    """
    k, z = _checked_degree(k), _finite_complex(z, "z")
    return _finite(_u_recurrence(k, z), "U", k, z)
