"""The mu-parameterization of the Kac-Murdock-Szego spectrum, and the shared checks.

K_n(rho) = [rho^|j-k|] is complex symmetric; only the oracle builds it, so
no closed form here can read it.  Eigenvalues come in two classes: type-1
(skew-symmetric eigenvectors) and type-2 (symmetric eigenvectors).  Both
classes are parameterized by a complex number mu via

    lambda = s sin(n mu)/sin(mu),    s = -1 (type-1), +1 (type-2)

with rho the corresponding sine (type-1) or cosine (type-2) half-angle ratio.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import numbers

import numpy as np

from .errors import DegenerateArgument, DomainError, SizeError

_FLOOR = 1e-12
_U = math.ulp(1.0) / 2  # unit roundoff


class EigType(enum.Enum):
    Type1 = 1
    Type2 = 2


def type_sign(eig_type: EigType) -> int:
    """Sign s used throughout: -1 for Type1, +1 for Type2; DomainError for anything else."""
    if not isinstance(eig_type, EigType):
        raise DomainError(f"eig_type must be an EigType, got {eig_type!r}")
    return -1 if eig_type is EigType.Type1 else 1


def _guard(num: complex, den: complex, what: str) -> None:
    if abs(den) < _FLOOR * (1.0 + abs(num)):
        raise DegenerateArgument(f"denominator of {what} below floor: |{den}|")


def _finite_real(value, name: str) -> float:
    """float(value); DomainError when float() rejects it (a string, None, a
    complex, an integer too large for a double such as 10**400) or when it
    is NaN or infinite."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number: {exc}") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _finite_reals(values, name: str) -> list:
    """[_finite_real(v, name) for v in values]; DomainError also when values
    is not iterable (None, a number)."""
    try:
        values = iter(values)
    except TypeError:
        raise DomainError(f"{name} values must be an iterable of real numbers, "
                          f"got {values!r}") from None
    return [_finite_real(v, name) for v in values]


def _finite_complex(value, name: str) -> complex:
    """complex(value), the complex twin of _finite_real; DomainError when
    complex() rejects it (a string that is not a number, None, a sequence,
    an integer too large for a double such as 10**400) or when it is NaN or
    infinite."""
    try:
        value = complex(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a complex number: {exc}") from None
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _mu_entry(func):
    """Run func(n, mu, eig_type) on n checked by check_order and mu made a
    finite complex; DomainError where its trigonometry overflows (cmath
    raises ValueError for a product such as n mu that reached inf) or its
    result is not finite."""
    @functools.wraps(func)
    def checked(n, mu, eig_type):
        n = check_order(n)
        mu = _finite_complex(mu, "mu")
        try:
            out = func(n, mu, eig_type)
            if np.isfinite(out).all():
                return out
        except (OverflowError, ValueError):
            pass
        raise DomainError(f"{func.__name__} overflows double precision at mu = {mu}")
    return checked


def check_order(n, n_max=None) -> int:
    """The one check of a matrix order: SizeError unless n is an integer >= 3,
    and <= n_max when the caller passes its bound.  Returns an int (numpy
    integers pass; 8.0 and "8" do not).  The message leaves n out: str()
    refuses an int of more than 4300 digits."""
    if not isinstance(n, numbers.Integral) or n < 3 or (n_max is not None and n > n_max):
        raise SizeError("need an integer n >= 3" if n_max is None else
                        f"need an integer n with 3 <= n <= {n_max}")
    return int(n)


def _sin_vanishes(sin_mu: complex, mu: complex) -> bool:
    """Whether sin(mu) = sin_mu is below _FLOOR + 4 u |mu|, which covers the rounding mu carries."""
    return abs(sin_mu) < _FLOOR + 4 * _U * abs(mu)


@_mu_entry
def lambda_of_mu(n: int, mu: complex, eig_type: EigType) -> complex:
    s = cmath.sin(mu)
    num = cmath.sin(n * mu)
    _guard(num, s, "lambda(mu)")
    return type_sign(eig_type) * num / s


@_mu_entry
def rho_of_mu(n: int, mu: complex, eig_type: EigType) -> complex:
    """rho(mu): sine half-angle ratio for type-1, cosine ratio for type-2."""
    f = cmath.sin if type_sign(eig_type) < 0 else cmath.cos
    num = f((n + 1) * mu / 2)
    den = f((n - 1) * mu / 2)
    _guard(num, den, "rho(mu)")
    return num / den


@_mu_entry
def rho_prime_of_mu(n: int, mu: complex, eig_type: EigType) -> complex:
    """d rho / d mu = -(lambda(mu) + n) sin(mu) / (1 + s cos((n-1) mu))."""
    lam = lambda_of_mu(n, mu, eig_type)
    num = -(lam + n) * cmath.sin(mu)
    den = 1.0 + type_sign(eig_type) * cmath.cos((n - 1) * mu)
    _guard(num, den, "rho'(mu)")
    return num / den


@_mu_entry
def eigenvector_of_mu(n: int, mu: complex, eig_type: EigType) -> np.ndarray:
    """Unnormalized eigenvector of K_n(rho(mu)) for eigenvalue lambda(mu).

    Entries are sin(mu (j - (n-1)/2)) for type-1 and cos(...) for type-2,
    j = 0 .. n-1.  Raises DegenerateArgument when mu is a multiple of pi, and
    DomainError where n mu overflows or rho(mu) lands on {+/-1, +/-(n+1)/(n-1)}.
    """
    # first, for its DomainError where n mu overflows: the pi floor grows with |mu|
    rho = rho_of_mu(n, mu, eig_type)
    if _sin_vanishes(cmath.sin(mu), mu):
        raise DegenerateArgument(f"mu = {mu} is a multiple of pi")
    for x in (1.0, -1.0, (n + 1) / (n - 1), -(n + 1) / (n - 1)):
        if abs(rho - x) < 1e-12 * (1.0 + abs(x)):
            raise DomainError(f"rho = {rho} is an excluded parameter value")
    j = np.arange(n)
    arg = mu * (j - (n - 1) / 2.0)
    return np.sin(arg) if type_sign(eig_type) < 0 else np.cos(arg)


def isotropy_defect(v) -> complex:
    """Unconjugated sum of squares sum_j v_j^2 (zero iff the vector is isotropic).

    For eigenvector_of_mu output this equals (n + lambda(mu))/2.  DomainError
    for a v that is not an array of numbers, and for a sum that is not finite
    (an entry that is NaN or infinite, or squares that overflow).
    """
    try:
        v = np.asarray(v)
        with np.errstate(over="ignore", invalid="ignore"):
            total = complex(np.sum(v * v))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"v must be an array of numbers: {exc}") from None
    if not cmath.isfinite(total):
        raise DomainError(f"sum of squares is not finite: {total}")
    return total
