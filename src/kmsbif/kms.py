"""Kac-Murdock-Szego matrix construction and the mu-parameterization.

K_n(rho) has entries rho^|j-k|; it is complex symmetric (not Hermitian for
complex rho).  Eigenvalues come in two classes: type-1 (skew-symmetric
eigenvectors) and type-2 (symmetric eigenvectors).  Both classes are
parameterized by a complex number mu via

    lambda = s sin(n mu)/sin(mu),    s = -1 (type-1), +1 (type-2)

with rho the corresponding sine (type-1) or cosine (type-2) half-angle ratio.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArgument, DomainError, SizeError

_FLOOR = 1e-12


class EigType(enum.Enum):
    Type1 = 1
    Type2 = 2


def type_sign(eig_type: EigType) -> int:
    """Sign s used throughout: -1 for Type1, +1 for Type2; DomainError for anything else."""
    if not isinstance(eig_type, EigType):
        raise DomainError(f"eig_type must be an EigType, got {eig_type!r}")
    return -1 if eig_type is EigType.Type1 else 1


@dataclass(frozen=True, eq=False)
class KmsMatrix:
    """One read-only matrix whose spectrum is either all n eigenvalues of
    K_n(rho) (build_matrix: the whole matrix) or one type's (the catalog
    gate: that type's oracle.type_blocks)."""
    n: int
    rho: complex
    block: np.ndarray

    def __post_init__(self):
        self.block.setflags(write=False)


def _guard(num: complex, den: complex, what: str) -> None:
    if abs(den) < _FLOOR * (1.0 + abs(num)):
        raise DegenerateArgument(f"denominator of {what} below floor: |{den}|")


def _finite_real(value, name: str) -> float:
    """float(value); DomainError when float() rejects it (a string, None, a
    complex) or when it is NaN or infinite."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number: {exc}") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _finite_complex(value, name: str) -> complex:
    """complex(value), the complex twin of _finite_real; DomainError when
    complex() rejects it (a string that is not a number, None) or when it is
    NaN or infinite."""
    try:
        value = complex(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a complex number: {exc}") from None
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _mu_entry(func):
    """Run func(n, mu, eig_type) on mu made a finite complex; DomainError
    where its trigonometry overflows or its result is not finite."""
    @functools.wraps(func)
    def checked(n, mu, eig_type):
        mu = _finite_complex(mu, "mu")
        try:
            out = func(n, mu, eig_type)
            if np.isfinite(out).all():
                return out
        except OverflowError:
            pass
        raise DomainError(f"{func.__name__} overflows double precision at mu = {mu}")
    return checked


def check_order(n) -> int:
    """The one check of a matrix order: SizeError unless n is an integer >= 3.

    Returns it as an int: numpy integers pass; floats such as 8.0 and strings do not.
    """
    if not isinstance(n, numbers.Integral) or n < 3:
        raise SizeError(f"need an integer n >= 3, got {n!r}")
    return int(n)


def _powers(n: int, rho) -> np.ndarray:
    """rho^0 .. rho^(n-1), for a scalar or an array rho, along a new last axis."""
    rho = np.asarray(rho)
    factors = np.ones(rho.shape + (n,), dtype=complex)
    factors[..., 1:] = rho[..., None]
    return np.cumprod(factors, axis=-1)


def build_matrix(n: int, rho: complex) -> KmsMatrix:
    """K_n(rho), with entries rho^|j-k|."""
    n = check_order(n)
    j = np.arange(n)
    entries = _powers(n, rho)[np.abs(j[:, None] - j[None, :])]
    return KmsMatrix(n=n, rho=complex(rho), block=entries)


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
    j = 0 .. n-1.  Raises DegenerateArgument when mu is a multiple of pi and
    DomainError when rho(mu) lands on {+/-1, +/-(n+1)/(n-1)}.
    """
    if abs(cmath.sin(mu)) < _FLOOR * (1.0 + abs(mu)):
        raise DegenerateArgument(f"mu = {mu} is a multiple of pi")
    rho = rho_of_mu(n, mu, eig_type)
    for x in (1.0, -1.0, (n + 1) / (n - 1), -(n + 1) / (n - 1)):
        if abs(rho - x) < 1e-12 * (1.0 + abs(x)):
            raise DomainError(f"rho = {rho} is an excluded parameter value")
    j = np.arange(n)
    arg = mu * (j - (n - 1) / 2.0)
    return np.sin(arg) if type_sign(eig_type) < 0 else np.cos(arg)


def isotropy_defect(v) -> complex:
    """Unconjugated sum of squares sum_j v_j^2 (zero iff the vector is isotropic).

    For eigenvector_of_mu output this equals (n + lambda(mu))/2.
    """
    v = np.asarray(v)
    return complex(np.sum(v * v))
