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
    n: int
    rho: complex
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def _guard(num: complex, den: complex, what: str) -> None:
    if abs(den) < _FLOOR * (1.0 + abs(num)):
        raise DegenerateArgument(f"denominator of {what} below floor: |{den}|")


def check_order(n) -> None:
    """The one check of a matrix order: SizeError unless n is an integer >= 3.

    numpy integers pass; floats such as 8.0 and strings do not.
    """
    if not isinstance(n, numbers.Integral) or n < 3:
        raise SizeError(f"need an integer n >= 3, got {n!r}")


def build_matrix(n: int, rho: complex) -> KmsMatrix:
    """Build K_n(rho) with entries rho^|j-k| by repeated multiplication."""
    check_order(n)
    powers = np.empty(n, dtype=complex)
    powers[0] = 1.0
    for k in range(1, n):
        powers[k] = powers[k - 1] * rho
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return KmsMatrix(n=n, rho=complex(rho), entries=powers[idx])


def lambda_of_mu(n: int, mu: complex, eig_type: EigType) -> complex:
    s = cmath.sin(mu)
    num = cmath.sin(n * mu)
    _guard(num, s, "lambda(mu)")
    return type_sign(eig_type) * num / s


def rho_of_mu(n: int, mu: complex, eig_type: EigType) -> complex:
    """rho(mu): sine half-angle ratio for type-1, cosine ratio for type-2."""
    f = cmath.sin if type_sign(eig_type) < 0 else cmath.cos
    num = f((n + 1) * mu / 2)
    den = f((n - 1) * mu / 2)
    _guard(num, den, "rho(mu)")
    return num / den


def rho_prime_of_mu(n: int, mu: complex, eig_type: EigType) -> complex:
    """d rho / d mu = -(lambda(mu) + n) sin(mu) / (1 + s cos((n-1) mu))."""
    lam = lambda_of_mu(n, mu, eig_type)
    num = -(lam + n) * cmath.sin(mu)
    den = 1.0 + type_sign(eig_type) * cmath.cos((n - 1) * mu)
    _guard(num, den, "rho'(mu)")
    return num / den


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
