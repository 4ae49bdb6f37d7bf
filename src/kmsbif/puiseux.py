"""Puiseux-series machinery for the eigenvalue pair coalescing at -n.

Near a critical point the two eigenvalues obey

    lambda(rho) = lambda_c [ 1 +/- a eps^{1/2} + b eps + O(eps^{3/2}) ],
    eps = rho - rho_c.

Two independent routes to (a, b) are provided: closed forms in the derivatives
of lambda(mu) and rho(mu) at mu_c, where rho'(mu_c) = 0, and closed forms
directly in t_c.  They must agree, with a defined only up to a global sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .chebyshev import cheb_t
from .errors import DegenerateArgument, DomainError, HypothesisViolation
from .kms import _finite_complex, _sin_vanishes, check_order, type_sign

if TYPE_CHECKING:  # pragma: no cover
    from .critical import CriticalPoint

_TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]; DomainError for an x that is not a finite real."""
    try:
        return x - _TWO_PI * math.ceil((x - math.pi) / _TWO_PI)
    except (TypeError, ValueError, OverflowError):  # ceil of a complex, a NaN, an inf
        raise DomainError(f"angle must be a finite real number, got {x!r}") from None


@dataclass(frozen=True)
class PuiseuxParams:
    """The series record; DomainError for a field that is not a finite number."""
    lambda_c: complex
    a: complex
    b: complex
    theta_a: float
    theta_b: float
    Theta: float
    c: float

    def __post_init__(self):
        for name, value in vars(self).items():
            _finite_complex(value, name)


@dataclass(frozen=True)
class DerivativeBundle:
    lambda_c_p: complex
    lambda_c_pp: complex
    rho_c_pp: complex
    rho_c_ppp: complex


def derivatives_at_critical(cp: "CriticalPoint") -> DerivativeBundle:
    """Closed-form lambda', lambda'', rho'', rho''' at mu_c.

    Evaluated in order, each using the previous: the chain comes from
    differentiating the mu-parameterization at the point where rho'(mu_c) = 0
    and lambda(mu_c) = -n.  Raises DomainError for a mu_c that is not a
    finite complex number and wherever a sine, a cosine or a derivative
    overflows double precision, and SizeError unless cp.n is an integer >= 3.
    """
    n = check_order(cp.n)
    mu = _finite_complex(cp.mu_c, "mu_c")
    s = type_sign(cp.eig_type)
    try:
        sin_mu, cos_mu = cmath.sin(mu), cmath.cos(mu)
        sin_nmu, cos_nmu = cmath.sin(n * mu), cmath.cos(n * mu)
        sin_m1, cos_m1 = cmath.sin((n - 1) * mu), cmath.cos((n - 1) * mu)
    except (OverflowError, ValueError):  # cmath raises ValueError once n mu reaches inf
        raise DomainError(f"sin and cos overflow at mu_c = {mu}") from None
    if _sin_vanishes(sin_mu, mu):
        raise DegenerateArgument(f"sin(mu_c) ~ 0 at mu_c = {mu}")
    den = 1.0 + s * cos_m1
    if abs(den) < 1e-12:
        raise DegenerateArgument(f"1 + s cos((n-1) mu_c) ~ 0 at mu_c = {mu}")
    lam_p = n * (cos_mu + s * cos_nmu) / sin_mu
    lam_pp = (-n * sin_mu - 2.0 * lam_p * cos_mu - s * n * n * sin_nmu) / sin_mu
    rho_pp = -lam_p * sin_mu / den
    rho_ppp = (s * 2.0 * (n - 1) * rho_pp * sin_m1
               - lam_pp * sin_mu - 2.0 * lam_p * cos_mu) / den
    bundle = DerivativeBundle(lam_p, lam_pp, rho_pp, rho_ppp)
    if not all(map(cmath.isfinite, vars(bundle).values())):
        raise DomainError(f"derivatives overflow at mu_c = {mu}: {bundle}")
    if abs(rho_pp) < 1e-10:
        raise HypothesisViolation(f"rho''(mu_c) ~ 0 at mu_c = {mu}")
    return bundle


def _abs_sq(a: complex) -> float:
    """abs(a) ** 2; DomainError where it overflows, for |a| past 1.3e154."""
    try:
        return abs(a) ** 2
    except OverflowError:
        raise DomainError(f"|a|^2 overflows double precision at a = {a}") from None


def _params_from_ab(lambda_c: complex, a: complex, b: complex) -> PuiseuxParams:
    theta_a = cmath.phase(a)
    theta_b = cmath.phase(b)
    big_theta = wrap_angle(theta_b - 2.0 * theta_a)
    c = 0.5 * (_abs_sq(a) - 2.0 * abs(b) * math.cos(big_theta))
    return PuiseuxParams(lambda_c=lambda_c, a=a, b=b, theta_a=theta_a, theta_b=theta_b,
                         Theta=big_theta, c=c)


def puiseux_from_derivatives(lambda_c: complex, d: DerivativeBundle) -> PuiseuxParams:
    """Series parameters from the derivative bundle.

    alpha = lambda' sqrt(2/rho'') on the principal branch (the square-root
    choice is a global sign convention on a), beta from the second-order term.
    Raises DomainError when lambda_c or a field of d is not a finite complex
    number, or when alpha or beta overflows.
    """
    lambda_c = _finite_complex(lambda_c, "lambda_c")
    lam_p, lam_pp, rho_pp, rho_ppp = (_finite_complex(v, name) for name, v in vars(d).items())
    try:  # abs() and ** raise OverflowError past the largest double
        if lambda_c == 0 or abs(lam_p) < 1e-12 or abs(rho_pp) < 1e-12:
            raise HypothesisViolation("need lambda_c, lambda'_c and rho''_c nonzero")
        alpha = lam_p * cmath.sqrt(2.0 / rho_pp)
        beta = (3.0 * lam_pp * rho_pp - lam_p * rho_ppp) / (3.0 * rho_pp ** 2)
    except OverflowError:
        raise DomainError(f"alpha or beta overflows double precision for {d}") from None
    return _params_from_ab(lambda_c, alpha / lambda_c, beta / lambda_c)


def puiseux_ab_from_t(cp: "CriticalPoint") -> PuiseuxParams:
    """Series parameters via the closed forms in t_c (no derivatives needed).

    Agrees with puiseux_from_derivatives(derivatives_at_critical(...)) up to
    the documented sign freedom in a; b is sign-fixed.  Raises SizeError
    unless cp.n is an integer >= 3, and DomainError for a t_c that is not a
    finite complex number.
    """
    n, t = check_order(cp.n), _finite_complex(cp.t_c, "t_c")
    s = type_sign(cp.eig_type)
    t_n = cheb_t(n, t)
    t_nm1 = cheb_t(n - 1, t)
    one_minus_t2 = 1.0 - t * t
    pivot = t + s * t_n
    if abs(one_minus_t2) < 1e-12 or abs(pivot) < 1e-12:
        raise DegenerateArgument(f"degenerate t_c = {t} (t^2 = 1 or t = -s T_n(t))")
    a = 1j * cmath.sqrt(2.0 / n) * cmath.sqrt(pivot * (1.0 + s * t_nm1) / one_minus_t2)
    num_b = (12.0 * t * t + 5.0 * n * (n + 1) * (t * t - 1.0)
             + 4.0 * (n + 1) * t_nm1 ** 2 - 4.0 * (n - 2) * t_n ** 2
             + s * (n + 1) * (4.0 * t * t - 1.0) * t_nm1
             - s * 3.0 * (n - 7) * t * t_n)
    b = num_b / (6.0 * n * (t * t - 1.0) * pivot)
    if a == 0:
        raise HypothesisViolation(f"a = 0 at t_c = {t}")
    return _params_from_ab(cp.lambda_c, a, b)


def eval_truncated_series(p: PuiseuxParams, eps: complex) -> tuple[complex, complex]:
    """Both branch values lambda_c (1 +/- a sqrt(eps) + b eps), principal sqrt.

    The pair is unordered; callers match branches by proximity.  DomainError
    for an eps that is not a finite complex number, and for a branch value
    that overflows double precision (eps = 1e308, say).
    """
    eps = _finite_complex(eps, "eps")
    root = cmath.sqrt(eps)
    common = 1.0 + p.b * eps
    pair = (p.lambda_c * (common + p.a * root), p.lambda_c * (common - p.a * root))
    if not all(map(cmath.isfinite, pair)):
        raise DomainError(f"truncated series overflows double precision at eps = {eps}")
    return pair
