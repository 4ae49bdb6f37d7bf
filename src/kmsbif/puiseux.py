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
from .errors import DegenerateArgument, HypothesisViolation
from .kms import type_sign

if TYPE_CHECKING:  # pragma: no cover
    from .critical import CriticalPoint

_TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    return x - _TWO_PI * math.ceil((x - math.pi) / _TWO_PI)


@dataclass(frozen=True)
class PuiseuxParams:
    lambda_c: complex
    a: complex
    b: complex
    theta_a: float
    theta_b: float
    Theta: float
    c: float


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
    and lambda(mu_c) = -n.
    """
    n, mu = cp.n, cp.mu_c
    s = type_sign(cp.eig_type)
    sin_mu, cos_mu = cmath.sin(mu), cmath.cos(mu)
    sin_nmu, cos_nmu = cmath.sin(n * mu), cmath.cos(n * mu)
    if abs(sin_mu) < 1e-12 * (1.0 + abs(mu)):
        raise DegenerateArgument(f"sin(mu_c) ~ 0 at mu_c = {mu}")
    den = 1.0 + s * cmath.cos((n - 1) * mu)
    if abs(den) < 1e-12:
        raise DegenerateArgument(f"1 + s cos((n-1) mu_c) ~ 0 at mu_c = {mu}")
    lam_p = n * (cos_mu + s * cos_nmu) / sin_mu
    lam_pp = (-n * sin_mu - 2.0 * lam_p * cos_mu - s * n * n * sin_nmu) / sin_mu
    rho_pp = -lam_p * sin_mu / den
    rho_ppp = (s * 2.0 * (n - 1) * rho_pp * cmath.sin((n - 1) * mu)
               - lam_pp * sin_mu - 2.0 * lam_p * cos_mu) / den
    if abs(rho_pp) < 1e-10:
        raise HypothesisViolation(f"rho''(mu_c) ~ 0 at mu_c = {mu}")
    return DerivativeBundle(lam_p, lam_pp, rho_pp, rho_ppp)


def _params_from_ab(lambda_c: complex, a: complex, b: complex) -> PuiseuxParams:
    theta_a = cmath.phase(a)
    theta_b = cmath.phase(b)
    big_theta = wrap_angle(theta_b - 2.0 * theta_a)
    c = 0.5 * (abs(a) ** 2 - 2.0 * abs(b) * math.cos(big_theta))
    return PuiseuxParams(lambda_c=lambda_c, a=a, b=b, theta_a=theta_a, theta_b=theta_b,
                         Theta=big_theta, c=c)


def puiseux_from_derivatives(lambda_c: complex, d: DerivativeBundle) -> PuiseuxParams:
    """Series parameters from the derivative bundle.

    alpha = lambda' sqrt(2/rho'') on the principal branch (the square-root
    choice is a global sign convention on a), beta from the second-order term.
    """
    if lambda_c == 0:
        raise HypothesisViolation("lambda_c = 0")
    if abs(d.lambda_c_p) < 1e-12 or abs(d.rho_c_pp) < 1e-12:
        raise HypothesisViolation("need lambda'_c != 0 and rho''_c != 0")
    alpha = d.lambda_c_p * cmath.sqrt(2.0 / d.rho_c_pp)
    beta = (3.0 * d.lambda_c_pp * d.rho_c_pp - d.lambda_c_p * d.rho_c_ppp) \
        / (3.0 * d.rho_c_pp ** 2)
    return _params_from_ab(lambda_c, alpha / lambda_c, beta / lambda_c)


def puiseux_ab_from_t(cp: "CriticalPoint") -> PuiseuxParams:
    """Series parameters via the closed forms in t_c (no derivatives needed).

    Agrees with puiseux_from_derivatives(derivatives_at_critical(...)) up to
    the documented sign freedom in a; b is sign-fixed.
    """
    n, t = cp.n, cp.t_c
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

    The pair is unordered; callers match branches by proximity.
    """
    root = cmath.sqrt(eps)
    common = 1.0 + p.b * eps
    return (p.lambda_c * (common + p.a * root), p.lambda_c * (common - p.a * root))
