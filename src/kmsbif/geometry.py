"""Local bifurcation geometry around a critical point.

All formulas live in polar coordinates centered at rho_c: eps = rho - rho_c =
|eps| e^{i theta}.  The level curve |lambda(rho)/lambda_c| = 1 + O(|eps|^{3/2})
is a two-branched cusped curve; the ray theta = pi - 2 theta_a bisects the
cusp and is the direction of maximum bifurcation.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

from .errors import DomainError, HypothesisViolation
from .kms import _finite_complex, _finite_real
from .puiseux import PuiseuxParams, _abs_sq, wrap_angle

# level-curve samples with a larger |eps| lie outside the series' validity region
_EPS_CAP = 0.5


@dataclass(frozen=True)
class CurveSamples:
    center: complex
    samples: list  # (theta, eps_mag, rho) with rho = center + eps_mag e^{i theta}


@dataclass(frozen=True)
class TrajectoryPoint:
    d: float
    re_pair: tuple[float, float]
    im_pair: tuple[float, float]
    mag_pair: tuple[float, float]


def cusp_bisector_angle(p: PuiseuxParams) -> float:
    """Direction theta = pi - 2 theta_a of the cusp bisector, in (-pi, pi]."""
    return wrap_angle(math.pi - 2.0 * p.theta_a)


def _level_eps(p: PuiseuxParams, theta: float) -> tuple[float, float]:
    half = 0.5 * theta + p.theta_a
    num = 2.0 * abs(p.a) * math.cos(half)
    den = _abs_sq(p.a) * math.sin(half) ** 2 + 2.0 * abs(p.b) * math.cos(theta + p.theta_b)
    return num, den


def local_level_curve(p: PuiseuxParams, rho_c: complex, theta_window: float = 0.8,
                      count: int = 161) -> CurveSamples:
    """Sample the local level curve over the cusp-centered theta window.

    |eps|(theta) = (2|a| cos(theta/2 + theta_a) / (|a|^2 sin^2(theta/2 +
    theta_a) + 2|b| cos(theta + theta_b)))^2.  The cusp sample (|eps| = 0 at
    theta = pi - 2 theta_a) is always included exactly once; samples past a
    sign change of the denominator, or with |eps| above 0.5, are outside
    the validity region and are dropped (with a warning).  Raises DomainError
    for a count that is not an integer >= 3 or a theta_window that is not a
    finite real > 0, a rho_c that is not a finite complex number, or an
    |a|^2 that overflows, and HypothesisViolation when |a|^2 - 2|b|cos(Theta) ~ 0.
    """
    rho_c = _finite_complex(rho_c, "rho_c")
    a_sq = _abs_sq(p.a)
    den_cusp = a_sq - 2.0 * abs(p.b) * math.cos(p.Theta)  # = 2c
    if abs(den_cusp) < 1e-10:
        raise HypothesisViolation("|a|^2 - 2|b|cos(Theta) ~ 0: no local level curve")
    theta_window = _finite_real(theta_window, "theta_window")
    if theta_window <= 0:
        raise DomainError(f"theta_window must be > 0, got {theta_window}")
    if not isinstance(count, numbers.Integral) or count < 3:
        raise DomainError(f"need an integer count >= 3 samples, got {count!r}")
    if count % 2 == 0:
        count += 1  # keep the cusp as the exact middle sample
    bis = cusp_bisector_angle(p)
    sgn = 1.0 if den_cusp > 0 else -1.0
    # the loop evaluates _level_eps inline, in its order of operations, with
    # the factors that do not depend on theta taken out of it
    cos, sin = math.cos, math.sin
    theta_a, theta_b = p.theta_a, p.theta_b
    two_a, two_b = 2.0 * abs(p.a), 2.0 * abs(p.b)
    cusp = (count - 1) // 2
    samples = []
    dropped = 0
    for i in range(count):
        theta = bis + theta_window * (2.0 * i / (count - 1) - 1.0)
        if i == cusp:
            samples.append((theta, 0.0, rho_c))  # the cusp itself
            continue
        half = 0.5 * theta + theta_a
        den = a_sq * sin(half) ** 2 + two_b * cos(theta + theta_b)
        if den * sgn <= 0.0:
            dropped += 1
            continue
        eps = (two_a * cos(half) / den) ** 2
        if eps > _EPS_CAP:
            dropped += 1
            continue
        rho = rho_c + eps * complex(cos(theta), sin(theta))
        samples.append((theta, eps, rho))
    if dropped:
        warnings.warn(f"{dropped} level-curve samples outside validity region dropped",
                      stacklevel=2)
    return CurveSamples(center=rho_c, samples=samples)


def cardioid_approx(p: PuiseuxParams, theta: float) -> float:
    """Cardioid |eps| ~ 4 sin^2((theta - (pi - 2 theta_a))/2) / (|a|^2 - 2|b|cos Theta)^2.

    This is the curve whose cusp geometry the level curve inherits; it shares
    the cusp, bisector, and tangent directions.  (As an approximation of
    |eps|(theta) it carries the shape, not the absolute scale: the exact
    theta -> bisector limit of the level curve is |a|^2 times this value.)
    Raises DomainError for a theta that is not a finite real, or where
    |a|^2 overflows.
    """
    theta = _finite_real(theta, "theta")
    den = _abs_sq(p.a) - 2.0 * abs(p.b) * math.cos(p.Theta)
    if abs(den) < 1e-10:
        raise HypothesisViolation("|a|^2 - 2|b|cos(Theta) ~ 0")
    bis = cusp_bisector_angle(p)
    return 4.0 * math.sin(0.5 * (theta - bis)) ** 2 / den ** 2


def trajectory_along_bisector(p: PuiseuxParams, d_values) -> list[TrajectoryPoint]:
    """Normalized eigenvalue pair along rho = rho_c + d e^{-2i theta_a}.

    d < 0 approaches the cusp along the bisector, d > 0 leaves along the
    opposite ray.  Pairs are (plus-branch, minus-branch) of the +/- sign in
    the series; all values are normalized by lambda_c.  Raises DomainError,
    before any point is built, for a d that is not a real number (float()
    rejects it) or is NaN or infinite, and, with any d <= 0, where |a|^2
    overflows.
    """
    d_values = [_finite_real(d, "d") for d in d_values]
    sqrt = math.sqrt
    mag_a, mag_b = abs(p.a), abs(p.b)
    cos_t, sin_t = math.cos(p.Theta), math.sin(p.Theta)
    # only d <= 0 reads |a|^2, which overflows for |a| past 1.3e154
    half_gap = _abs_sq(p.a) - 2.0 * mag_b * cos_t if min(d_values, default=1.0) <= 0.0 else None
    out = []
    for d in d_values:
        if d <= 0.0:
            ad = abs(d)
            root = mag_a * sqrt(ad)
            shift = ad * mag_b
            re = 1.0 - shift * cos_t
            mag = 1.0 + ad * 0.5 * half_gap
            out.append(TrajectoryPoint(d, (re, re), (root - shift * sin_t, -root - shift * sin_t),
                                       (mag, mag)))
        else:
            root = mag_a * sqrt(d)
            shift = d * mag_b
            base = 1.0 + shift * cos_t
            im = shift * sin_t
            pair = (base + root, base - root)
            out.append(TrajectoryPoint(d, pair, (im, im), pair))
    return out
