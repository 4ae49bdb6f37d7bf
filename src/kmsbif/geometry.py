"""Local bifurcation geometry around a critical point.

All formulas live in polar coordinates centered at rho_c: eps = rho - rho_c =
|eps| e^{i theta}.  The level curve |lambda(rho)/lambda_c| = 1 + O(|eps|^{3/2})
is a two-branched cusped curve; the ray theta = pi - 2 theta_a bisects the
cusp and is the direction of maximum bifurcation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DegenerateArgument, DomainError, HypothesisViolation
from .kms import _finite_complex, _finite_real, _finite_reals
from .puiseux import PuiseuxParams, _abs_sq, wrap_angle

# level-curve samples with a larger |eps| lie outside the series' validity region
_EPS_CAP = 0.5
_LEVEL_SAMPLES = 161  # per level curve; odd, so that the cusp is the middle one
_THETA_WINDOW = 0.8  # the half-width of the level curve's theta range about the cusp


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


def _level_eps(theta: float, theta_a: float, theta_b: float, a_sq: float, two_a: float,
               two_b: float) -> tuple[float, float]:
    """num and den of |eps|(theta) = (num / den)^2, given the factors that do not
    depend on theta: theta_a, theta_b, |a|^2, 2|a| and 2|b|."""
    half = 0.5 * theta + theta_a
    return two_a * math.cos(half), a_sq * math.sin(half) ** 2 + two_b * math.cos(theta + theta_b)


def local_level_curve(p: PuiseuxParams, rho_c: complex) -> CurveSamples:
    """Sample the local level curve at 161 theta within 0.8 of the cusp bisector.

    |eps|(theta) = (2|a| cos(theta/2 + theta_a) / (|a|^2 sin^2(theta/2 +
    theta_a) + 2|b| cos(theta + theta_b)))^2.  The cusp sample (|eps| = 0 at
    theta = pi - 2 theta_a) is the middle one; samples past a sign change of
    the denominator, or with |eps| above 0.5, are outside the validity
    region and are dropped (with a warning).  Raises DomainError for a rho_c
    that is not a finite complex number, or an |a|^2 or |a|^2 - 2|b|cos(Theta)
    that overflows, or where every kept |eps| is 0 (it underflows past |b|/|a|
    ~ 1e162), DegenerateArgument for a = 0 (no square-root branch point),
    and HypothesisViolation when |a|^2 - 2|b|cos(Theta) ~ 0.
    """
    rho_c = _finite_complex(rho_c, "rho_c")
    a_sq, two_a, two_b = _abs_sq(p.a), 2.0 * abs(p.a), 2.0 * abs(p.b)
    if a_sq == 0.0:  # a = 0, or |a|^2 below the smallest double: every |eps| reads 0
        raise DegenerateArgument(f"a = {p.a}: rho_c is not a square-root branch point")
    den_cusp = a_sq - two_b * math.cos(p.Theta)  # = 2c
    if not math.isfinite(den_cusp):
        raise DomainError(f"|a|^2 - 2|b|cos(Theta) overflows double precision at b = {p.b}")
    if abs(den_cusp) < 1e-10:
        raise HypothesisViolation("|a|^2 - 2|b|cos(Theta) ~ 0: no local level curve")
    bis = cusp_bisector_angle(p)
    sgn = 1.0 if den_cusp > 0 else -1.0
    cos, sin = math.cos, math.sin
    theta_a, theta_b = p.theta_a, p.theta_b
    cusp = (_LEVEL_SAMPLES - 1) // 2
    samples = []
    dropped = 0
    for i in range(_LEVEL_SAMPLES):
        theta = bis + _THETA_WINDOW * (2.0 * i / (_LEVEL_SAMPLES - 1) - 1.0)
        if i == cusp:
            samples.append((theta, 0.0, rho_c))  # the cusp itself
            continue
        num, den = _level_eps(theta, theta_a, theta_b, a_sq, two_a, two_b)
        if den * sgn <= 0.0:
            dropped += 1
            continue
        eps = (num / den) ** 2
        if eps > _EPS_CAP:
            dropped += 1
            continue
        rho = rho_c + eps * complex(cos(theta), sin(theta))
        samples.append((theta, eps, rho))
    if not any(sample[1] for sample in samples):  # as a rule, stops at the first sample
        raise DomainError(f"every kept level-curve sample reads |eps| = 0 at b = {p.b}: "
                          f"|eps| underflows, or no sample lies in the validity region")
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
    |a|^2 or (|a|^2 - 2|b|cos Theta)^2 overflows.
    """
    theta = _finite_real(theta, "theta")
    den = _abs_sq(p.a) - 2.0 * abs(p.b) * math.cos(p.Theta)
    if not math.isfinite(den * den):
        raise DomainError(f"(|a|^2 - 2|b|cos Theta)^2 overflows double precision at b = {p.b}")
    if abs(den) < 1e-10:
        raise HypothesisViolation("|a|^2 - 2|b|cos(Theta) ~ 0")
    bis = cusp_bisector_angle(p)
    return 4.0 * math.sin(0.5 * (theta - bis)) ** 2 / den ** 2


def trajectory_along_bisector(p: PuiseuxParams, d_values) -> list[TrajectoryPoint]:
    """Normalized eigenvalue pair along rho = rho_c + d e^{-2i theta_a}.

    d < 0 approaches the cusp along the bisector, d > 0 leaves along the
    opposite ray.  Pairs are (plus-branch, minus-branch) of the +/- sign in
    the series; all values are normalized by lambda_c.  Raises DomainError,
    before any point is built, for d_values that are not iterable, a d that
    float() rejects or that is NaN or infinite, with any d <= 0 where |a|^2
    overflows, and where a point overflows double precision (at d = 1e308).
    """
    d_values = _finite_reals(d_values, "d")
    sqrt = math.sqrt
    mag_a, mag_b = abs(p.a), abs(p.b)
    cos_t, sin_t = math.cos(p.Theta), math.sin(p.Theta)
    # only d <= 0 reads |a|^2, which overflows for |a| past 1.3e154
    half_gap = _abs_sq(p.a) - 2.0 * mag_b * cos_t if min(d_values, default=1.0) <= 0.0 else None

    def point(d: float) -> TrajectoryPoint:
        ad = abs(d)
        root, shift = mag_a * sqrt(ad), ad * mag_b
        if d <= 0.0:
            re, mag = 1.0 - shift * cos_t, 1.0 + ad * 0.5 * half_gap
            return TrajectoryPoint(d, (re, re), (root - shift * sin_t, -root - shift * sin_t),
                                   (mag, mag))
        base, im = 1.0 + shift * cos_t, shift * sin_t
        pair = (base + root, base - root)
        return TrajectoryPoint(d, pair, (im, im), pair)

    # every product in a point grows in size with |d|, so on each side the
    # point at the largest |d| (the least and the greatest d) overflows first
    for d in {min(d_values), max(d_values)} if d_values else ():
        end = point(d)
        if not all(map(math.isfinite, end.re_pair + end.im_pair + end.mag_pair)):
            raise DomainError(f"the trajectory overflows double precision at d = {d}")
    return [point(d) for d in d_values]
