"""The purely imaginary critical-point family (odd n).

For every odd n >= 3 there is a critical point at rho = i y_n whose data is
real: v_n solves cosh(n v) = n cosh(v), x_n = cosh(v_n), and the series
magnitudes a_n, b_n follow from hyperbolic closed forms.  The family has
fixed phases theta_a = 3 pi/4, theta_b = -pi/2 (so Theta reduces to 0), and
its own simplified level-curve/trajectory/parabola formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import _log_cosh, _log_sinh, cheb_t, cheb_t_hyperbolic, cheb_u
from .critical import rho_c_of_t
from .errors import (ConditionViolated, ConvergenceFailure, DomainError,
                     HypothesisViolation, PositivityViolation, RootFindingFailure,
                     SizeError)
from .geometry import CurveSamples, TrajectoryPoint, trajectory_along_bisector
from .kms import EigType
from .puiseux import PuiseuxParams

THETA_A_IMAG = 3.0 * math.pi / 4.0
THETA_B_IMAG = -math.pi / 2.0


@dataclass(frozen=True)
class ImagAxisParams:
    n: int
    v_n: float
    x_n: float
    y_n: float
    a_n: float
    b_n: float
    c_n: float
    eig_type: EigType


def _require_odd(n: int) -> None:
    if n < 3:
        raise SizeError(f"need n >= 3, got {n}")
    if n % 2 == 0:
        raise DomainError(f"the imaginary-axis family exists for odd n only, got {n}")


def _imag_type(n: int) -> EigType:
    return EigType.Type1 if n % 4 == 1 else EigType.Type2


def solve_v_n(n: int) -> float:
    """Positive solution of cosh(n v) = n cosh(v).

    Safeguarded Newton seeded at ln(2n)/n, bracketed by [ln(2n)/(2n),
    2 ln(2n)/n] with bisection fallback.
    """
    _require_odd(n)
    lo, hi = math.log(2 * n) / (2 * n), 2.0 * math.log(2 * n) / n

    def g(v: float) -> float:
        return math.cosh(n * v) - n * math.cosh(v)

    if not (g(lo) < 0.0 < g(hi)):
        raise ConvergenceFailure(f"bracket failed for n = {n}")
    v = math.log(2 * n) / n
    for _ in range(100):
        gv = g(v)
        if abs(gv) <= 1e-13 * n * math.cosh(v):
            return v
        if gv < 0.0:
            lo = v
        else:
            hi = v
        dg = n * (math.sinh(n * v) - math.sinh(v))
        step = v - gv / dg if dg != 0.0 else None
        v = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise ConvergenceFailure(f"v_n iteration did not converge for n = {n}")


def solve_x_n(n: int) -> float:
    """x_n = cosh(v_n), the unique x > 1 with T_n(x) = n x."""
    x = math.cosh(solve_v_n(n))
    below = cheb_t_hyperbolic(n, x * (1.0 - 1e-6)) - n * x * (1.0 - 1e-6)
    above = cheb_t_hyperbolic(n, x * (1.0 + 1e-6)) - n * x * (1.0 + 1e-6)
    if not (below < 0.0 < above):
        raise RootFindingFailure(f"T_n(x) - n x does not change sign at x_{n}")
    return x


def y_n_of(n: int) -> float:
    """The critical height y_n > 0, from the overflow-safe hyperbolic ratio."""
    _require_odd(n)
    v = solve_v_n(n)
    y = math.exp(_log_cosh((n + 1) * v / 2.0) - _log_sinh((n - 1) * v / 2.0))
    if n <= 51:
        # cross-check against the Chebyshev-ratio route at t_c = i sinh(v)
        other = rho_c_of_t(n, 1j * math.sinh(v), _imag_type(n)) / 1j
        if abs(other - y) > 1e-9 * y:
            raise HypothesisViolation(f"y_{n} routes disagree: {y} vs {other}")
    return y


def imag_axis_params(n: int) -> ImagAxisParams:
    """The full real-parameter bundle (v, x, y, a, b, c) for odd n."""
    _require_odd(n)
    v = solve_v_n(n)
    x = math.cosh(v)
    y = y_n_of(n)
    t_big = math.cosh((n - 1) * v)             # T_{n-1}(x_n)
    u_big = math.sinh(n * v) / math.sinh(v)    # U_{n-1}(x_n)
    x2 = x * x
    if abs((x2 - 1.0) * u_big ** 2 - (n * n * x2 - 1.0)) > 1e-10 * n * n * x2:
        raise HypothesisViolation(f"Pell-type identity failed at n = {n}")
    a = math.sqrt(2.0 / n) * (x2 - 1.0) ** 0.25 / x * math.sqrt((u_big - 1.0) * (t_big - 1.0))
    num_b = (12.0 + 4.0 * (n + 1) * t_big ** 2 - (5.0 * n * n + 5.0 * n + 12.0) * x2
             - 3.0 * (n - 7) * (x2 - 1.0) * u_big + 4.0 * (n - 2) * (n * n * x2 - 1.0)
             + (n + 1) * (4.0 * x2 - 3.0) * t_big)
    b = num_b / (6.0 * n * x2 * math.sqrt(x2 - 1.0) * (u_big - 1.0))
    if a <= 0.0 or b <= 0.0:
        raise PositivityViolation(f"a_{n} = {a}, b_{n} = {b} must be positive")
    return ImagAxisParams(n=n, v_n=v, x_n=x, y_n=y, a_n=a, b_n=b,
                          c_n=0.5 * (a * a - 2.0 * b), eig_type=_imag_type(n))


def imag_puiseux_params(params: ImagAxisParams) -> PuiseuxParams:
    """The general PuiseuxParams carried by an imaginary-axis point.

    Phases are pinned: theta_a = 3 pi/4, theta_b = -pi/2, and Theta (= -2 pi
    before reduction) is 0 in the canonical (-pi, pi] range.
    """
    lam_c = complex(-params.n)
    a = params.a_n * complex(math.cos(THETA_A_IMAG), math.sin(THETA_A_IMAG))
    b = params.b_n * complex(math.cos(THETA_B_IMAG), math.sin(THETA_B_IMAG))
    return PuiseuxParams(lambda_c=lam_c, alpha=a * lam_c, beta=b * lam_c, a=a, b=b,
                         theta_a=THETA_A_IMAG, theta_b=THETA_B_IMAG, Theta=0.0,
                         c=params.c_n)


def imag_level_eps(params: ImagAxisParams, theta: float) -> float:
    """|eps|(theta) = 8 a^2 (1 + sin theta) / (a^2 + (4b - a^2) sin theta)^2."""
    a2 = params.a_n ** 2
    s = math.sin(theta)
    den = a2 + (4.0 * params.b_n - a2) * s
    if den == 0.0:
        raise ConditionViolated(f"level-curve denominator vanished at theta = {theta}")
    return 8.0 * a2 * (1.0 + s) / den ** 2


def imag_level_curve(params: ImagAxisParams, theta_range=(-math.pi, 0.0),
                     count: int = 161, eps_cap: float = 0.5) -> CurveSamples:
    """Level-curve samples around i y_n; cusp at theta = -pi/2.

    The curve is symmetric under theta -> -pi - theta (mirror in the
    imaginary axis).  Samples past a denominator sign change or above
    eps_cap are dropped, as in the general routine.
    """
    if abs(params.c_n) < 1e-10:
        raise ConditionViolated("a_n^2 - 2 b_n ~ 0: no local level curve")
    lo, hi = theta_range
    if not lo < hi:
        raise DomainError("empty theta range")
    center = 1j * params.y_n
    sign_cusp = 1.0 if params.c_n > 0 else -1.0
    a2 = params.a_n ** 2
    samples = []
    for i in range(count):
        theta = lo + (hi - lo) * i / (count - 1)
        den = a2 + (4.0 * params.b_n - a2) * math.sin(theta)
        if den * sign_cusp <= 0.0:
            continue
        eps = imag_level_eps(params, theta)
        if eps > eps_cap:
            continue
        rho = center + eps * complex(math.cos(theta), math.sin(theta))
        samples.append((theta, eps, rho))
    return CurveSamples(center=center, samples=samples)


def imag_trajectory(params: ImagAxisParams, d_values) -> list[TrajectoryPoint]:
    """Trajectory along rho = i(y_n + d): the bisector points straight down.

    Specialization of the general bisector trajectory with Theta = 0; for
    d <= 0 the magnitude slope is c_n and the pair is conjugate to leading
    order, for d >= 0 both eigenvalues are real.
    """
    return trajectory_along_bisector(imag_puiseux_params(params), d_values)


def critical_eigenvector_imag(n: int) -> np.ndarray:
    """The (isotropic) eigenvector at rho = i y_n, entries alternating
    real / purely imaginary.

    Both types evaluate Chebyshev polynomials at t_c = i sinh(v_n): type-1
    (n = 5, 9, ...) uses signed second-kind values and is skew-symmetric,
    type-2 (n = 3, 7, ...) uses first-kind values and is symmetric.
    """
    _require_odd(n)
    t_c = 1j * math.sinh(solve_v_n(n))
    mid = (n - 1) // 2
    vec = np.empty(n, dtype=complex)
    for j in range(n):
        k = abs(mid - j)
        if _imag_type(n) is EigType.Type1:
            sign = 0 if j == mid else (1 if j < mid else -1)
            vec[j] = 0.0 if k == 0 else sign * cheb_u(k - 1, t_c)
        else:
            vec[j] = cheb_t(k, t_c)
    return vec


def large_n_params(n: int) -> tuple[float, float, float, float]:
    """Asymptotic (v, y, a, b): ln(2n)/n, (2n)^{1/n}, and the sqrt/linear laws."""
    _require_odd(n)
    log2n = math.log(2 * n)
    root2n = math.sqrt(2 * n)
    return (log2n / n, (2 * n) ** (1.0 / n),
            root2n - (log2n + 1.0) / root2n,
            4.0 / 3.0 * n - 4.0 / 3.0 * (log2n + 1.0))


def parabola_trajectory(params: ImagAxisParams, chi_values):
    """Pre-bifurcation eigenvalue locus psi^2 = (a_n^2/b_n)(1 - chi).

    chi, psi are the real and imaginary parts of lambda/lambda_c; the vertex
    (1, 0) is the collision point.  Returns (chi, (psi+, psi-)) pairs.
    """
    coef = params.a_n ** 2 / params.b_n
    out = []
    for chi in chi_values:
        chi = float(chi)
        if chi > 1.0:
            raise DomainError(f"parabola needs chi <= 1, got {chi}")
        psi = math.sqrt(coef * (1.0 - chi))
        out.append((chi, (psi, -psi)))
    return out
