"""The purely imaginary critical-point family (odd n).

For every odd n >= 3 there is a critical point at rho = i y_n whose data is
real: v_n solves cosh(n v) = n cosh(v), x_n = cosh(v_n), and the series
magnitudes a_n, b_n follow from hyperbolic closed forms.  The family has
fixed phases theta_a = 3 pi/4, theta_b = -pi/2 (so Theta reduces to 0), and
its own simplified level-curve and parabola formulas; its bisector trajectory
is the general one, trajectory_along_bisector(imag_puiseux_params(p), d).
The height y_n = cosh((n+1) v_n/2) / sinh((n-1) v_n/2) is formed from the
logs of both, by _log_cosh and _log_sinh.  Their arguments stay small
((n+1) v_n/2 is 6.1 at n = 100001), so the logs guard against no overflow;
they stay because they fix the last bit of y_n that the outputs carry.
The Pell-type check forms x_n^2 - 1 by cancellation, so imag_axis_params
raises HypothesisViolation at 706 of the odd n <= 10001, the first at
n = 5201; forming it as sinh^2 v_n should mend that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateArgument, DomainError, HypothesisViolation, RootFindingFailure
from .geometry import _EPS_CAP, CurveSamples
from .kms import EigType, _finite_real, check_order
from .puiseux import PuiseuxParams

THETA_A_IMAG = 3.0 * math.pi / 4.0
THETA_B_IMAG = -math.pi / 2.0
_LN2 = math.log(2.0)


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


def _require_odd(n) -> int:
    n = check_order(n)
    if n % 2 == 0:
        raise DomainError(f"the imaginary-axis family exists for odd n only, got {n}")
    return n


def solve_v_n(n: int) -> float:
    """Positive solution of cosh(n v) = n cosh(v).

    Safeguarded Newton seeded at ln(2n)/n, bracketed by [ln(2n)/(2n),
    2 ln(2n)/n] with bisection fallback.  DomainError above about n = 1e154.
    """
    n = _require_odd(n)

    def g(v: float) -> float:
        return math.cosh(n * v) - n * math.cosh(v)

    try:  # g(hi) holds cosh(2 ln 2n), past the largest double once ln 2n > 355
        lo, hi = math.log(2 * n) / (2 * n), 2.0 * math.log(2 * n) / n
        if not g(lo) < 0.0 < g(hi):
            raise RootFindingFailure(f"bracket failed for n = {n}")
    except OverflowError:
        raise DomainError(f"v_n needs n below about 1e154, got {len(str(n))} digits") from None
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
    raise RootFindingFailure(f"v_n iteration did not converge for n = {n}")


# log cosh(x) and log sinh(x) for real x > 0, finite long after cosh(x) overflows
def _log_cosh(x: float) -> float:
    return x + math.log1p(math.exp(-2.0 * x)) - _LN2


def _log_sinh(x: float) -> float:
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2


def imag_axis_params(n: int) -> ImagAxisParams:
    """The full real-parameter bundle (v, x, y, a, b, c) for odd n."""
    n = _require_odd(n)
    eig_type = EigType.Type1 if n % 4 == 1 else EigType.Type2
    v = solve_v_n(n)
    x = math.cosh(v)
    # the critical height, from the overflow-safe hyperbolic ratio
    y = math.exp(_log_cosh((n + 1) * v / 2.0) - _log_sinh((n - 1) * v / 2.0))
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
        raise HypothesisViolation(f"a_{n} = {a}, b_{n} = {b} must be positive")
    return ImagAxisParams(n=n, v_n=v, x_n=x, y_n=y, a_n=a, b_n=b,
                          c_n=0.5 * (a * a - 2.0 * b), eig_type=eig_type)


def imag_puiseux_params(params: ImagAxisParams) -> PuiseuxParams:
    """The general PuiseuxParams carried by an imaginary-axis point.

    Phases are pinned: theta_a = 3 pi/4, theta_b = -pi/2, and Theta (= -2 pi
    before reduction) is 0 in the canonical (-pi, pi] range.
    """
    a = params.a_n * complex(math.cos(THETA_A_IMAG), math.sin(THETA_A_IMAG))
    b = params.b_n * complex(math.cos(THETA_B_IMAG), math.sin(THETA_B_IMAG))
    return PuiseuxParams(lambda_c=complex(-params.n), a=a, b=b, theta_a=THETA_A_IMAG,
                         theta_b=THETA_B_IMAG, Theta=0.0, c=params.c_n)


def _level_den_eps(params: ImagAxisParams, s: float) -> tuple[float, float]:
    """The denominator and |eps| at sin theta = s; |eps| is inf where the denominator is 0."""
    a2 = params.a_n ** 2
    den = a2 + (4.0 * params.b_n - a2) * s
    return den, 8.0 * a2 * (1.0 + s) / den ** 2 if den != 0.0 else math.inf


def imag_level_eps(params: ImagAxisParams, theta: float) -> float:
    """|eps|(theta) = 8 a^2 (1 + sin theta) / (a^2 + (4b - a^2) sin theta)^2.

    DomainError for a non-finite theta; DegenerateArgument where the denominator is 0.
    """
    theta = _finite_real(theta, "theta")
    den, eps = _level_den_eps(params, math.sin(theta))
    if den == 0.0:
        raise DegenerateArgument(f"level-curve denominator vanished at theta = {theta}")
    return eps


def imag_level_curve(params: ImagAxisParams) -> CurveSamples:
    """Level-curve samples around i y_n; cusp at theta = -pi/2.

    161 evenly spaced theta from -pi to 0.  The curve is symmetric under
    theta -> -pi - theta (mirror in the imaginary axis).  Samples past a
    denominator sign change or with |eps| above 0.5 are dropped, as in the
    general routine.
    """
    if abs(params.c_n) < 1e-10:
        raise HypothesisViolation("a_n^2 - 2 b_n ~ 0: no local level curve")
    lo, hi, count = -math.pi, 0.0, 161
    center = 1j * params.y_n
    sign_cusp = 1.0 if params.c_n > 0 else -1.0
    samples = []
    for i in range(count):
        theta = lo + (hi - lo) * i / (count - 1)
        s = math.sin(theta)
        den, eps = _level_den_eps(params, s)
        if den * sign_cusp <= 0.0 or eps > _EPS_CAP:
            continue
        rho = center + eps * complex(math.cos(theta), s)
        samples.append((theta, eps, rho))
    return CurveSamples(center=center, samples=samples)


def large_n_params(n: int) -> tuple[float, float, float, float]:
    """Asymptotic (v, y, a, b): ln(2n)/n, (2n)^{1/n}, and the sqrt/linear laws.

    Raises SizeError unless n is an integer >= 3, and DomainError for an
    even n or one where 2n does not fit in double precision.
    """
    n = _require_odd(n)
    try:
        log2n = math.log(2 * n)
        root2n = math.sqrt(2 * n)
        return (log2n / n, (2 * n) ** (1.0 / n),
                root2n - (log2n + 1.0) / root2n,
                4.0 / 3.0 * n - 4.0 / 3.0 * (log2n + 1.0))
    except OverflowError:
        raise DomainError("large-n laws need 2n below the largest double") from None


def parabola_trajectory(params: ImagAxisParams, chi_values):
    """Pre-bifurcation eigenvalue locus psi^2 = (a_n^2/b_n)(1 - chi).

    chi, psi are the real and imaginary parts of lambda/lambda_c; the vertex
    (1, 0) is the collision point.  Returns (chi, (psi+, psi-)) pairs.
    Raises DomainError for a chi that is not a finite real or exceeds 1.
    """
    coef = params.a_n ** 2 / params.b_n
    out = []
    for chi in chi_values:
        chi = _finite_real(chi, "chi")
        if chi > 1.0:
            raise DomainError(f"parabola needs chi <= 1, got {chi}")
        psi = math.sqrt(coef * (1.0 - chi))
        out.append((chi, (psi, -psi)))
    return out
