"""Exception taxonomy shared by all kmsbif modules."""


class KmsBifError(Exception):
    """Base class for every error raised by this package."""


class SizeError(KmsBifError):
    """Matrix order that is not an integer >= 3, or too large for the oracle."""


class DomainError(KmsBifError):
    """Argument outside a function's domain, or a value that overflows there.

    Examples: log T_k(x) requested for x <= 1, a non-finite bound of a
    borderline box, T_1000(3), which is not finite in double precision, and
    rho on one of the excluded values {+/-1, +/-(n+1)/(n-1)}.
    """


class DegenerateArgument(KmsBifError):
    """Evaluation point where the requested formula degenerates.

    Raised by the critical-rho ratio (t_c = +/-1 for even n, or a vanishing
    denominator), by the closed-form Puiseux route (t_c^2 = 1 or
    t_c = -s T_n(t_c)), by a sine/cosine denominator of the
    mu-parameterization below its floor, and by a vanished denominator of
    the imaginary-axis level curve.
    """


class RootFindingFailure(KmsBifError):
    """An iterative solve did not converge or did not meet its tolerance.

    Covers polynomial root finding and its verification, the scalar
    Newton/bisection iterations, and the dense eigensolver.
    """


class HypothesisViolation(KmsBifError):
    """A hypothesis that the formulas rely on failed numerically.

    Examples: rho''_c != 0, a quantity that must be positive (a_n, b_n), or
    the level-curve condition |a|^2 - 2|b|cos(Theta) != 0.
    """
