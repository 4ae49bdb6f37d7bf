"""Exception taxonomy shared by all kmsbif modules."""


class KmsBifError(Exception):
    """Base class for every error raised by this package."""


class SizeError(KmsBifError):
    """Matrix order outside the supported range (n < 3, or too large for the oracle)."""


class DomainError(KmsBifError):
    """Real-argument domain violation (e.g. hyperbolic form requested for x < 1)."""


class DegenerateArgument(KmsBifError):
    """Evaluation point where the requested formula degenerates (e.g. U at z = +/-1)."""


class DegenerateMu(KmsBifError):
    """A sine/cosine denominator in the mu-parameterization fell below the floor."""


class ExcludedRho(KmsBifError):
    """rho hit one of the excluded parameter values {+/-1, +/-(n+1)/(n-1)}."""


class DegenerateDenominator(KmsBifError):
    """Denominator polynomial of the critical-rho ratio vanished at t_c."""


class DegenerateT(KmsBifError):
    """t_c hit a degenerate configuration for the closed-form Puiseux route."""


class UnsupportedCase(KmsBifError):
    """Parameter combination the theory does not define (e.g. type-1 with n = 3)."""


class RootFindingFailure(KmsBifError):
    """Polynomial root finding or its verification did not meet tolerance."""


class ZeroLeadingCoefficient(KmsBifError):
    """Leading series coefficient vanished; the inversion lemma does not apply."""


class HypothesisViolation(KmsBifError):
    """A hypothesis that the formulas rely on (rho''_c != 0, ...) failed numerically."""


class ConditionViolated(KmsBifError):
    """The level-curve condition |a|^2 - 2|b|cos(Theta) != 0 failed."""


class PositivityViolation(KmsBifError):
    """A quantity that must be positive (a_n, b_n) came out non-positive."""


class ConvergenceFailure(KmsBifError):
    """Scalar iteration (Newton/bisection) exhausted its iteration budget."""


class NoConvergence(KmsBifError):
    """The dense eigensolver failed to converge."""
