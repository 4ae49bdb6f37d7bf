"""Eigenvalue bifurcations of the complex Kac-Murdock-Szego matrix family.

K_n(rho) = [rho^|j-k|] is complex symmetric; as rho moves in the complex
plane, pairs of eigenvalues collide at square-root branch points where a
double eigenvalue -n appears.  This package locates every such point, expands
the colliding pair in a Puiseux series, draws the local level curves and
eigenvalue trajectories, and cross-checks everything against a dense
eigensolver.
"""

from .chebyshev import ChebDegree, cheb_t, cheb_t_hyperbolic, cheb_t_log, cheb_u
from .critical import (CriticalPoint, all_critical_points, critical_t_values,
                       q_polynomial, rho_c_of_t)
from .errors import (ConditionViolated, ConvergenceFailure, DegenerateArgument,
                     DegenerateDenominator, DegenerateMu, DegenerateT,
                     DomainError, ExcludedRho, HypothesisViolation, KmsBifError,
                     NoConvergence, PositivityViolation, RootFindingFailure,
                     SizeError, UnsupportedCase, ZeroLeadingCoefficient)
from .geometry import (CurveSamples, TrajectoryPoint, bifurcation_strength,
                       cardioid_approx, cusp_bisector_angle, local_level_curve,
                       trajectory_along_bisector)
from .imag_axis import (ImagAxisParams, critical_eigenvector_imag,
                        imag_axis_params, imag_level_curve, imag_puiseux_params,
                        imag_trajectory, large_n_params, parabola_trajectory,
                        solve_v_n, solve_x_n, y_n_of)
from .kms import (EigType, KmsMatrix, MuPoint, build_matrix, eigenvector_of_mu,
                  isotropy_defect, lambda_of_mu, rho_of_mu, rho_prime_of_mu)
from .oracle import (Spectrum, count_extraordinary, eigenvalues, kms_spectrum,
                     numeric_borderline, type_blocks)
from .puiseux import (DerivativeBundle, PuiseuxParams, compose_puiseux,
                      derivatives_at_critical, eval_truncated_series,
                      puiseux_ab_from_t, puiseux_from_derivatives,
                      series_invert_puiseux, series_invert_regular, wrap_angle)

__version__ = "0.1.0"

__all__ = [
    "ChebDegree", "cheb_t", "cheb_t_hyperbolic", "cheb_t_log", "cheb_u",
    "CriticalPoint", "all_critical_points", "critical_t_values",
    "q_polynomial", "rho_c_of_t",
    "KmsBifError", "SizeError", "DomainError", "DegenerateArgument",
    "DegenerateMu", "ExcludedRho", "DegenerateDenominator", "DegenerateT",
    "UnsupportedCase", "RootFindingFailure", "ZeroLeadingCoefficient",
    "HypothesisViolation", "ConditionViolated", "PositivityViolation",
    "ConvergenceFailure", "NoConvergence",
    "CurveSamples", "TrajectoryPoint", "bifurcation_strength",
    "cardioid_approx", "cusp_bisector_angle", "local_level_curve",
    "trajectory_along_bisector",
    "ImagAxisParams", "critical_eigenvector_imag", "imag_axis_params",
    "imag_level_curve", "imag_puiseux_params", "imag_trajectory",
    "large_n_params", "parabola_trajectory", "solve_v_n", "solve_x_n", "y_n_of",
    "EigType", "KmsMatrix", "MuPoint", "build_matrix", "eigenvector_of_mu",
    "isotropy_defect", "lambda_of_mu", "rho_of_mu", "rho_prime_of_mu",
    "Spectrum", "count_extraordinary", "eigenvalues", "kms_spectrum",
    "numeric_borderline", "type_blocks",
    "DerivativeBundle", "PuiseuxParams", "compose_puiseux",
    "derivatives_at_critical", "eval_truncated_series", "puiseux_ab_from_t",
    "puiseux_from_derivatives", "series_invert_puiseux",
    "series_invert_regular", "wrap_angle",
    "__version__",
]
