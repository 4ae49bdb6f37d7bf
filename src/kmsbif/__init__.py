"""Eigenvalue bifurcations of the complex Kac-Murdock-Szego matrix family.

K_n(rho) = [rho^|j-k|] is complex symmetric; as rho moves in the complex
plane, pairs of eigenvalues collide at square-root branch points where a
double eigenvalue -n appears.  This package locates every such point, expands
the colliding pair in a Puiseux series, draws the local level curves and
eigenvalue trajectories, and cross-checks everything against an eigensolver
oracle, the one module that builds K_n(rho).  It solves the half-size type
blocks for the catalog gate, the borderline, the trajectories and verify,
and the whole matrix only for critical-points' oracle_gap column.
"""

from .critical import CriticalPoint, all_critical_points, critical_t_values, rho_c_of_t
from .errors import (DegenerateArgument, DomainError, HypothesisViolation, KmsBifError,
                     RootFindingFailure, SizeError)
from .geometry import local_level_curve, trajectory_along_bisector
from .imag_axis import imag_axis_params, large_n_params
from .kms import EigType
from .oracle import kms_spectrum, numeric_borderline, type_blocks
from .puiseux import derivatives_at_critical, puiseux_ab_from_t, puiseux_from_derivatives

__version__ = "0.1.0"

__all__ = [
    # the documented entry points
    "all_critical_points", "puiseux_ab_from_t", "kms_spectrum", "type_blocks",
    "local_level_curve", "trajectory_along_bisector", "imag_axis_params",
    "large_n_params", "numeric_borderline",
    # what the benchmark worker builds and calls on every catalog point
    "CriticalPoint", "EigType", "critical_t_values", "rho_c_of_t",
    "derivatives_at_critical", "puiseux_from_derivatives",
    # errors
    "KmsBifError", "SizeError", "DomainError", "DegenerateArgument", "RootFindingFailure",
    "HypothesisViolation",
    "__version__",
]
