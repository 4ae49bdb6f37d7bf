"""The parameters of every public callable, recorded in one table.

Each value a caller can set is one more configuration that the tests and the
benchmark must cover, so a parameter is added only for a caller outside the
tests that needs a value no existing caller passes.  A change that adds one
edits _SIGNATURES and names that caller in a comment on its row.
"""

import enum
import inspect

import kmsbif
from kmsbif import imag_axis

# each callable in kmsbif.__all__, figure 8's imag_axis.imag_level_curve and
# figure 9's imag_axis.parabola_trajectory, with its parameters and their
# defaults; None for the classes whose call is Python's own: the EigType lookup
# and the error classes
_SIGNATURES = {
    "all_critical_points": "(n)",
    "puiseux_ab_from_t": "(cp)",
    "kms_spectrum": "(n, rho)",
    "type_blocks": "(n, rho, eig_type)",
    "local_level_curve": "(p, rho_c)",
    "trajectory_along_bisector": "(p, d_values)",
    "imag_axis_params": "(n)",
    "large_n_params": "(n)",
    "numeric_borderline": "(n, bounds, *, eig_type)",
    # the catalog sets gate_gap; a point built by hand leaves it None
    "CriticalPoint": "(n, eig_type, t_c, mu_c, rho_c, lambda_c, gate_gap=None)",
    "EigType": None,
    "critical_t_values": "(n, eig_type)",
    "rho_c_of_t": "(n, t_c, eig_type)",
    "derivatives_at_critical": "(cp)",
    "puiseux_from_derivatives": "(lambda_c, d)",
    "KmsBifError": None,
    "SizeError": None,
    "DomainError": None,
    "DegenerateArgument": None,
    "RootFindingFailure": None,
    "HypothesisViolation": None,
    "imag_axis.imag_level_curve": "(params)",
    "imag_axis.parabola_trajectory": "(params)",
}


def _parameters(obj):
    """obj's call signature without annotations, or None for an enum or an error class."""
    if isinstance(obj, type) and issubclass(obj, (enum.Enum, BaseException)):
        return None
    sig = inspect.signature(obj)
    return str(sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty))


def test_every_public_callable_takes_its_recorded_parameters():
    public = {name: getattr(kmsbif, name) for name in kmsbif.__all__
              if callable(getattr(kmsbif, name))}
    public["imag_axis.imag_level_curve"] = imag_axis.imag_level_curve
    public["imag_axis.parabola_trajectory"] = imag_axis.parabola_trajectory
    assert {name: _parameters(obj) for name, obj in public.items()} == _SIGNATURES
