"""The error taxonomy: every class in kmsbif.errors is exported, and nothing else is;
every entry point that takes a matrix order rejects one that is not an integer,
every entry point that takes an eigenvalue type rejects one that is not an EigType,
and a number argument that is not a number, not finite or overflows raises DomainError."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import kmsbif
from kmsbif import errors
from kmsbif.geometry import cardioid_approx
from kmsbif.kms import (EigType, build_matrix, eigenvector_of_mu, lambda_of_mu, rho_of_mu,
                        rho_prime_of_mu)
from kmsbif.puiseux import DerivativeBundle, PuiseuxParams, _params_from_ab


def test_error_classes_are_exactly_the_exported_error_names():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.KmsBifError)
               and obj.__module__ == errors.__name__}
    exported = {name for name in kmsbif.__all__
                if inspect.isclass(getattr(kmsbif, name))
                and issubclass(getattr(kmsbif, name), errors.KmsBifError)}
    assert defined == exported
    assert all(getattr(kmsbif, name) is getattr(errors, name) for name in exported)


_ORDER_ENTRY_POINTS = {
    "all_critical_points": kmsbif.all_critical_points,
    "critical_t_values": lambda n: kmsbif.critical_t_values(n, EigType.Type2),
    "rho_c_of_t": lambda n: kmsbif.rho_c_of_t(n, 0.3j, EigType.Type2),
    "kms_spectrum": lambda n: kmsbif.kms_spectrum(n, 0.5),
    "type_blocks": lambda n: kmsbif.type_blocks(n, 0.5, EigType.Type1),
    "numeric_borderline": lambda n: kmsbif.numeric_borderline(n, (1.0, 2.0, 1.0, 2.0),
                                                              eig_type=EigType.Type1),
    "imag_axis_params": kmsbif.imag_axis_params,
    "large_n_params": kmsbif.large_n_params,
    "build_matrix": lambda n: build_matrix(n, 0.5),
}


@pytest.mark.parametrize("name", sorted(_ORDER_ENTRY_POINTS))
def test_order_must_be_an_integer(name):
    call = _ORDER_ENTRY_POINTS[name]
    for n in (7.0, 7.5, "7", None):
        with pytest.raises(errors.SizeError, match=r"^need an integer n >= 3, got "):
            call(n)
    call(np.int64(7))  # numpy integers are integers


def _point_of_type(eig_type):
    # a type-2 critical point of K_4, relabelled with the given type
    point = next(p for p in kmsbif.all_critical_points(4) if p.eig_type is EigType.Type2)
    return dataclasses.replace(point, eig_type=eig_type)


_TYPE_ENTRY_POINTS = {
    "critical_t_values": lambda t: kmsbif.critical_t_values(8, t),
    "rho_c_of_t": lambda t: kmsbif.rho_c_of_t(8, 0.3j, t),
    "type_blocks": lambda t: kmsbif.type_blocks(5, 0.5, t),
    "numeric_borderline": lambda t: kmsbif.numeric_borderline(3, (1.0, 2.0, 1.0, 2.0),
                                                              eig_type=t),
    "lambda_of_mu": lambda t: lambda_of_mu(5, 1.0 + 0.1j, t),
    "rho_of_mu": lambda t: rho_of_mu(5, 1.0 + 0.1j, t),
    "rho_prime_of_mu": lambda t: rho_prime_of_mu(5, 1.0 + 0.1j, t),
    "eigenvector_of_mu": lambda t: eigenvector_of_mu(5, 1.0 + 0.1j, t),
    "puiseux_ab_from_t": lambda t: kmsbif.puiseux_ab_from_t(_point_of_type(t)),
    "derivatives_at_critical": lambda t: kmsbif.derivatives_at_critical(_point_of_type(t)),
}


@pytest.mark.parametrize("name", sorted(_TYPE_ENTRY_POINTS))
def test_eig_type_must_be_an_eig_type(name):
    # neither the enum's value, its name nor None stands in for a member
    call = _TYPE_ENTRY_POINTS[name]
    for eig_type in (1, "Type1", None):
        with pytest.raises(errors.DomainError, match=r"^eig_type must be an EigType, got "):
            call(eig_type)
    call(EigType.Type2)


def _series_of_k4():
    return kmsbif.puiseux_ab_from_t(_point_of_type(EigType.Type2))


def _point_with_mu(mu_c):
    return dataclasses.replace(_point_of_type(EigType.Type2), mu_c=mu_c)


_BOX = {"eig_type": EigType.Type1}
_NAN = complex("nan")
# |a|^2 overflows for |a| past 1.3e154
_HUGE_A = PuiseuxParams(lambda_c=-4.0, a=1e200, b=1.0, theta_a=0.0, theta_b=0.0, Theta=0.0,
                        c=0.0)

# each call passes a number argument that complex() or float() rejects, that
# is NaN or infinite, or at which the entry point's arithmetic overflows
_BAD_NUMBERS = {
    "kms_spectrum: rho 'x'": lambda: kmsbif.kms_spectrum(4, "x"),
    "kms_spectrum: rho None": lambda: kmsbif.kms_spectrum(4, None),
    "type_blocks: rho None": lambda: kmsbif.type_blocks(4, None, EigType.Type2),
    "type_blocks: rho 'x'": lambda: kmsbif.type_blocks(4, "x", EigType.Type1),
    "type_blocks: rho [1, None]": lambda: kmsbif.type_blocks(4, [1, None], EigType.Type1),
    "rho_c_of_t: t_c 'x'": lambda: kmsbif.rho_c_of_t(8, "x", EigType.Type1),
    "rho_c_of_t: t_c None": lambda: kmsbif.rho_c_of_t(8, None, EigType.Type1),
    "numeric_borderline: bound 'a'": lambda: kmsbif.numeric_borderline(3, ("a", 1, -1, 1), **_BOX),
    "numeric_borderline: bound -1j": lambda: kmsbif.numeric_borderline(3, (-1j, 1, -1, 1), **_BOX),
    "numeric_borderline: three bounds": lambda: kmsbif.numeric_borderline(3, (-1, 1, -1), **_BOX),
    "numeric_borderline: box None": lambda: kmsbif.numeric_borderline(3, None, **_BOX),
    "local_level_curve: rho_c 'x'": lambda: kmsbif.local_level_curve(_series_of_k4(), "x"),
    "local_level_curve: rho_c nan": lambda: kmsbif.local_level_curve(_series_of_k4(), _NAN),
    "lambda_of_mu: mu 1e3j": lambda: lambda_of_mu(8, 1e3j, EigType.Type1),
    "rho_of_mu: mu nan": lambda: rho_of_mu(8, _NAN, EigType.Type1),
    "rho_of_mu: mu 1e3j": lambda: rho_of_mu(8, 1e3j, EigType.Type1),
    "rho_prime_of_mu: mu 1e3j": lambda: rho_prime_of_mu(8, 1e3j, EigType.Type1),
    "eigenvector_of_mu: mu 1e3j": lambda: eigenvector_of_mu(8, 1e3j, EigType.Type1),
    "derivatives_at_critical: mu_c 1e3j": lambda: kmsbif.derivatives_at_critical(
        _point_with_mu(1e3j)),
    "derivatives_at_critical: mu_c inf": lambda: kmsbif.derivatives_at_critical(
        _point_with_mu(complex("inf"))),
    "puiseux_from_derivatives: nan": lambda: kmsbif.puiseux_from_derivatives(
        -8, DerivativeBundle(math.nan, 1, 1, 1)),
    "puiseux_from_derivatives: beta overflows": lambda: kmsbif.puiseux_from_derivatives(
        -8, DerivativeBundle(1e300, 1, 1e-10, 1e300)),
    "large_n_params: 2n above the largest double": lambda: kmsbif.large_n_params(10 ** 400 + 1),
    "local_level_curve: |a|^2 overflows": lambda: kmsbif.local_level_curve(_HUGE_A, 0j),
    "trajectory_along_bisector: |a|^2 overflows": lambda: kmsbif.trajectory_along_bisector(
        _HUGE_A, [-1.0]),
    "cardioid_approx: |a|^2 overflows": lambda: cardioid_approx(_HUGE_A, 0.0),
    "_params_from_ab: |a|^2 overflows": lambda: _params_from_ab(-4.0, 1e200, 1.0),
}


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_bad_number_raises_domain_error(case):
    with pytest.raises(errors.DomainError):
        _BAD_NUMBERS[case]()
