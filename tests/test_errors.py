"""The error taxonomy: every class in kmsbif.errors is exported, and nothing else is;
every entry point that takes a matrix order rejects one that is not an integer, and
every entry point that takes an eigenvalue type rejects one that is not an EigType."""

import dataclasses
import inspect

import numpy as np
import pytest

import kmsbif
from kmsbif import errors
from kmsbif.kms import (EigType, build_matrix, eigenvector_of_mu, lambda_of_mu, rho_of_mu,
                        rho_prime_of_mu)


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
