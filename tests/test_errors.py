"""The error taxonomy: every class in kmsbif.errors is exported, and nothing else is;
and every entry point that takes a matrix order rejects one that is not an integer."""

import inspect

import numpy as np
import pytest

import kmsbif
from kmsbif import errors
from kmsbif.kms import EigType, build_matrix


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
    "numeric_borderline": lambda n: kmsbif.numeric_borderline(n, (1.0, 2.0, 1.0, 2.0)),
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
