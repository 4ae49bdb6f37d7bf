"""The error taxonomy: every class in kmsbif.errors is exported, and nothing else is."""

import inspect

import kmsbif
from kmsbif import errors


def test_error_classes_are_exactly_the_exported_error_names():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.KmsBifError)
               and obj.__module__ == errors.__name__}
    exported = {name for name in kmsbif.__all__
                if inspect.isclass(getattr(kmsbif, name))
                and issubclass(getattr(kmsbif, name), errors.KmsBifError)}
    assert defined == exported
    assert all(getattr(kmsbif, name) is getattr(errors, name) for name in exported)
