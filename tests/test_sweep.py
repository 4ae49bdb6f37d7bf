"""A generated sweep of extreme arguments over the public surface.

Every function in kmsbif.__all__, and every public function of a kmsbif
module but the CLI's, runs on arguments drawn from one table per parameter
kind: finite reals, complex numbers, orders, series records (PuiseuxParams,
made field by field), critical points and derivative bundles relabelled by
dataclasses.replace, and the records the library builds (the imaginary
family's at both ends of its range, K_3's matrices).  It runs on every
combination of them, or, where the arguments do not act together and every
combination would cost too much, on each varied alone.  Each call must
return values that are all finite, or raise a KmsBifError; a level curve
whose every kept sample reads |eps| = 0 fails too.  Orders are 3, each
stated bound, one past each, and 10**400.  An entry point whose cost grows
with n runs only at the orders up to its cap, and at every order past its
bound, which it must refuse; the expensive upper ends run in CI.  The whole
sweep takes about a second.
"""

import cmath
import dataclasses
import enum
import inspect
import itertools
import math
import numbers
import random
import warnings

import numpy as np
import pytest

import kmsbif
from kmsbif import chebyshev, checks, critical, geometry, imag_axis, kms, oracle, puiseux
from kmsbif.errors import KmsBifError
from kmsbif.kms import EigType

_BIG = 10 ** 400  # float() and complex() refuse it
_MAX = 1.7976931348623157e308
TYPES = tuple(EigType)
# 3, each stated bound, one past each (the odd one too, for the odd family), and 10**400
ORDERS = tuple(sorted({3, _BIG, imag_axis._MAX_FAMILY_N + 2} | {
    bound + step for bound in (critical._MAX_CATALOG_N, oracle._MAX_N, critical._MAX_ROOTS_N,
                               imag_axis._MAX_FAMILY_N, chebyshev._MAX_DEGREE)
    for step in (0, 1)}))
# zero, the smallest subnormal and normal doubles, scales where a square or a
# product overflows, the largest double, and an integer that no double holds
REALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 0.5, 1.0, -1.0,
         2.0, math.pi, 1e12, 1.3e154, -1.3e154, 1e300, _MAX, -_MAX, _BIG)
# the reals, and points off the real axis at the same scales, the excluded
# rho values +/-1 and +/-(n+1)/(n-1) among them
COMPLEXES = tuple(complex(x) if isinstance(x, float) else x for x in REALS) + (
    1j, -1j, 1 + 1j, 0.3j, 5e-324j, 1e-300 + 1e-300j, 1.5 + 0j, 0.5 + 177.25j, 1e3j,
    1e154 + 1e154j, 1e308j, _MAX + _MAX * 1j, -_MAX - _MAX * 1j)
# the values each field of a record takes in turn
_FIELD_COMPLEXES = (0j, 5e-324, 1e-300j, -1 + 1j, 1e154 + 1e154j, 1e300, -_MAX * 1j, _BIG)
_FIELD_REALS = (0.0, 5e-324, -math.pi, 1e154, 1e300, -_MAX, _BIG)


# the largest order at which an entry point whose cost grows with n runs in full
_CHEAP = imag_axis._MAX_FAMILY_N + 2


def _orders(cap, n_max=None):
    """The orders up to cap, every order past n_max, and 10**400."""
    return tuple(n for n in ORDERS if n <= cap or n == _BIG or (n_max is not None and n > n_max))


def _built(make, values):
    """make(value) for each value, but those that make refuses with a KmsBifError."""
    out = []
    for value in values:
        try:
            out.append(make(value))
        except KmsBifError:
            pass
    return out


def _relabel(record, values_of):
    """The record, and each copy with one field replaced by one value of its table."""
    return [record] + _built(lambda item: dataclasses.replace(record, **dict([item])),
                             [(name, v) for name, values in values_of.items() for v in values])


_BASE_POINTS = tuple({p.eig_type: p for p in critical.all_critical_points(7)}.values())
# puiseux_ab_from_t reads T_n, so a point's order runs to the Chebyshev bound
POINTS = [q for p in _BASE_POINTS for q in _relabel(p, {
    "n": _orders(_CHEAP, chebyshev._MAX_DEGREE), "eig_type": TYPES,
    "t_c": COMPLEXES, "mu_c": COMPLEXES, "lambda_c": COMPLEXES, "gate_gap": REALS})]
_BASE_SERIES = kmsbif.puiseux_ab_from_t(_BASE_POINTS[0])
RECORDS = _relabel(_BASE_SERIES, {
    name: _FIELD_COMPLEXES if isinstance(value, complex) else _FIELD_REALS
    for name, value in vars(_BASE_SERIES).items()})
RECORDS += _built(lambda ab: puiseux._params_from_ab(-8.0, *ab),  # phases that agree with a, b
                  itertools.product(_FIELD_COMPLEXES[:-1], repeat=2))
BUNDLES = _relabel(kmsbif.derivatives_at_critical(_BASE_POINTS[0]),
                   dict.fromkeys(("lambda_c_p", "lambda_c_pp", "rho_c_pp", "rho_c_ppp"),
                                 COMPLEXES))
FAMILY = [imag_axis.imag_axis_params(n) for n in (3, imag_axis._MAX_FAMILY_N)]
MATRICES = _built(lambda rho: oracle.build_matrix(3, rho), COMPLEXES)
# one number at a time, and all of them at once
VECTORS = [[z] for z in COMPLEXES] + [[z for z in COMPLEXES if z != _BIG]]
D_LISTS = [[d] for d in REALS] + [[d for d in REALS if d != _BIG], []]
BOXES = [(lo, hi, lo, hi) for lo, hi in
         ((-1.0, 1.0), (0.0, 5e-324), (1e-300, 1e-12), (0.5, 2.0), (1e12, 1e300), (-_MAX, _MAX))]


def _seeded(check):
    return lambda n_max: check(random.Random(1), n_max)


def _every(*tables):
    """Every combination of one value from each table."""
    return list(itertools.product(*tables))


def _each_alone(*tables):
    """The argument tuples that vary one argument over its table, the others
    held at the first value of theirs: for a call whose arguments do not act
    together, and whose every combination would cost too much."""
    base = [table[0] for table in tables]
    return [(*base[:i], value, *base[i + 1:]) for i, table in enumerate(tables) for value in table]


# every entry point the sweep calls, and the argument tuples it calls each with
ENTRIES = {
    "chebyshev.cheb_t": (chebyshev.cheb_t,
                         _every(_orders(_CHEAP, chebyshev._MAX_DEGREE), COMPLEXES)),
    "chebyshev.cheb_u": (chebyshev.cheb_u,
                         _every(_orders(_CHEAP, chebyshev._MAX_DEGREE), COMPLEXES)),
    "critical.critical_t_values": (critical.critical_t_values,
                                   _every(_orders(3, critical._MAX_ROOTS_N), TYPES)),
    "critical.rho_c_of_t": (critical.rho_c_of_t, _every(_orders(_CHEAP), COMPLEXES, TYPES)),
    "critical.all_critical_points": (critical.all_critical_points,
                                     _every(_orders(3, critical._MAX_CATALOG_N))),
    "geometry.cusp_bisector_angle": (geometry.cusp_bisector_angle, _every(RECORDS)),
    # rho_c only shifts the samples, by at most the validity radius 0.5
    "geometry.local_level_curve": (geometry.local_level_curve, _each_alone(RECORDS, COMPLEXES)),
    "geometry.cardioid_approx": (geometry.cardioid_approx, _every(RECORDS, REALS)),
    "geometry.trajectory_along_bisector": (geometry.trajectory_along_bisector,
                                           _every(RECORDS, D_LISTS)),
    "imag_axis.solve_v_n": (imag_axis.solve_v_n, _every(ORDERS)),
    "imag_axis.imag_axis_params": (imag_axis.imag_axis_params, _every(ORDERS)),
    "imag_axis.imag_puiseux_params": (imag_axis.imag_puiseux_params, _every(FAMILY)),
    "imag_axis.imag_level_curve": (imag_axis.imag_level_curve, _every(FAMILY)),
    "imag_axis.large_n_params": (imag_axis.large_n_params, _every(ORDERS)),
    "imag_axis.parabola_trajectory": (imag_axis.parabola_trajectory, _every(FAMILY)),
    "kms.type_sign": (kms.type_sign, _every(TYPES)),
    "kms.check_order": (kms.check_order, _every(ORDERS)),
    "kms.lambda_of_mu": (kms.lambda_of_mu, _every(ORDERS, COMPLEXES, TYPES)),
    "kms.rho_of_mu": (kms.rho_of_mu, _every(ORDERS, COMPLEXES, TYPES)),
    "kms.rho_prime_of_mu": (kms.rho_prime_of_mu, _every(ORDERS, COMPLEXES, TYPES)),
    "kms.eigenvector_of_mu": (kms.eigenvector_of_mu, _every(_orders(_CHEAP), COMPLEXES, TYPES)),
    "kms.isotropy_defect": (kms.isotropy_defect, _every(VECTORS)),
    "oracle.build_matrix": (oracle.build_matrix, _every(_orders(3, oracle._MAX_N), COMPLEXES)),
    "oracle.eigenvalues": (oracle.eigenvalues, _every(MATRICES)),
    "oracle.kms_spectrum": (oracle.kms_spectrum, _every(_orders(3, oracle._MAX_N), COMPLEXES)),
    "oracle.type_blocks": (oracle.type_blocks,
                           _every(_orders(3, oracle._MAX_N), COMPLEXES, TYPES)),
    "oracle.gate": (oracle.gate, _every(_orders(3, oracle._MAX_N), COMPLEXES, TYPES)),
    "oracle.count_extraordinary": (oracle.count_extraordinary, _every(ORDERS, VECTORS)),
    "oracle.closed_form_eigenvalues_n3": (oracle.closed_form_eigenvalues_n3, _every(COMPLEXES)),
    "oracle.numeric_borderline": (lambda n, box, t: oracle.numeric_borderline(n, box, eig_type=t),
                                  _every(_orders(3, oracle._MAX_N), BOXES, TYPES)),
    "puiseux.wrap_angle": (puiseux.wrap_angle, _every(REALS)),
    "puiseux.derivatives_at_critical": (puiseux.derivatives_at_critical, _every(POINTS)),
    "puiseux.puiseux_from_derivatives": (puiseux.puiseux_from_derivatives,
                                         _every(COMPLEXES, BUNDLES)),
    "puiseux.puiseux_ab_from_t": (puiseux.puiseux_ab_from_t, _every(POINTS)),
    "puiseux.eval_truncated_series": (puiseux.eval_truncated_series, _every(RECORDS, COMPLEXES)),
    "checks.chebyshev_identities": (lambda: checks.chebyshev_identities(random.Random(1)),
                                    _every()),
    "checks.mu_parameterization": (_seeded(checks.mu_parameterization), _every(_orders(3))),
    "checks.trace_identity": (_seeded(checks.trace_identity), _every(_orders(3))),
    "checks.imaginary_family": (checks.imaginary_family, _every(_orders(3))),
    # n_max = 10**400 would build every catalog up to the catalog's bound first
    "checks.run_battery": (checks.run_battery, _every((3,))),
    "checks.critical_double_eigenvalue": (lambda p: checks.critical_double_eigenvalue([p]),
                                          _every(POINTS)),
    "checks.rho_prime_vanishes": (lambda p: checks.rho_prime_vanishes([p]), _every(POINTS)),
    "checks.route_equivalence": (lambda p: checks.route_equivalence([p]), _every(POINTS)),
    "checks.isotropy": (lambda p: checks.isotropy([p]), _every(POINTS)),
}


def _collapsed(curve) -> bool:
    return all(eps == 0.0 for _, eps, _ in curve.samples)


def _finite(value) -> bool:
    """Whether every number in value is finite, and no level curve in it has collapsed."""
    if isinstance(value, (str, type(None), enum.Enum, numbers.Integral)):
        return True
    if isinstance(value, numbers.Complex):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, geometry.CurveSamples) and _collapsed(value):
        return False
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise TypeError(f"no rule for a {type(value).__name__}")


def _outcome(call, args):
    """None for a finite return or a KmsBifError, else what went wrong."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dropped level-curve samples
            out = call(*args)
    except KmsBifError:
        return None
    except Exception as exc:  # noqa: BLE001 - any other error is the failure reported
        return f"raised {exc!r}"
    return None if _finite(out) else f"returned {out!r:.200}"


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_extreme_arguments_give_finite_values_or_a_typed_error(name):
    call, calls = ENTRIES[name]
    failures = [(args, what) for args in calls
                if (what := _outcome(call, args)) is not None]
    assert not failures, f"{len(failures)} failing calls, the first: {failures[:3]}"


def _public_functions(module):
    return {f"{module.__name__.removeprefix('kmsbif.')}.{name}"
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def test_the_sweep_calls_every_public_function():
    modules = (chebyshev, checks, critical, geometry, imag_axis, kms, oracle, puiseux)
    assert set().union(*map(_public_functions, modules)) == set(ENTRIES)
    exported = {f"{getattr(kmsbif, name).__module__.removeprefix('kmsbif.')}.{name}"
                for name in kmsbif.__all__ if inspect.isfunction(getattr(kmsbif, name))}
    assert exported <= set(ENTRIES)


def test_the_order_table_holds_each_stated_bound_and_one_past_it():
    bounds = (critical._MAX_CATALOG_N, critical._MAX_ROOTS_N, oracle._MAX_N,
              imag_axis._MAX_FAMILY_N, chebyshev._MAX_DEGREE)
    assert {3, _BIG} | set(bounds) | {b + 1 for b in bounds} <= set(ORDERS)
