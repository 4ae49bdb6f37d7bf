"""The error taxonomy: every class in kmsbif.errors is exported, and nothing else is;
every entry point that takes a matrix order rejects one that is not an integer,
and one past its upper bound where it has one, with a message that never shows n,
every entry point that takes an eigenvalue type rejects one that is not an EigType,
a number argument that is not a number, not finite or overflows raises DomainError,
a point where a formula degenerates raises DegenerateArgument, one where a hypothesis
of the formulas fails raises HypothesisViolation, and wrong roots from the colleague
eigensolve raise RootFindingFailure."""

import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import kmsbif
from kmsbif import chebyshev, critical, errors, imag_axis, oracle
from kmsbif.chebyshev import cheb_t, cheb_u
from kmsbif.geometry import cardioid_approx
from kmsbif.imag_axis import solve_v_n
from kmsbif.kms import (EigType, eigenvector_of_mu, isotropy_defect, lambda_of_mu, rho_of_mu,
                        rho_prime_of_mu)
from kmsbif.oracle import build_matrix, closed_form_eigenvalues_n3, count_extraordinary, gate
from kmsbif.puiseux import (DerivativeBundle, PuiseuxParams, _params_from_ab,
                            eval_truncated_series, wrap_angle)


def test_error_classes_are_exactly_the_exported_error_names():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.KmsBifError)
               and obj.__module__ == errors.__name__}
    exported = {name for name in kmsbif.__all__
                if inspect.isclass(getattr(kmsbif, name))
                and issubclass(getattr(kmsbif, name), errors.KmsBifError)}
    assert defined == exported
    assert all(getattr(kmsbif, name) is getattr(errors, name) for name in exported)


def _point_of_order(n):
    # a critical point of K_7, relabelled with the given order
    return dataclasses.replace(kmsbif.all_critical_points(7)[0], n=n)


# each entry point that takes a matrix order, and the largest order it accepts
_ORDER_ENTRY_POINTS = {
    "all_critical_points": (kmsbif.all_critical_points, 384),
    "critical_t_values": (lambda n: kmsbif.critical_t_values(n, EigType.Type2), 1024),
    "rho_c_of_t": (lambda n: kmsbif.rho_c_of_t(n, 0.3j, EigType.Type2), None),
    "kms_spectrum": (lambda n: kmsbif.kms_spectrum(n, 0.5), 512),
    "type_blocks": (lambda n: kmsbif.type_blocks(n, 0.5, EigType.Type1), 512),
    "numeric_borderline": (lambda n: kmsbif.numeric_borderline(n, (1.0, 2.0, 1.0, 2.0),
                                                               eig_type=EigType.Type1), 512),
    "imag_axis_params": (kmsbif.imag_axis_params, 5199),
    "solve_v_n": (solve_v_n, 5199),
    "large_n_params": (kmsbif.large_n_params, None),
    "build_matrix": (lambda n: build_matrix(n, 0.5), 512),
    "lambda_of_mu": (lambda n: lambda_of_mu(n, 1.0, EigType.Type1), None),
    "rho_of_mu": (lambda n: rho_of_mu(n, 1.0, EigType.Type1), None),
    "rho_prime_of_mu": (lambda n: rho_prime_of_mu(n, 1.0 + 0.1j, EigType.Type1), None),
    "eigenvector_of_mu": (lambda n: eigenvector_of_mu(n, 1.0, EigType.Type1), None),
    "count_extraordinary": (lambda n: count_extraordinary(n, [1.0]), None),
    "puiseux_ab_from_t": (lambda n: kmsbif.puiseux_ab_from_t(_point_of_order(n)), None),
    "derivatives_at_critical": (lambda n: kmsbif.derivatives_at_critical(_point_of_order(n)),
                                None),
}


def _order_message(n_max):
    # the message never shows n: str() refuses an int of more than 4300 digits
    if n_max is None:
        return r"^need an integer n >= 3$"
    return rf"^need an integer n with 3 <= n <= {n_max}$"


def _refuse(*args, **kwargs):
    raise AssertionError("ran past the bound")


@pytest.mark.parametrize("name", sorted(_ORDER_ENTRY_POINTS))
def test_order_must_be_an_integer(name):
    call, n_max = _ORDER_ENTRY_POINTS[name]
    for n in (7.0, 7.5, "7", None, 0, 2):
        with pytest.raises(errors.SizeError, match=_order_message(n_max)):
            call(n)
    call(np.int64(7))  # numpy integers are integers


@pytest.mark.parametrize("name", sorted(name for name, (_, n_max) in _ORDER_ENTRY_POINTS.items()
                                         if n_max is not None))
def test_order_one_past_the_range_end_is_refused(name, monkeypatch):
    # the catalog checks its order before any root finding, and no entry point
    # solves anything past its bound
    call, n_max = _ORDER_ENTRY_POINTS[name]
    monkeypatch.setattr(critical, "critical_t_values", _refuse)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    with pytest.raises(errors.SizeError, match=_order_message(n_max)):
        call(n_max + 1)


@pytest.mark.parametrize("n", [5201, 10 ** 80 + 1, 10 ** 160 + 1, 10 ** 5000 + 1],
                         ids=["5201", "10**80 + 1", "10**160 + 1", "10**5000 + 1"])
@pytest.mark.parametrize("call", [kmsbif.imag_axis_params, solve_v_n], ids=lambda f: f.__name__)
def test_imaginary_family_refuses_an_odd_order_past_its_range(call, n, monkeypatch):
    # 5201 is the first odd n whose Pell-type check fails; past it nothing is solved
    monkeypatch.setattr(imag_axis, "solve_v_n", _refuse)
    monkeypatch.setattr(math, "cosh", _refuse)
    with pytest.raises(errors.SizeError, match=_order_message(5199)):
        call(n)


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _upper_end(cell):
    # "3 ≤ n ≤ 5,199" gives 5199, "0 ≤ k ≤ 10⁶" gives 10**6
    end = cell.rsplit("≤", 1)[1].strip().replace(",", "")
    power = re.fullmatch(r"10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", end)
    return 10 ** int(power.group(1).translate(_SUPERSCRIPTS)) if power else int(end)


def _readme_ranges():
    """(names, upper end) for each row of README's Supported range table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Supported range\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    return [({name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.-]+)`", names)},
             _upper_end(cell)) for names, cell in rows]


def test_readme_range_table_states_each_bound_in_the_code():
    stated = {name: end for names, end in _readme_ranges() for name in names}
    assert {name: stated.get(name) for name in ("all_critical_points", "critical_t_values",
                                                "kms_spectrum", "imag_axis_params", "cheb_t")} == {
        "all_critical_points": critical._MAX_CATALOG_N,
        "critical_t_values": critical._MAX_ROOTS_N,
        "kms_spectrum": oracle._MAX_N,
        "imag_axis_params": imag_axis._MAX_FAMILY_N,
        "cheb_t": chebyshev._MAX_DEGREE,
    }
    # each entry point that refuses an order past its bound has a row with that bound
    bounded = {name: n_max for name, (_, n_max) in _ORDER_ENTRY_POINTS.items() if n_max}
    assert {name: stated.get(name) for name in bounded} == bounded


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


def _point_with_t(t_c):
    return dataclasses.replace(_point_of_type(EigType.Type2), t_c=t_c)


_BOX = {"eig_type": EigType.Type1}
_NAN = complex("nan")
# |a|^2 overflows for |a| past 1.3e154
_HUGE_A = PuiseuxParams(lambda_c=-4.0, a=1e200, b=1.0, theta_a=0.0, theta_b=0.0, Theta=0.0,
                        c=0.0)
# the fields of series records with a NaN a, and with an infinite b
_NAN_A = (-8, _NAN, 1, 0.0, 0.0, 0.0, 0.0)
_INF_B = (-8, 1 + 1j, math.inf, 0.0, 0.0, 0.0, 0.0)
# a finite b whose 2|b| overflows, and an a = 0
_HUGE_B = (-8, 1 + 1j, 1e308, 0.0, 0.0, 0.0, 0.0)
_ZERO_A = (-8, 0j, 1 + 1j, 0.0, 0.0, 0.0, 0.0)
# float() and complex() raise OverflowError for an integer this large
_BIG = 10 ** 400
_HUGE_N = 10 ** 5000

# each call passes a number argument that complex() or float() rejects, that
# is NaN or infinite, or at which the entry point's arithmetic overflows
_BAD_NUMBERS = {
    "kms_spectrum: rho 'x'": lambda: kmsbif.kms_spectrum(4, "x"),
    "kms_spectrum: rho None": lambda: kmsbif.kms_spectrum(4, None),
    "type_blocks: rho None": lambda: kmsbif.type_blocks(4, None, EigType.Type2),
    "type_blocks: rho 'x'": lambda: kmsbif.type_blocks(4, "x", EigType.Type1),
    "type_blocks: rho [1, None]": lambda: kmsbif.type_blocks(4, [1, None], EigType.Type1),
    "type_blocks: ragged rho": lambda: kmsbif.type_blocks(5, [[1, 2], [3]], EigType.Type1),
    "closed_form_eigenvalues_n3: rho inf": lambda: closed_form_eigenvalues_n3(math.inf),
    "closed_form_eigenvalues_n3: rho 'x'": lambda: closed_form_eigenvalues_n3("x"),
    "count_extraordinary: a nan eigenvalue": lambda: count_extraordinary(4, [math.nan, 5]),
    "eval_truncated_series: eps nan": lambda: eval_truncated_series(_series_of_k4(), math.nan),
    "wrap_angle: nan": lambda: wrap_angle(math.nan),
    "wrap_angle: inf": lambda: wrap_angle(math.inf),
    "build_matrix: rho None": lambda: build_matrix(4, None),
    "build_matrix: rho 'x'": lambda: build_matrix(4, "x"),
    "build_matrix: rho nan": lambda: build_matrix(4, _NAN),
    "build_matrix: |rho|^39 overflows": lambda: build_matrix(40, 1e200),
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
    # sin(4 mu_c) stays finite, and n^2 sin(4 mu_c) in lambda'' does not
    "derivatives_at_critical: lambda'' overflows": lambda: kmsbif.derivatives_at_critical(
        _point_with_mu(0.5 + 177.25j)),
    "puiseux_from_derivatives: nan": lambda: kmsbif.puiseux_from_derivatives(
        -8, DerivativeBundle(math.nan, 1, 1, 1)),
    "puiseux_from_derivatives: beta overflows": lambda: kmsbif.puiseux_from_derivatives(
        -8, DerivativeBundle(1e300, 1, 1e-10, 1e300)),
    "large_n_params: 2n above the largest double": lambda: kmsbif.large_n_params(10 ** 400 + 1),
    "solve_v_n: n 10**160 + 1": lambda: solve_v_n(10 ** 160 + 1),
    "imag_axis_params: n 10**80 + 1": lambda: kmsbif.imag_axis_params(10 ** 80 + 1),
    "local_level_curve: |a|^2 overflows": lambda: kmsbif.local_level_curve(_HUGE_A, 0j),
    "trajectory_along_bisector: |a|^2 overflows": lambda: kmsbif.trajectory_along_bisector(
        _HUGE_A, [-1.0]),
    "trajectory_along_bisector: d_values None": lambda: kmsbif.trajectory_along_bisector(
        _series_of_k4(), None),
    # a series record refuses a field that is not finite
    "local_level_curve: a nan": lambda: kmsbif.local_level_curve(PuiseuxParams(*_NAN_A), 1),
    "local_level_curve: b inf": lambda: kmsbif.local_level_curve(PuiseuxParams(*_INF_B), 1),
    "cardioid_approx: a nan": lambda: cardioid_approx(PuiseuxParams(*_NAN_A), 0.0),
    "trajectory_along_bisector: b inf": lambda: kmsbif.trajectory_along_bisector(
        PuiseuxParams(*_INF_B), [-0.01, 0.01]),
    # the point at the largest |d| overflows on either side
    "trajectory_along_bisector: d 1e308": lambda: kmsbif.trajectory_along_bisector(
        kmsbif.puiseux_ab_from_t(kmsbif.all_critical_points(8)[0]), [1e308]),
    "trajectory_along_bisector: d -1e308": lambda: kmsbif.trajectory_along_bisector(
        kmsbif.puiseux_ab_from_t(kmsbif.all_critical_points(8)[0]), [-1e308]),
    "cardioid_approx: |a|^2 overflows": lambda: cardioid_approx(_HUGE_A, 0.0),
    # |a|^2 - 2|b|cos(Theta) overflows, or its square does
    "local_level_curve: 2|b| overflows": lambda: kmsbif.local_level_curve(
        PuiseuxParams(*_HUGE_B), 1),
    "cardioid_approx: 2|b| overflows": lambda: cardioid_approx(PuiseuxParams(*_HUGE_B), 1.0),
    "cardioid_approx: the square of |a|^2 - 2|b|cos(Theta) overflows": lambda: cardioid_approx(
        _params_from_ab(-8, 0.7, 1e154), 1.0),
    "_params_from_ab: |a|^2 overflows": lambda: _params_from_ab(-4.0, 1e200, 1.0),
    "kms_spectrum: rho 10**400": lambda: kmsbif.kms_spectrum(5, _BIG),
    "type_blocks: rho 10**400": lambda: kmsbif.type_blocks(5, _BIG, EigType.Type1),
    "rho_c_of_t: t_c 10**400": lambda: kmsbif.rho_c_of_t(6, _BIG, EigType.Type1),
    # |t_c - 1| overflows in the even-n check of t_c = +/-1
    "rho_c_of_t: |t_c - 1| overflows": lambda: kmsbif.rho_c_of_t(
        4, 1.7e308 + 1.7e308j, EigType.Type1),
    "trajectory_along_bisector: d 10**400": lambda: kmsbif.trajectory_along_bisector(
        _series_of_k4(), [_BIG]),
    "cardioid_approx: theta 10**400": lambda: cardioid_approx(_series_of_k4(), _BIG),
    "puiseux_from_derivatives: lambda_c 10**400": lambda: kmsbif.puiseux_from_derivatives(
        _BIG, DerivativeBundle(1, 1, 1, 1)),
    "numeric_borderline: bound 10**400": lambda: kmsbif.numeric_borderline(
        3, (_BIG, 1, -1, 1), **_BOX),
    "closed_form_eigenvalues_n3: rho 10**400": lambda: closed_form_eigenvalues_n3(_BIG),
    "count_extraordinary: an eigenvalue 10**400": lambda: count_extraordinary(4, [_BIG]),
    "cheb_t: z 10**400": lambda: cheb_t(5, _BIG),
    "cheb_t: z None": lambda: cheb_t(5, None),
    "cheb_u: z 'x'": lambda: cheb_u(5, "x"),
    # n mu reaches inf, where cmath.sin raises ValueError
    "lambda_of_mu: mu 1e308": lambda: lambda_of_mu(5, 1e308, EigType.Type1),
    "eigenvector_of_mu: mu 1e308": lambda: eigenvector_of_mu(5, 1e308, EigType.Type1),
    "rho_prime_of_mu: mu 1e308": lambda: rho_prime_of_mu(5, 1e308, EigType.Type2),
    "derivatives_at_critical: mu_c 1e308": lambda: kmsbif.derivatives_at_critical(
        _point_with_mu(1e308)),
    "puiseux_ab_from_t: t_c 'x'": lambda: kmsbif.puiseux_ab_from_t(_point_with_t("x")),
    "puiseux_ab_from_t: t_c None": lambda: kmsbif.puiseux_ab_from_t(_point_with_t(None)),
    "gate: rho_c [1, 2]": lambda: gate(5, [1, 2], EigType.Type1),
    "gate: rho_c ()": lambda: gate(5, (), EigType.Type1),
    "closed_form_eigenvalues_n3: rho [1, 2]": lambda: closed_form_eigenvalues_n3([1, 2]),
    "isotropy_defect: squares overflow": lambda: isotropy_defect([1e200]),
    "isotropy_defect: an inf entry": lambda: isotropy_defect([math.inf]),
    "isotropy_defect: v 'x'": lambda: isotropy_defect("x"),
    "eval_truncated_series: eps 1e308": lambda: eval_truncated_series(_series_of_k4(), 1e308),
    # str() refuses an int of more than 4300 digits, so no message may show n
    "kms_spectrum: n 10**5000": lambda: kmsbif.kms_spectrum(_HUGE_N, 0.5),
    "type_blocks: n 10**5000": lambda: kmsbif.type_blocks(_HUGE_N, 0.5, EigType.Type1),
    "numeric_borderline: n 10**5000": lambda: kmsbif.numeric_borderline(
        _HUGE_N, (1, 2, 1, 2), **_BOX),
    "all_critical_points: n 10**5000": lambda: kmsbif.all_critical_points(_HUGE_N),
    "imag_axis_params: even n 10**5000": lambda: kmsbif.imag_axis_params(_HUGE_N),
    "solve_v_n: n 10**5000 + 1": lambda: solve_v_n(_HUGE_N + 1),
    # n (1 + 1e-12) overflows
    "count_extraordinary: n 10**5000": lambda: count_extraordinary(_HUGE_N, [1.0]),
}
# an order above the entry point's range raises SizeError, not DomainError
_ABOVE_THE_RANGE = {"kms_spectrum: n 10**5000", "type_blocks: n 10**5000",
                    "numeric_borderline: n 10**5000", "all_critical_points: n 10**5000",
                    "solve_v_n: n 10**160 + 1", "imag_axis_params: n 10**80 + 1",
                    "imag_axis_params: even n 10**5000", "solve_v_n: n 10**5000 + 1"}


@pytest.mark.parametrize("case", sorted(_BAD_NUMBERS))
def test_bad_number_raises_domain_error(case):
    error = errors.SizeError if case in _ABOVE_THE_RANGE else errors.DomainError
    with pytest.raises(error) as exc:
        _BAD_NUMBERS[case]()
    assert not re.search(r"\d{20}", str(exc.value)), str(exc.value)


# each call asks for work past a stated bound, an order of critical_t_values
# above 1024 or a Chebyshev degree above 10**6; the row's arguments are built
# first, and then numpy's allocation and eigensolve and both Chebyshev loops
# refuse to run, so a call that does not stop at the bound fails at once
_PAST_A_BOUND = {
    "critical_t_values: n = 1025": (
        errors.SizeError, kmsbif.critical_t_values, lambda: (1025, EigType.Type1)),
    "critical_t_values: n = 1025, type 2": (
        errors.SizeError, kmsbif.critical_t_values, lambda: (1025, EigType.Type2)),
    "critical_t_values: n = 10**29": (
        errors.SizeError, kmsbif.critical_t_values, lambda: (10 ** 29, EigType.Type2)),
    # str() refuses an int of more than 4300 digits, so the message cannot show it
    "critical_t_values: n = 10**5000": (
        errors.SizeError, kmsbif.critical_t_values, lambda: (10 ** 5000, EigType.Type1)),
    "cheb_u: degree 10**5000": (errors.DomainError, cheb_u, lambda: (10 ** 5000, 0.5)),
    "cheb_t: degree 10**400": (errors.DomainError, cheb_t, lambda: (_BIG, 0.5)),
    "cheb_u: degree 10**6 + 1": (errors.DomainError, cheb_u, lambda: (10 ** 6 + 1, 0.5)),
    "puiseux_ab_from_t: n = 10**400": (
        errors.DomainError, kmsbif.puiseux_ab_from_t, lambda: (_point_of_order(_BIG),)),
}


@pytest.mark.parametrize("case", sorted(_PAST_A_BOUND))
def test_work_past_a_bound_is_refused_before_it_starts(case, monkeypatch):
    error, call, args = _PAST_A_BOUND[case]
    args = args()
    monkeypatch.setattr(np, "zeros", _refuse)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse)
    monkeypatch.setattr(chebyshev, "_t_recurrence", _refuse)
    monkeypatch.setattr(chebyshev, "_u_recurrence", _refuse)
    with pytest.raises(error):
        call(*args)


# each call hits a point where the formula it evaluates has a vanishing denominator
_DEGENERATE_POINTS = {
    "rho_c_of_t: denominator vanishes at t_c = 0, n = 5": lambda: kmsbif.rho_c_of_t(
        5, 0j, EigType.Type1),
    "derivatives_at_critical: sin(mu_c) = 0": lambda: kmsbif.derivatives_at_critical(
        _point_with_mu(0j)),
    # n = 4, type 2: 1 + cos(3 mu_c) = 0 at mu_c = pi/3
    "derivatives_at_critical: 1 + s cos((n-1) mu_c) = 0": lambda: kmsbif.derivatives_at_critical(
        _point_with_mu(complex(math.pi / 3))),
    "puiseux_ab_from_t: t_c = 1": lambda: kmsbif.puiseux_ab_from_t(
        dataclasses.replace(_point_of_type(EigType.Type2), t_c=1 + 0j)),
    # a = 0 is no square-root branch point: every |eps| of the curve would read 0
    "local_level_curve: a = 0": lambda: kmsbif.local_level_curve(PuiseuxParams(*_ZERO_A), 1),
}


@pytest.mark.parametrize("case", sorted(_DEGENERATE_POINTS))
def test_degenerate_point_raises_degenerate_argument(case):
    with pytest.raises(errors.DegenerateArgument):
        _DEGENERATE_POINTS[case]()


# each call reaches a point where a hypothesis the formulas rely on fails numerically
_FAILED_HYPOTHESES = {
    # n = 4, type 2: cos(mu_c) + cos(4 mu_c) = 0 at mu_c = pi/5, so rho'' ~ 0
    "derivatives_at_critical: rho'' = 0": lambda: kmsbif.derivatives_at_critical(
        _point_with_mu(complex(math.pi / 5))),
    # n = 3, type 2: T_2(t_c) = 2 t_c^2 - 1 rounds to -1, so a = 0 with t_c^2 != 1
    "puiseux_ab_from_t: a = 0": lambda: kmsbif.puiseux_ab_from_t(
        dataclasses.replace(_point_of_type(EigType.Type2), n=3, t_c=1e-9 + 0j)),
}


@pytest.mark.parametrize("case", sorted(_FAILED_HYPOTHESES))
def test_failed_hypothesis_raises_hypothesis_violation(case):
    with pytest.raises(errors.HypothesisViolation):
        _FAILED_HYPOTHESES[case]()


# (n, type, what the colleague eigensolve returns): no true colleague matrix
# yields these, so each stands in for an eigensolver that returned wrong roots
_BAD_COLLEAGUE_ROOTS = {
    # t = -1 is a root of U_3(t) + 4, which the solve for n = 4, type 2 must return
    "trivial root missing": (4, EigType.Type2, [0.5, 0.7, 0.9], "expected a root near"),
    # T_5(0) = 0 makes g'(0) = 0, so Newton stops at t = 0 with |g| = 6
    "Newton stalls where g' = 0": (5, EigType.Type2, [0.0] * 4, "residual above tolerance"),
}


@pytest.mark.parametrize("case", sorted(_BAD_COLLEAGUE_ROOTS))
def test_bad_colleague_roots_raise_root_finding_failure(case, monkeypatch):
    n, eig_type, roots, message = _BAD_COLLEAGUE_ROOTS[case]
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array(roots, dtype=complex))
    with pytest.raises(errors.RootFindingFailure, match=message):
        kmsbif.critical_t_values(n, eig_type)
