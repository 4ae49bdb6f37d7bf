"""Tests for the double-eigenvalue (bifurcation point) catalog."""

import cmath
import math

import numpy as np
import pytest

from kmsbif import critical
from kmsbif.critical import all_critical_points, critical_t_values, rho_c_of_t
from kmsbif.errors import DegenerateArgument, DomainError, RootFindingFailure, SizeError
from kmsbif.kms import EigType, lambda_of_mu, rho_of_mu, rho_prime_of_mu
from kmsbif.oracle import kms_spectrum

SQRT8 = math.sqrt(8.0)


def _expected_degree(n, eig_type):
    if eig_type is EigType.Type1:
        return n - 2 if n % 2 == 0 else n - 3
    return n - 2 if n % 2 == 0 else n - 1


def test_critical_t_values_type1_n3_is_empty():
    # U_2(t) - 3 = 4t^2 - 4 has only the trivial roots +/-1, and both are removed
    assert critical_t_values(3, EigType.Type1) == []
    # critical_t_values validates n, also for the catalog
    for et in EigType:
        with pytest.raises(SizeError, match="need an integer n >= 3, got 2"):
            critical_t_values(2, et)
    with pytest.raises(SizeError, match="need an integer n >= 3, got 2"):
        all_critical_points(2)


def test_catalog_rejects_n_above_oracle_range_before_root_finding(monkeypatch):
    def no_roots(n, eig_type):
        raise AssertionError(f"root finding ran at n = {n}")

    monkeypatch.setattr(critical, "critical_t_values", no_roots)
    with pytest.raises(SizeError, match=r"^oracle needs 3 <= n <= 512, got 513$"):
        all_critical_points(513)


def test_rho_c_rejects_a_t_c_that_is_not_finite():
    # odd n reaches the Chebyshev recurrences, even n the trigonometric branch
    for n in (7, 8):
        for t_c in (math.nan, math.inf, complex(0.3, math.nan), complex(-math.inf, 1.0)):
            with pytest.raises(DomainError, match="finite"):
                rho_c_of_t(n, t_c, EigType.Type2)


def test_q_polynomial_divides_exactly():
    # the deflated trivial roots really are roots of U_{n-1}(t) -/+ n
    from kmsbif.chebyshev import cheb_u
    assert cheb_u(3, 1.0) - 4 == 0.0    # type-1, n=4: t = 1 is a root
    assert cheb_u(3, -1.0) - 4 != 0.0   # ... but t = -1 is not
    assert cheb_u(3, -1.0) + 4 == 0.0   # type-2, n=4: t = -1 is a root
    assert cheb_u(4, 1.0) - 5 == 0.0    # type-1, n=5: both t = +/-1 are roots
    assert cheb_u(4, -1.0) - 5 == 0.0
    assert cheb_u(4, 1.0) + 5 != 0.0    # type-2, odd n: no trivial roots


def test_critical_t_values_n3():
    roots = critical_t_values(3, EigType.Type2)
    expected = {1j / math.sqrt(2), -1j / math.sqrt(2)}
    assert len(roots) == 2
    for r in roots:
        assert min(abs(r - e) for e in expected) < 1e-12


def test_critical_t_values_worked_examples():
    roots4 = critical_t_values(4, EigType.Type2)
    assert min(abs(r - (1 + 1j) / 2) for r in roots4) < 1e-12
    roots8 = critical_t_values(8, EigType.Type1)
    assert min(abs(r - (0.611 - 0.274j)) for r in roots8) < 1e-3


def test_root_count_matches_degree():
    for n in range(3, 31):
        for et in EigType:
            if n == 3 and et is EigType.Type1:
                continue
            roots = critical_t_values(n, et)
            assert len(roots) == _expected_degree(n, et)


def test_coinciding_roots_raise(monkeypatch):
    # two Newton runs that land on the same root must not be merged silently
    polish = critical._newton_polish

    def collapse(n, s, t):
        t, residual = polish(n, s, t)
        return (complex(abs(t.real), abs(t.imag)), residual)

    monkeypatch.setattr(critical, "_newton_polish", collapse)
    with pytest.raises(RootFindingFailure, match="coincide"):
        critical_t_values(5, EigType.Type2)


def test_rho_c_matches_mu_route():
    # the Chebyshev ratio in t_c (half-integer degrees for even n, evaluated in
    # place) equals rho(mu) of the mu-parameterization at mu = acos t_c
    for n in range(3, 41):
        for p in all_critical_points(n):
            via_mu = rho_of_mu(n, cmath.acos(p.t_c), p.eig_type)
            assert abs(p.rho_c - via_mu) <= 1e-10 * abs(via_mu)


def test_rho_c_degenerate_at_unit_argument():
    for n in (4, 8):
        for et in EigType:
            for t in (1.0, -1.0, 1.0 + 1e-15j):
                with pytest.raises(DegenerateArgument):
                    rho_c_of_t(n, t, et)


def test_rho_c_examples():
    assert abs(rho_c_of_t(3, 1j / math.sqrt(2), EigType.Type2) - 1j * SQRT8) < 1e-12
    assert abs(rho_c_of_t(4, (1 + 1j) / 2, EigType.Type2) - (1 + 2j)) < 1e-12
    val = rho_c_of_t(8, 0.6105621720724612 - 0.27432847121452864j, EigType.Type1)
    assert abs(val - (0.922 - 1.29j)) < 4e-3


def test_all_critical_points_n3():
    pts = all_critical_points(3)
    assert len(pts) == 2
    assert all(p.eig_type is EigType.Type2 for p in pts)
    got = sorted(p.rho_c.imag for p in pts)
    assert abs(got[0] + SQRT8) < 1e-12 and abs(got[1] - SQRT8) < 1e-12
    assert all(abs(p.rho_c.real) < 1e-12 for p in pts)


def test_all_critical_points_n19_contains_imaginary_point():
    pts = all_critical_points(19)
    dist = min(abs(p.rho_c - 1.28j) for p in pts)
    assert dist < 5e-3


def test_critical_point_fields_consistent():
    for n in (4, 5, 8, 9):
        for p in all_critical_points(n):
            assert p.lambda_c == -n
            assert abs(cmath.cos(p.mu_c) - p.t_c) < 1e-12
            assert 0.0 <= p.mu_c.real <= math.pi
            for excluded in (-1.0, 0.0, 1.0):
                assert abs(p.rho_c - excluded) > 1e-6


def test_rho_c_outside_unit_circle():
    for n in range(3, 31):
        for p in all_critical_points(n):
            assert abs(p.rho_c) > 1.0


def test_conjugation_and_negation_closure_odd_n():
    for n in (5, 7, 9, 11):
        rhos = [p.rho_c for p in all_critical_points(n)]
        for r in rhos:
            assert min(abs(x - r.conjugate()) for x in rhos) < 1e-8
            assert min(abs(x + r) for x in rhos) < 1e-8


def test_mu_parameterization_at_critical_points():
    for n in (4, 6, 9, 12):
        for p in all_critical_points(n):
            assert abs(lambda_of_mu(p.n, p.mu_c, p.eig_type) + n) < 1e-9 * n
            assert abs(rho_prime_of_mu(p.n, p.mu_c, p.eig_type)) < 1e-8


def test_oracle_sees_double_eigenvalue_n6():
    for p in all_critical_points(6):
        gaps = np.sort(np.abs(kms_spectrum(6, p.rho_c) + 6.0))
        assert gaps[0] < 1e-5 * 6 and gaps[1] < 1e-5 * 6
        assert gaps[2] > 1e-3


def test_catalog_ordering_deterministic():
    pts = all_critical_points(8)
    keys = [(p.eig_type.value, cmath.phase(p.rho_c)) for p in pts]
    assert keys == sorted(keys)
