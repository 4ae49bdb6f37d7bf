"""Tests for the double-eigenvalue (bifurcation point) catalog."""

import cmath
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from kmsbif import critical, kms, oracle
from kmsbif.critical import CriticalPoint, all_critical_points, critical_t_values, rho_c_of_t
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


def test_colleague_solver_failure_is_a_typed_error(monkeypatch):
    # root finding never goes through oracle.eigenvalues, whose calls count oracle solves
    def no_oracle(m):
        raise AssertionError("oracle.eigenvalues called")

    monkeypatch.setattr(oracle, "eigenvalues", no_oracle)
    assert len(critical_t_values(8, EigType.Type1)) == 6

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    for eig_type in EigType:
        with pytest.raises(RootFindingFailure, match="did not converge"):
            critical_t_values(8, eig_type)


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


def test_conjugation_and_negation_closure_by_type():
    # conj rho_c is a point of the same type.  D = diag((-1)^j) gives
    # D K_n(rho) D = K_n(-rho) and maps a symmetric vector to a symmetric one
    # for odd n and to a skew-symmetric one for even n, so -rho_c is a point
    # of the same type for odd n and of the other type for even n
    def nearest(rhos, target):
        return min(abs(x - target) for x in rhos) / abs(target)

    for n in [*range(3, 31), 48, 64]:
        by_type = {t: [p.rho_c for p in all_critical_points(n) if p.eig_type is t]
                   for t in EigType}
        for t, rhos in by_type.items():
            other = EigType.Type2 if t is EigType.Type1 else EigType.Type1
            negated = by_type[t if n % 2 else other]
            assert len(negated) == len(rhos), (n, t)
            for r in rhos:
                assert nearest(rhos, r.conjugate()) < 1e-8, (n, t, r)
                assert nearest(negated, -r) < 1e-8, (n, t, r)


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


def test_catalog_points_carry_the_gate_gap():
    # gate_gap is the second-smallest |lambda + n| of the point's own type
    # block, bit for bit what a fresh solve of that block gives, and within
    # the gate's radius; it takes no part in equality or hashing, so a point
    # built without it (as the benchmark builds them) equals the catalog's
    for n in range(3, 31):
        for p in all_critical_points(n):
            ev = oracle._eigvals(oracle.type_blocks(n, p.rho_c, p.eig_type))
            assert type(p.gate_gap) is float
            assert p.gate_gap.hex() == float(np.sort(np.abs(ev + n))[1]).hex(), (n, p.rho_c)
            assert p.gate_gap <= oracle.GATE_RADIUS * n
            bare = CriticalPoint(n=p.n, eig_type=p.eig_type, t_c=p.t_c, mu_c=p.mu_c,
                                 rho_c=p.rho_c, lambda_c=p.lambda_c)
            assert bare.gate_gap is None
            assert bare == p and hash(bare) == hash(p)


def _no_build(*args):
    raise AssertionError("dense matrix built")


def test_catalog_gate_solves_each_point_once_from_its_type_blocks(monkeypatch):
    # one oracle solve per point, keyed on the point's (n, rho_c), and no
    # dense K_n anywhere on the catalog's path
    solved = []
    solve = oracle.eigenvalues

    def recording(m):
        solved.append((m.n, m.rho))
        return solve(m)

    monkeypatch.setattr(oracle, "eigenvalues", recording)
    monkeypatch.setattr(kms, "build_matrix", _no_build)
    monkeypatch.setattr(oracle, "build_matrix", _no_build)
    for n in range(3, 21):
        solved.clear()
        points = all_critical_points(n)
        assert Counter(solved) == Counter((p.n, p.rho_c) for p in points)


@pytest.mark.parametrize("eig_type", list(EigType))
def test_catalog_gate_reads_both_type_blocks(monkeypatch, eig_type):
    # at n = 6 every point of eig_type has its pair at -6 in its own block; the
    # gate solves that block and certifies the other one free of -n
    n = 6
    other = EigType.Type2 if eig_type is EigType.Type1 else EigType.Type1
    roots = critical.critical_t_values
    monkeypatch.setattr(critical, "critical_t_values",
                        lambda n, t: roots(n, t) if t is eig_type else [])

    def third_minus_n(block):
        return np.diag(np.r_[-n, np.ones(len(block) - 1)]).astype(complex)

    def all_minus_n(block):
        return -n * np.eye(len(block), dtype=complex)

    block_of = oracle._block
    for target, change, message in ((other, third_minus_n, "cannot certify"),
                                    (eig_type, np.zeros_like, "no double eigenvalue"),
                                    (eig_type, all_minus_n, "multiplicity > 2")):
        def altered(n, powers, type1):
            block = block_of(n, powers, type1)
            return change(block) if type1 == (target is EigType.Type1) else block

        monkeypatch.setattr(oracle, "_block", altered)
        with pytest.raises(RootFindingFailure, match=message):
            all_critical_points(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_catalog_gate_at_blocks_of_at_most_two_eigenvalues(n):
    # K_3's type-2 block, K_4's blocks and K_5's type-1 block are 2 x 2: the
    # own block is the pair at -n and nothing else, so there is no third
    # eigenvalue to check; the other block (1 x 1 for K_3's type 1) is
    # certified free of -n, and its eigenvalues do lie away from it
    gate = oracle.GATE_RADIUS * n
    pairs_only = 0
    for p in all_critical_points(n):
        other = EigType.Type2 if p.eig_type is EigType.Type1 else EigType.Type1
        own = oracle.type_blocks(n, p.rho_c, p.eig_type)
        pairs_only += own.shape[-1] == 2
        assert np.sort(np.abs(np.linalg.eigvals(own) + n))[1] <= gate
        block = oracle.type_blocks(n, p.rho_c, other)
        assert oracle._excludes(block, -n, gate)
        assert np.abs(np.linalg.eigvals(block) + n).min() > gate
    assert pairs_only > 0
