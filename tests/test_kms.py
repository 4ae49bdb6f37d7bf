"""Tests for K_n(rho) construction and the mu-parameterization."""

import cmath

import numpy as np
import pytest

from kmsbif.errors import DegenerateArgument, DomainError, SizeError
from kmsbif.kms import (EigType, eigenvector_of_mu, isotropy_defect, lambda_of_mu, rho_of_mu,
                        rho_prime_of_mu, type_sign)
from kmsbif.oracle import KmsMatrix, build_matrix, kms_spectrum, type_blocks


def test_build_matrix_entries():
    rho = 0.4 + 0.3j
    m = build_matrix(4, rho)
    assert m.n == 4
    a = m.block
    for j in range(4):
        for k in range(4):
            assert a[j, k] == pytest.approx(rho ** abs(j - k), rel=1e-15)
    assert np.array_equal(a, a.T)
    assert complex(np.trace(a)) == pytest.approx(4.0)
    # the one block holds, byte for byte (signed zeros included), rho^|j-k| by
    # sequential multiplication; that pins the rounding of every dense solve
    rng = np.random.default_rng(207)
    for n in [3, 4, 512] + [int(k) for k in rng.integers(5, 513, 12)]:
        r, phase = rng.uniform(0.0, 1.5), rng.uniform(-np.pi, np.pi)
        for rho in (r, -r, 1j * r, -1j * r, int(rng.integers(-3, 4)), np.float64(-r),
                    np.complex128(r * np.exp(1j * phase)), complex(r * np.exp(1j * phase))):
            powers = np.empty(n, dtype=complex)
            powers[0] = 1.0
            for k in range(1, n):
                powers[k] = powers[k - 1] * rho
            j = np.arange(n)
            want = powers[np.abs(j[:, None] - j[None, :])]
            assert build_matrix(n, rho).block.tobytes() == want.tobytes(), (n, rho)


def test_build_matrix_rejects_small_n():
    with pytest.raises(SizeError):
        build_matrix(2, 0.5j)


def test_entries_read_only():
    rho = 0.2 + 0.1j
    split = [KmsMatrix(3, rho, type_blocks(3, rho, t)) for t in EigType]
    for m in (build_matrix(3, rho), *split):
        with pytest.raises(ValueError):
            m.block[0, 0] = 0.0


def test_type_sign():
    assert type_sign(EigType.Type1) == -1
    assert type_sign(EigType.Type2) == +1


def test_lambda_of_mu_matches_oracle_spectrum():
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(3, 21))
        mu = complex(rng.uniform(0.2, 2.9), rng.uniform(-0.5, 0.5))
        for et in EigType:
            lam = lambda_of_mu(n, mu, et)
            ev = kms_spectrum(n, rho_of_mu(n, mu, et))
            worst = max(worst, float(np.min(np.abs(ev - lam))))
    assert worst < 1e-8


def test_trace_identity():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(3, 16))
        rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ev = kms_spectrum(n, rho)
        assert abs(complex(np.sum(ev)) - n) < 1e-9 * n


def test_sign_symmetry_odd_n():
    # for odd n the spectra of K_n(rho) and K_n(-rho) coincide as multisets
    rng = np.random.default_rng(203)
    for n in (3, 5, 7, 11):
        rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = np.sort_complex(kms_spectrum(n, rho))
        b = np.sort_complex(kms_spectrum(n, -rho))
        assert np.max(np.abs(a - b)) < 1e-9


def test_conjugation_symmetry_imaginary_rho():
    # odd n, rho = iy: spectrum closed under complex conjugation
    rng = np.random.default_rng(204)
    for n in (3, 5, 9, 13):
        y = float(rng.uniform(0.3, 2.5))
        ev = kms_spectrum(n, 1j * y)
        for w in np.conj(ev):
            assert np.min(np.abs(ev - w)) < 1e-10


def test_eigenvector_residual():
    rng = np.random.default_rng(205)
    for _ in range(40):
        n = int(rng.integers(3, 15))
        mu = complex(rng.uniform(0.3, 2.8), rng.uniform(-0.4, 0.4))
        et = EigType.Type1 if rng.integers(2) else EigType.Type2
        try:
            v = eigenvector_of_mu(n, mu, et)
        except DomainError:  # vanishing chance with random draws, but possible
            continue
        rho = rho_of_mu(n, mu, et)
        lam = lambda_of_mu(n, mu, et)
        k = build_matrix(n, rho).block
        resid = np.linalg.norm(k @ v - lam * v) / np.linalg.norm(v)
        assert resid < 1e-10 * n


def test_isotropy_identity():
    # sum of squared entries of the raw eigenvector equals (n + lambda)/2
    rng = np.random.default_rng(206)
    for _ in range(60):
        n = int(rng.integers(3, 20))
        mu = complex(rng.uniform(0.3, 2.8), rng.uniform(-0.4, 0.4))
        et = EigType.Type1 if rng.integers(2) else EigType.Type2
        defect = isotropy_defect(eigenvector_of_mu(n, mu, et))
        expected = (n + lambda_of_mu(n, mu, et)) / 2
        assert abs(defect - expected) < 1e-10 * (1 + abs(expected))


def test_degenerate_mu_rejected():
    with pytest.raises(DegenerateArgument):
        lambda_of_mu(5, 0.0 + 0j, EigType.Type2)
    with pytest.raises(DegenerateArgument):
        eigenvector_of_mu(5, complex(np.pi), EigType.Type1)


def test_multiple_of_pi_floor_follows_the_rounding_of_mu():
    # |sin mu| = 0.42 here, and mu's own rounding spoils sin mu by at most u |mu| = 1.1e-3
    v = eigenvector_of_mu(5, 1e13 + 0.3j, EigType.Type1)
    assert v.shape == (5,) and np.isfinite(v).all()
    # type 2, so that rho(mu) = -1 leaves rho_of_mu's own guard quiet
    with pytest.raises(DegenerateArgument, match="multiple of pi"):
        eigenvector_of_mu(5, complex(3 * np.pi), EigType.Type2)


def test_excluded_rho_rejected_for_eigenvectors():
    # mu chosen so that rho(mu) = (n+1)/(n-1): rho_of_mu itself is fine, but
    # the eigenvector construction must reject the excluded parameter value
    n = 5
    target = (n + 1) / (n - 1)
    # type-2: rho = cos((n+1)mu/2)/cos((n-1)mu/2); solve by bisection
    def f(mu):
        return (cmath.cos((n + 1) * mu / 2) / cmath.cos((n - 1) * mu / 2)).real - target

    lo, hi = 1.05, 1.15  # pole-free bracket of the rho(mu) = 3/2 crossing
    assert f(lo) * f(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    mu = complex(0.5 * (lo + hi))
    assert abs(rho_of_mu(n, mu, EigType.Type2) - target) < 1e-10
    with pytest.raises(DomainError):
        eigenvector_of_mu(n, mu, EigType.Type2)


def test_rho_prime_finite_difference():
    rng = np.random.default_rng(207)
    h = 1e-6
    for _ in range(25):
        n = int(rng.integers(3, 12))
        mu = complex(rng.uniform(0.4, 2.6), rng.uniform(-0.3, 0.3))
        et = EigType.Type1 if rng.integers(2) else EigType.Type2
        try:
            fd = (rho_of_mu(n, mu + h, et) - rho_of_mu(n, mu - h, et)) / (2 * h)
            val = rho_prime_of_mu(n, mu, et)
        except DomainError:
            continue
        assert abs(fd - val) < 1e-5 * (1 + abs(val))
