"""Tests for the dense-eigensolver oracle and the borderline tracer."""

import cmath
import warnings

import numpy as np
import pytest

from kmsbif import oracle
from kmsbif.errors import DomainError, SizeError
from kmsbif.kms import EigType, build_matrix
from kmsbif.oracle import (closed_form_eigenvalues_n3, count_extraordinary,
                           eigenvalues, kms_spectrum, numeric_borderline,
                           type_blocks)


def test_identity_matrix_spectrum():
    s = kms_spectrum(6, 0.0)
    assert np.allclose(s.eigenvalues, np.ones(6))
    assert count_extraordinary(s) == 0


def test_double_eigenvalue_at_i_sqrt8():
    s = kms_spectrum(3, 1j * np.sqrt(8.0))
    ev = np.sort(np.abs(s.eigenvalues + 3.0))
    assert ev[0] < 1e-6 and ev[1] < 1e-6   # -3 twice (defective, so ~sqrt(eps))
    assert np.any(np.abs(s.eigenvalues - 9.0) < 1e-10)  # 1 - rho^2 = 9


def test_closed_forms_match_solver():
    rng = np.random.default_rng(301)
    for _ in range(50):
        rho = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        ev = kms_spectrum(3, rho).eigenvalues
        for lam in closed_form_eigenvalues_n3(rho):
            assert np.min(np.abs(ev - lam)) < 1e-10


def test_trace_and_determinant_invariants():
    rng = np.random.default_rng(302)
    for _ in range(25):
        n = int(rng.integers(3, 20))
        rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        m = build_matrix(n, rho)
        s = eigenvalues(m)
        assert abs(complex(np.sum(s.eigenvalues)) - n) < 1e-8 * n
        det = complex(np.linalg.det(m.entries))
        prod = complex(np.prod(s.eigenvalues))
        assert abs(prod - det) < 1e-6 * max(abs(det), 1e-30)


def test_accepts_plain_arrays_and_rejects_bad_shapes():
    a = np.diag([1.0 + 0j, 2.0, 3.0])
    s = eigenvalues(a)
    assert sorted(s.eigenvalues.real) == pytest.approx([1.0, 2.0, 3.0])
    with pytest.raises(SizeError):
        eigenvalues(np.zeros((2, 3), dtype=complex))
    with pytest.raises(SizeError):
        eigenvalues(np.eye(600, dtype=complex))


# Both the full solve and the block solves are backward stable (LAPACK zgeev):
# each computed eigenpair is exact for a matrix within a small multiple of
# n u ||K||_F of K_n (LAPACK Users' Guide, sec. 4.8), and the blocks are
# orthogonal compressions of K_n, so their norms are at most ||K||_F.  An
# eigenpair residual measures that backward error alone, so it gets the
# solver's constant, 8.  Two computed spectra also differ by the eigenvalue
# condition number, which stays O(1) because random rho keeps clear of the
# exceptional points; a further factor 4 allows for it.
_RESIDUAL_C = 8
_SPECTRUM_C = 4 * _RESIDUAL_C


def _random_draws(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 41))
        rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = build_matrix(n, rho).entries
        yield n, rho, k, n * np.finfo(float).eps / 2 * np.linalg.norm(k)


def _lift(n, eig_type, y):
    # orthonormal basis: (e_j -/+ e_(n-1-j))/sqrt(2) for j < n//2, plus the
    # middle e_(n//2) for type-2 with odd n
    half = n // 2
    sign = -1.0 if eig_type is EigType.Type1 else 1.0
    x = np.zeros((n,) + y.shape[1:], dtype=complex)
    x[:half] = y[:half] / np.sqrt(2.0)
    x[n - half:] = sign * y[:half][::-1] / np.sqrt(2.0)
    if n % 2 and eig_type is EigType.Type2:
        x[half] = y[half]
    return x


def test_type1_block_of_k3():
    # the type-1 block of K_3(rho) is [1 - rho^2]; at rho = 2i it is [5]
    block = type_blocks(3, 2j, EigType.Type1)
    assert block.shape == (1, 1)
    assert block[0, 0] == pytest.approx(5.0, abs=1e-15)
    rhos = np.array([[0.5, 2j], [1 + 1j, -3.0]])
    stacked = type_blocks(3, rhos, EigType.Type1)
    assert stacked.shape == (2, 2, 1, 1)
    assert np.allclose(stacked[..., 0, 0], 1 - rhos ** 2, rtol=1e-15)
    assert type_blocks(3, rhos, EigType.Type2).shape == (2, 2, 2, 2)


def test_split_spectra_match_full_spectrum():
    for n, rho, k, scale in _random_draws(401, 300):
        full = kms_spectrum(n, rho).eigenvalues
        split = np.concatenate([np.linalg.eigvals(type_blocks(n, rho, t)) for t in EigType])
        assert split.size == n
        dist = np.abs(full[:, None] - split[None, :])
        gap = max(dist.min(axis=0).max(), dist.min(axis=1).max())
        assert gap <= _SPECTRUM_C * scale, (n, rho, gap / scale)


def test_block_eigenvectors_lift_to_typed_eigenvectors():
    for n, rho, k, scale in _random_draws(402, 300):
        for eig_type in EigType:
            lam, y = np.linalg.eig(type_blocks(n, rho, eig_type))
            x = _lift(n, eig_type, y)
            sign = -1.0 if eig_type is EigType.Type1 else 1.0
            assert np.array_equal(x[::-1], sign * x)
            resid = np.linalg.norm(k @ x - x * lam, axis=0) / np.linalg.norm(x, axis=0)
            assert resid.max() <= _RESIDUAL_C * scale, (n, rho, eig_type)


def test_borderline_rejects_sizes_before_grid_work(monkeypatch):
    def no_grid(*args):
        raise AssertionError("grid evaluated")

    monkeypatch.setattr(oracle, "_grid_values", no_grid)
    for n in (2, 513):
        with pytest.raises(SizeError):
            numeric_borderline(n, (-2, 2, -2, 2), resolution=64)


def test_count_extraordinary_steps_across_bifurcation():
    y = np.sqrt(8.0)
    below = count_extraordinary(kms_spectrum(3, 1j * (y - 0.01)))
    above = count_extraordinary(kms_spectrum(3, 1j * (y + 0.01)))
    assert above == below + 1


def test_borderline_resolution_floor():
    with pytest.raises(DomainError):
        numeric_borderline(3, (-2, 2, -2, 2), resolution=32)


def test_borderline_passes_through_n3_critical_points():
    # the borderline has a cusp at +/- i sqrt(8); the inside wedge thins like
    # r^(3/2), so a grid contour approaches the tip only to ~cell^(2/3)
    for target, bounds in ((1j * np.sqrt(8.0), (-0.5, 0.5, 2.3, 3.3)),
                           (-1j * np.sqrt(8.0), (-0.5, 0.5, -3.3, -2.3))):
        pieces = numeric_borderline(3, bounds, resolution=64,
                                    eig_type=EigType.Type2)
        assert pieces
        pts = np.array([rho for piece in pieces for _, _, rho in piece.samples])
        cell = 1.0 / 63
        assert np.min(np.abs(pts - target)) < 4 * cell


def test_borderline_type1_is_cassini_oval():
    # type-1 eigenvalue of K_3 is 1 - rho^2, so its borderline is |1-rho^2| = 3
    pieces = numeric_borderline(3, (-2.4, 2.4, -2.4, 2.4), resolution=64,
                                eig_type=EigType.Type1)
    pts = np.array([rho for piece in pieces for _, _, rho in piece.samples])
    assert pts.size > 50
    cell = 4.8 / 63
    assert np.max(np.abs(np.abs(1 - pts ** 2) - 3.0)) < 3.0 * cell


def test_borderline_sample_fields_consistent():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pieces = numeric_borderline(3, (0.5, 3.0, 0.5, 3.0), resolution=64)
    for piece in pieces:
        assert piece.center == 0j
        for theta, mag, rho in piece.samples:
            assert mag == pytest.approx(abs(rho))
            assert theta == pytest.approx(cmath.phase(rho))
