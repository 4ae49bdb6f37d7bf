"""Tests for the dense-eigensolver oracle and the borderline tracer."""

import cmath
import math
import warnings

import numpy as np
import pytest

from kmsbif import oracle
from kmsbif.errors import DomainError, KmsBifError, RootFindingFailure, SizeError
from kmsbif.kms import EigType, build_matrix
from kmsbif.oracle import (closed_form_eigenvalues_n3, count_extraordinary,
                           eigenvalues, kms_spectrum, numeric_borderline,
                           type_blocks)


def test_identity_matrix_spectrum():
    ev = kms_spectrum(6, 0.0)
    assert np.allclose(ev, np.ones(6))
    assert count_extraordinary(6, ev) == 0


def test_double_eigenvalue_at_i_sqrt8():
    ev = kms_spectrum(3, 1j * np.sqrt(8.0))
    gaps = np.sort(np.abs(ev + 3.0))
    assert gaps[0] < 1e-6 and gaps[1] < 1e-6   # -3 twice (defective, so ~sqrt(eps))
    assert np.any(np.abs(ev - 9.0) < 1e-10)  # 1 - rho^2 = 9


def test_closed_forms_match_solver():
    rng = np.random.default_rng(301)
    for _ in range(50):
        rho = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        ev = kms_spectrum(3, rho)
        for lam in closed_form_eigenvalues_n3(rho):
            assert np.min(np.abs(ev - lam)) < 1e-10


def test_trace_and_determinant_invariants():
    rng = np.random.default_rng(302)
    for _ in range(25):
        n = int(rng.integers(3, 20))
        rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        m = build_matrix(n, rho)
        ev = eigenvalues(m)
        assert abs(complex(np.sum(ev)) - n) < 1e-8 * n
        det = complex(np.linalg.det(m.entries))
        prod = complex(np.prod(ev))
        assert abs(prod - det) < 1e-6 * max(abs(det), 1e-30)


def _no_build(*args):
    raise AssertionError("matrix built")


def test_rejects_orders_outside_the_limit(monkeypatch):
    with pytest.raises(SizeError):
        eigenvalues(build_matrix(600, 0.5))
    monkeypatch.setattr(oracle, "build_matrix", _no_build)
    for n in (2, 600):
        with pytest.raises(SizeError):
            kms_spectrum(n, 0.5)


def test_kms_spectrum_rejects_bad_rho_before_building(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the largest |rho| whose eigenvalue bound 2 n |rho|^(n-1) stays finite
        for n in (4, 20, 100):
            r = math.exp((math.log(np.finfo(float).max) - math.log(2 * n)) / (n - 1))
            assert np.all(np.isfinite(kms_spectrum(n, 0.999 * r * 1j)))
        monkeypatch.setattr(oracle, "build_matrix", _no_build)
        for n, rho in ((3, math.nan), (3, math.inf), (3, complex(0, math.nan)),
                       (100, 1e10)):
            with pytest.raises(DomainError):
                kms_spectrum(n, rho)


def test_solver_failure_is_a_typed_error(monkeypatch):
    # a LAPACK failure surfaces as a failed solve from every oracle route
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    for route in (lambda: kms_spectrum(3, 0.5),
                  lambda: numeric_borderline(3, (-2, 2, -2, 2), eig_type=EigType.Type1)):
        with pytest.raises(RootFindingFailure) as exc:
            route()
        assert isinstance(exc.value, KmsBifError)


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


def test_type_blocks_rejects_bad_rho_before_arithmetic():
    # the rule of kms_spectrum: rho finite and 2 n |rho|^(n-1) finite, checked
    # over the whole array before a power is formed (so no RuntimeWarning)
    row = np.array([0.5, 1j, math.nan, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n, rho in ((4, math.nan), (20, 1e200), (4, row), (20, row.real * 1e20)):
            with pytest.raises(DomainError):
                type_blocks(n, rho, EigType.Type1)


def test_split_spectra_match_full_spectrum():
    for n, rho, k, scale in _random_draws(401, 300):
        full = kms_spectrum(n, rho)
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
            numeric_borderline(n, (-2, 2, -2, 2), resolution=64, eig_type=EigType.Type1)
    # a NaN or infinite bound, a box where |rho|^(n-1) overflows, and a box
    # of zero or negative width or height
    for bounds in ((float("nan"), 1, 0, 1), (0, float("inf"), 0, 1),
                   (-1e200, 1e200, -1e200, 1e200), (0, 0, 0, 2), (0, 2, 1, 1),
                   (1, -1, -1, 1), (-1, 1, 1, -1)):
        with pytest.raises(DomainError):
            numeric_borderline(3, bounds, eig_type=EigType.Type1)


def test_count_extraordinary_steps_across_bifurcation():
    y = np.sqrt(8.0)
    below = count_extraordinary(3, kms_spectrum(3, 1j * (y - 0.01)))
    above = count_extraordinary(3, kms_spectrum(3, 1j * (y + 0.01)))
    assert above == below + 1


def test_borderline_resolution_floor():
    for resolution in (32, 64.5, 96.0, "96"):
        with pytest.raises(DomainError):
            numeric_borderline(3, (-2, 2, -2, 2), resolution=resolution,
                               eig_type=EigType.Type1)


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
        pieces = numeric_borderline(3, (0.5, 3.0, 0.5, 3.0), resolution=64,
                                    eig_type=EigType.Type2)
    assert pieces
    for piece in pieces:
        assert piece.center == 0j
        for theta, mag, rho in piece.samples:
            assert mag == pytest.approx(abs(rho))
            assert theta == pytest.approx(cmath.phase(rho))


def _grid_by_rows(n, res, bounds, eig_type):
    # the grid without mirroring or certified signs: every node solved, one
    # eigvals call per row
    xs, ys = np.linspace(*bounds[:2], res), np.linspace(*bounds[2:], res)
    return np.array([np.abs(np.linalg.eigvals(type_blocks(n, xs + 1j * y, eig_type)))
                     .max(axis=-1) - n for y in ys])


def _mirrored_grid(n, res, bounds, eig_type):
    # the grid before certified signs: on a box symmetric about the real axis,
    # or about the imaginary axis for odd n, the nodes below index res // 2
    # take the solved value of their mirror node
    row0 = res // 2 if bounds[2] == -bounds[3] else 0
    col0 = res // 2 if bounds[0] == -bounds[1] and n % 2 else 0
    xs, ys = np.linspace(*bounds[:2], res), np.linspace(*bounds[2:], res)
    f = np.empty((res, res))
    for j in range(row0, res):
        blocks = type_blocks(n, xs[col0:] + 1j * ys[j], eig_type)
        f[j, col0:] = np.abs(np.linalg.eigvals(blocks)).max(axis=-1) - n
    f[row0:, :col0] = f[row0:, ::-1][:, :col0]
    f[:row0] = f[::-1][:row0]
    return f


def _edge_ends(f):
    # the nodes _march reads f at: both ends of each grid edge whose ends
    # differ in sign
    inside = f < 0
    ends = np.zeros_like(inside)
    for change, lo, hi in ((inside[1:] != inside[:-1], np.s_[:-1], np.s_[1:]),
                           (inside[:, 1:] != inside[:, :-1], np.s_[:, :-1], np.s_[:, 1:])):
        ends[lo] |= change
        ends[hi] |= change
    return ends


def _box_battery(seed, count):
    # boxes that cut n's borderline, at |rho| ~ (2n)^(1/(n-1)): symmetric about
    # both axes, about the real axis only, or about neither.  n is log-uniform
    # on 3..n_max, with n_max falling as the resolution rises (64 at 64, 24 at
    # 128), which keeps the reference solves affordable
    rng = np.random.default_rng(seed)
    for i in range(count):
        res, n_max = ((64, 64), (65, 40), (96, 32), (128, 24))[i % 4]
        n = int(round(math.exp(rng.uniform(math.log(3), math.log(n_max + 0.4)))))
        eig_type = (EigType.Type1, EigType.Type2)[i // 4 % 2]
        r = (2.0 * n) ** (1.0 / (n - 1))
        kind = i % 3
        if kind == 0:
            width, height = r * rng.uniform(0.8, 1.3), r * rng.uniform(0.4, 1.3)
            bounds = (-width, width, -height, height)
        elif kind == 1:
            height = r * rng.uniform(0.3, 1.2)
            bounds = (r * rng.uniform(-1.2, 0.0), r * rng.uniform(0.2, 1.2), -height, height)
        else:
            centre = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            w = r * rng.uniform(0.05, 0.4)
            bounds = (centre.real - w, centre.real + w, centre.imag - w, centre.imag + w)
        yield n, res, tuple(float(b) for b in bounds), eig_type


def _check_grid(n, res, bounds, eig_type):
    # certified nodes hold -inf or +inf: the sign is the solved sign at every
    # node, and every value _march reads is bit-equal to the solved one (on a
    # symmetric box, to the solved value of its mirror node), so the marched
    # pieces are equal too
    xs, ys, f = oracle._grid_values(n, res, bounds, eig_type)
    direct = _grid_by_rows(n, res, bounds, eig_type)
    assert np.array_equal(np.sign(f), np.sign(direct))
    mirrored = _mirrored_grid(n, res, bounds, eig_type)
    assert np.max(np.abs(mirrored - direct) / (direct + n)) <= 1e-12
    read = _edge_ends(direct)
    assert read.any()
    assert np.array_equal(f[read], mirrored[read])
    assert np.isinf(f[~read]).mean() > 0.5
    assert oracle._march(xs, ys, f) == oracle._march(xs, ys, mirrored)


@pytest.mark.parametrize("n, bounds, res, eig_type", [
    (19, (-0.45, 0.45, 1.05, 1.55), 96, EigType.Type2),   # figure 8: columns mirrored
    (3, (-3.2, 3.2, -3.2, 3.2), 96, EigType.Type1),       # figure 1: rows and columns
    (3, (-3.2, 3.2, -3.2, 3.2), 96, EigType.Type2),
    (8, (-1.5, 1.5, -1.5, 1.5), 64, EigType.Type1),       # even n: rows only
    (8, (-1.5, 1.5, -1.5, 1.5), 65, EigType.Type2),       # odd resolution: middle row solved
])
def test_mirrored_grid_matches_every_node_solved(n, bounds, res, eig_type):
    _check_grid(n, res, bounds, eig_type)


def test_asymmetric_box_grid_is_unchanged():
    # figures 2 and 3 have no mirror axis
    for n, bounds, eig_type in ((4, (0.2, 1.8, 1.2, 2.8), EigType.Type2),
                                (8, (0.2, 1.7, -2.0, -0.5), EigType.Type1)):
        _check_grid(n, 96, bounds, eig_type)


def test_borderline_battery_matches_every_node_solved(monkeypatch):
    # numeric_borderline's pieces equal those marched from the grid with every
    # node solved (and mirror nodes copied, as before certified signs), on
    # seeded boxes with n in 3..64, both types, resolutions 64, 65, 96 and
    # 128, with and without mirror axes
    boxes = list(_box_battery(501, 60))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # samples inside the unit circle
        fast = [numeric_borderline(n, b, res, eig_type=t) for n, res, b, t in boxes]
        monkeypatch.setattr(oracle, "_grid_values", lambda n, res, bounds, eig_type: (
            np.linspace(*bounds[:2], res), np.linspace(*bounds[2:], res),
            _mirrored_grid(n, res, bounds, eig_type)))
        full = [numeric_borderline(n, b, res, eig_type=t) for n, res, b, t in boxes]
    assert sum(bool(pieces) for pieces in full) >= 50
    for box, got, want in zip(boxes, fast, full):
        assert got == want, box


def _solved_nodes(monkeypatch, n, res, bounds, eig_type):
    # the (row, column) of every block handed to the eigensolver, found by the
    # block's bytes among the blocks of the whole grid
    xs, ys = np.linspace(*bounds[:2], res), np.linspace(*bounds[2:], res)
    grid = type_blocks(n, xs[None, :] + 1j * ys[:, None], eig_type)
    where = {grid[j, i].tobytes(): (j, i) for j in range(res) for i in range(res)}
    solved = []
    solve = oracle._eigvals

    def recording(a):
        solved.extend(where[np.ascontiguousarray(b).tobytes()] for b in a)
        return solve(a)

    monkeypatch.setattr(oracle, "_eigvals", recording)
    oracle._grid_values(n, res, bounds, eig_type)
    return solved


@pytest.mark.parametrize("n, eig_type, half", [
    (5, EigType.Type1, 32 * 32), (5, EigType.Type2, 32 * 32),
    (8, EigType.Type1, 32 * 64), (8, EigType.Type2, 32 * 64),
])
def test_symmetric_box_solves_one_node_per_mirror_pair(monkeypatch, n, eig_type, half):
    # every solve lies in the half grid of `half` nodes that is solved: rows
    # from res // 2 on, and columns likewise for odd n; no node is solved twice
    solved = _solved_nodes(monkeypatch, n, 64, (-2.0, 2.0, -1.0, 1.0), eig_type)
    assert solved and len(set(solved)) == len(solved) < half
    assert min(j for j, _ in solved) >= 32
    assert min(i for _, i in solved) >= (32 if n % 2 else 0)


@pytest.mark.parametrize("n, bounds, eig_type, nodes, share", [
    (19, (-0.45, 0.45, 1.05, 1.55), EigType.Type2, 96 * 48, 0.15),  # figure 8, half grid
    (8, (0.2, 1.7, -2.0, -0.5), EigType.Type1, 96 * 96, 0.10),      # figure 3
])
def test_figure_grids_solve_few_nodes(monkeypatch, n, bounds, eig_type, nodes, share):
    count = []
    solve = oracle._eigvals

    def counting(a):
        count.append(a.size // a.shape[-1] ** 2)  # matrices in the stack
        return solve(a)

    monkeypatch.setattr(oracle, "_eigvals", counting)
    oracle._grid_values(n, 96, bounds, eig_type)
    assert 0 < sum(count) <= share * nodes


def test_box_without_contour_solves_nothing(monkeypatch):
    # |1 - rho^2| <= 1.5 < 3 on the whole box: every node is certified inside
    monkeypatch.setattr(oracle, "_eigvals", _no_build)
    assert numeric_borderline(3, (-0.5, 0.5, -0.5, 0.5), eig_type=EigType.Type1) == []


def _bound_draws(seed):
    rng = np.random.default_rng(seed)
    for n in list(range(3, 65)) + [512]:
        radii = np.concatenate([[0.0, 1.0, 1.0, 3.0], rng.uniform(0.0, 3.0, 4)])
        phases = np.concatenate([[0.0, 0.0, math.pi, rng.uniform(-math.pi, math.pi)],
                                 rng.uniform(-math.pi, math.pi, 4)])
        yield n, radii * np.exp(1j * phases)


def test_radius_bounds_enclose_the_solved_spectral_radius():
    # lower <= max |lambda| <= upper for the spectrum zgeev returns, with |rho|
    # up to 3 and rho = 0, +1, -1 among the draws; the bounds already carry
    # the solver's error, so the only slack is the final rounding _DELTA
    for n, rhos in _bound_draws(601):
        for eig_type in EigType:
            blocks = type_blocks(n, rhos, eig_type)
            lower, upper = oracle._radius_bounds(blocks)
            radius = np.abs(np.linalg.eigvals(blocks)).max(axis=-1)
            assert np.all(lower <= radius * (1 + oracle._DELTA)), (n, eig_type)
            assert np.all(radius <= upper * (1 + oracle._DELTA)), (n, eig_type)


def test_radius_bounds_raise_no_warning_at_extreme_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the type-1 block of K_3 is [1 - rho^2], zero at rho = +/-1
        lower, upper = oracle._radius_bounds(type_blocks(3, np.array([1.0, -1.0]),
                                                         EigType.Type1))
        assert np.array_equal(lower, [0, 0]) and np.array_equal(upper, [0, 0])
        assert numeric_borderline(3, (-2, 2, -1, 1), 65, eig_type=EigType.Type1)
        # entries near 1e300
        for n, r in ((3, 1e150), (20, 1e15)):
            for eig_type in EigType:
                blocks = type_blocks(n, r * np.exp(1j * np.array([0.3, 2.0])), eig_type)
                assert np.abs(blocks).max() > 1e280
                lower, upper = oracle._radius_bounds(blocks)
                radius = np.abs(np.linalg.eigvals(blocks)).max(axis=-1)
                assert np.all((0 < lower) & (lower <= radius * (1 + oracle._DELTA)))
                assert np.all(radius <= upper * (1 + oracle._DELTA))


# ---------------------------------------------------------------------------
# the marching-squares tracer on synthetic fields: f[j][i] sits at (x, y) = (i, j)
# and f < 0 is inside


def _march(f):
    f = np.asarray(f, dtype=float)
    xs, ys = np.arange(f.shape[1], dtype=float), np.arange(f.shape[0], dtype=float)
    return [[(float(x), float(y)) for x, y in chain] for chain in oracle._march(xs, ys, f)]


def test_march_one_inside_node_is_a_closed_loop():
    f = np.ones((3, 3))
    f[1, 1] = -1.0
    (chain,) = _march(f)
    assert len(chain) == 5 and chain[0] == chain[-1]
    assert sorted(chain[:-1]) == [(0.5, 1), (1, 0.5), (1, 1.5), (1.5, 1)]


@pytest.mark.parametrize("f, chains", [
    # case 5 (a, c inside), centre inside: a and c join, b and d are cut off
    ([[-1, 1], [1, -3]], [[(0.5, 0), (1, 0.25)], [(0.25, 1), (0, 0.5)]]),
    # case 5, centre outside: a and c are cut off
    ([[-1, 3], [3, -1]], [[(0, 0.25), (0.25, 0)], [(1, 0.75), (0.75, 1)]]),
    # case 10 (b, d inside), centre inside: a and c are cut off
    ([[1, -1], [-3, 1]], [[(0, 0.25), (0.5, 0)], [(1, 0.5), (0.75, 1)]]),
    # case 10, centre outside: b and d are cut off
    ([[3, -1], [-1, 3]], [[(0.75, 0), (1, 0.25)], [(0.25, 1), (0, 0.75)]]),
])
def test_march_saddle_follows_the_centre_sign(f, chains):
    assert _march(f) == chains


def test_march_two_islands_are_two_chains():
    f = np.ones((3, 5))
    f[1, 1] = f[1, 3] = -1.0
    chains = _march(f)
    assert len(chains) == 2
    for chain, x in zip(chains, (1, 3)):
        assert len(chain) == 5 and chain[0] == chain[-1]
        assert all(abs(px - x) + abs(py - 1) == 0.5 for px, py in chain)


def test_march_curve_leaving_the_box_is_open():
    f = [[-0.5, 0.5, 1.5]] * 3  # f = x - 1/2
    assert _march(f) == [[(0.5, 2), (0.5, 1), (0.5, 0)]]


def test_march_joins_at_an_exact_zero_node():
    # f = 0 at node (1, 1), between inside nodes on its left and right: all four
    # crossings fall on the node and join there in cell order, lower pair then
    # upper pair; keyed by edge alone, the left and right pairs would join instead
    f = [[1, 1, 1], [-1, 0, -1], [1, 1, 1]]
    assert _march(f) == [[(2, 0.5), (1, 1), (0, 0.5)], [(0, 1.5), (1, 1), (2, 1.5)]]
