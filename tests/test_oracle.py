"""Tests for the dense-eigensolver oracle and the borderline tracer."""

import ast
import cmath
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from kmsbif import (all_critical_points, chebyshev, geometry, imag_axis, kms, oracle,
                    puiseux)
from kmsbif.errors import DomainError, KmsBifError, RootFindingFailure, SizeError
from kmsbif.kms import EigType
from kmsbif.oracle import (KmsMatrix, build_matrix, closed_form_eigenvalues_n3,
                           count_extraordinary, eigenvalues, kms_spectrum,
                           numeric_borderline, type_blocks)


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
        det = complex(np.linalg.det(m.block))
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
        monkeypatch.setattr(oracle, "_powers", _no_build)
        for n, rho in ((3, math.nan), (3, math.inf), (3, complex(0, math.nan)),
                       (100, 1e10)):
            with pytest.raises(DomainError):
                kms_spectrum(n, rho)


def test_kms_spectrum_checks_rho_once(monkeypatch):
    calls = []
    check = oracle._check_rho
    monkeypatch.setattr(oracle, "_check_rho", lambda n, rho: calls.append(rho) or check(n, rho))
    for rho in (0.5, 1j * math.sqrt(8.0), 2.0 - 1.0j):
        kms_spectrum(3, rho)
    assert len(calls) == 3


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
        k = build_matrix(n, rho).block
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


def _within(a, b, bound):
    """Whether a and b match as multisets: a one-to-one pairing with every
    |a_i - b_j| <= bound (augmenting paths, Kuhn's algorithm)."""
    close = np.abs(a[:, None] - b[None, :]) <= bound
    owner = [-1] * len(b)

    def augment(i, seen):
        for j in np.flatnonzero(close[i] & ~seen):
            seen[j] = True
            if owner[j] < 0 or augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return len(a) == len(b) and all(augment(i, np.zeros(len(b), bool)) for i in range(len(a)))


def test_split_eigenvalues_equal_dense_spectrum_as_multisets():
    # a KmsMatrix per type block: their eigenvalues are kms_spectrum(n, rho)
    # up to the two solves' backward errors (the bound above), odd and even n;
    # and they are, bit for bit, the two type blocks solved on their own
    rng = np.random.default_rng(403)
    u = np.finfo(float).eps / 2
    for n in list(range(3, 65)) * 2:
        rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        bound = _SPECTRUM_C * n * u * np.linalg.norm(build_matrix(n, rho).block)
        split = np.concatenate([eigenvalues(KmsMatrix(n, rho, type_blocks(n, rho, t)))
                                for t in EigType])
        assert _within(kms_spectrum(n, rho), split, bound), (n, rho)
        by_type = np.concatenate([np.linalg.eigvals(type_blocks(n, rho, t)) for t in EigType])
        assert split.tobytes() == by_type.tobytes(), (n, rho)


def test_split_rejects_bad_input_before_building_a_block(monkeypatch):
    monkeypatch.setattr(oracle, "_powers", _no_build)
    monkeypatch.setattr(oracle, "_block", _no_build)
    for eig_type in EigType:
        with pytest.raises(SizeError):
            type_blocks(513, 0.5, eig_type)
        for rho in (math.nan, complex(0, math.inf), "x", None, 1e200):
            with pytest.raises(DomainError):
                type_blocks(8, rho, eig_type)


def test_excludes_rejects_a_planted_eigenvalue():
    # an eigenvalue at z + r/2, hidden by a random unitary similarity of a
    # triangular matrix, is never excluded, since sigma_min(A - z I) <= r/2;
    # moved out to z + 2r, with the rest of a normal block far away, it is
    rng = np.random.default_rng(404)
    for m in (1, 2, 3, 8, 32, 64):
        for _ in range(5):
            z = complex(rng.uniform(-64, 64), rng.uniform(-64, 64))
            r = 10.0 ** rng.uniform(-6, 1)
            phase = np.exp(2j * np.pi * rng.uniform())
            angles = np.exp(2j * np.pi * rng.uniform(size=m - 1))
            rest = z + 10 * r * (1 + rng.uniform(size=m - 1)) * angles
            q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            upper = np.triu(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), 1)
            near = np.diag(np.r_[z + r / 2 * phase, rest]) + r * upper
            assert not oracle._excludes(q @ near @ q.conj().T, z, r), (m, z, r)
            far = np.diag(np.r_[z + 2 * r * phase, rest])
            assert oracle._excludes(q @ far @ q.conj().T, z, r), (m, z, r)


def test_excludes_never_certifies_an_eigenvalue_within_r():
    # seeded type blocks, n = 3..64 and both types, at the gate's z = -n and
    # next to one of their own eigenvalues, with r from half to twice the
    # distance d to the nearest eigenvalue: wherever the certificate holds,
    # d > r; and it holds somewhere and fails somewhere
    rng = np.random.default_rng(405)
    answers = []
    for n in range(3, 65):
        rho = 1.2 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        for eig_type in EigType:
            block = type_blocks(n, rho, eig_type)
            lam = np.linalg.eigvals(block)
            for z in (complex(-n), lam[0] + 0.1 * rng.uniform() * abs(lam[0])):
                d = np.abs(lam - z).min()
                for r in d * np.array([0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0]):
                    certified = oracle._excludes(block, z, r)
                    answers.append(certified)
                    assert not certified or d > r, (n, rho, eig_type, z, r / d)
    assert any(answers) and not all(answers)


def test_excludes_fails_on_a_solver_error(monkeypatch):
    # a LinAlgError from the factorization, its answer to a matrix that is
    # not positive definite, reads as not certified, and the catalog gate
    # then refuses the point
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    block = type_blocks(8, 0.5, EigType.Type1)
    assert oracle._excludes(block, -8.0, 1e-4)
    monkeypatch.setattr(np.linalg, "cholesky", failing)
    assert not oracle._excludes(block, -8.0, 1e-4)
    with pytest.raises(RootFindingFailure, match="cannot certify"):
        all_critical_points(8)


def test_excludes_is_sharp_at_every_catalog_point():
    # at every catalog point with n <= 64, the certificate on the other type's
    # block holds at r = 0.99 sigma and fails at r = 1.01 sigma, with sigma the
    # smallest singular value of that block shifted by n
    for n in range(3, 65):
        for p in all_critical_points(n):
            other = EigType.Type2 if p.eig_type is EigType.Type1 else EigType.Type1
            block = type_blocks(n, p.rho_c, other)
            sigma = np.linalg.svd(block + n * np.eye(len(block)), compute_uv=False)[-1]
            assert oracle._excludes(block, -n, 0.99 * sigma), (n, p.rho_c)
            assert not oracle._excludes(block, -n, 1.01 * sigma), (n, p.rho_c)


_FAR = [1e3, 1e4, 1e5]


@pytest.mark.parametrize("eig_type", list(EigType))
@pytest.mark.parametrize("own, other, message", [
    ([0, 0, 2], _FAR, None),  # the pair at -n, a third eigenvalue at 2r: accepted
    ([0, 0, 0.5], _FAR, "unexpected eigenvalue multiplicity > 2 at rho_c = 0.5j"),
    ([0, 0, 2], [1e3, 1e4, 0.5],
     "oracle cannot certify the type-{other} block free of -6 at rho_c = 0.5j"),
    ([0, 1e3, 1e4], _FAR, "oracle found no double eigenvalue -6 at rho_c = 0.5j (gaps "),
])
def test_gate_on_planted_blocks(monkeypatch, eig_type, own, other, message):
    # no catalog: the gate reads two planted diagonal blocks of K_6 whose
    # eigenvalues lie the given multiples of the gate radius r from -6
    n, r = 6, oracle.GATE_RADIUS * 6
    own, other = (np.diag(-n + r * np.array(d, dtype=float)) for d in (own, other))
    type1 = eig_type is EigType.Type1
    monkeypatch.setattr(oracle, "_block", lambda n, powers, t1: own if t1 == type1 else other)
    if message is None:  # an accepted point's gap is its own block's second gap
        assert oracle.gate(n, 0.5j, eig_type) == np.sort(np.abs(np.diag(own) + n))[1]
    else:
        message = message.format(other=2 if type1 else 1)
        with pytest.raises(RootFindingFailure, match=f"^{re.escape(message)}"):
            oracle.gate(n, 0.5j, eig_type)


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
            numeric_borderline(n, (-2, 2, -2, 2), eig_type=EigType.Type1)
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


def test_borderline_takes_no_resolution():
    # the grid is fixed at 96 x 96 nodes
    with pytest.raises(TypeError):
        numeric_borderline(3, (-2, 2, -2, 2), resolution=96, eig_type=EigType.Type1)
    with pytest.raises(TypeError):
        numeric_borderline(3, (-2, 2, -2, 2), 96, eig_type=EigType.Type1)


def test_borderline_passes_through_n3_critical_points():
    # the borderline has a cusp at +/- i sqrt(8); the inside wedge thins like
    # r^(3/2), so a grid contour approaches the tip only to ~cell^(2/3), which
    # is within 4 cells on a 64 x 64 grid but not on numeric_borderline's 96 x 96
    for target, bounds in ((1j * np.sqrt(8.0), (-0.5, 0.5, 2.3, 3.3)),
                           (-1j * np.sqrt(8.0), (-0.5, 0.5, -3.3, -2.3))):
        pieces = oracle._march(*oracle._grid_values(3, 64, bounds, EigType.Type2))
        assert pieces
        pts = np.array([rho for piece in pieces for rho in piece])
        cell = 1.0 / 63
        assert np.min(np.abs(pts - target)) < 4 * cell


def test_borderline_type1_is_cassini_oval():
    # type-1 eigenvalue of K_3 is 1 - rho^2, so its borderline is |1-rho^2| = 3
    pieces = numeric_borderline(3, (-2.4, 2.4, -2.4, 2.4), eig_type=EigType.Type1)
    pts = np.array([rho for piece in pieces for rho in piece])
    assert pts.size > 50
    cell = 4.8 / 95
    assert np.max(np.abs(np.abs(1 - pts ** 2) - 3.0)) < 3.0 * cell


def test_borderline_is_a_list_of_complex_polylines():
    # the Cassini oval |1 - rho^2| = 3 of K_3's type-1 eigenvalue is one closed
    # loop, inside this box, so it comes back as one piece that repeats its first point
    pieces = numeric_borderline(3, (-2.4, 2.4, -2.4, 2.4), eig_type=EigType.Type1)
    assert isinstance(pieces, list) and len(pieces) == 1
    for piece in pieces:
        assert isinstance(piece, list) and len(piece) > 3
        assert all(type(rho) is complex for rho in piece)
        assert piece[0] == piece[-1]


def _kmsbif_imports(module) -> set:
    """The kmsbif modules module's source imports at run time, that is,
    outside an `if TYPE_CHECKING:` block."""
    def walk(node):
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            children = node.orelse
        elif isinstance(node, ast.Import):
            return {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("kmsbif" if node.level else "", node.module)))
            return {f"{base}.{alias.name}" for alias in node.names} if base == "kmsbif" else {base}
        else:
            children = ast.iter_child_nodes(node)
        return set().union(*map(walk, children))
    modules = walk(ast.parse(Path(module.__file__).read_text()))
    return {m for m in modules if m.split(".")[0] == "kmsbif"}


def test_oracle_imports_only_errors_and_kms():
    # the oracle never feeds the formulas: no formula module loads with it
    assert _kmsbif_imports(oracle) == {"kmsbif.errors", "kmsbif.kms"}


def test_only_the_oracle_builds_matrices_and_one_check_takes_every_order():
    # the matrix side of the design rule lives in oracle.py, which the catalog
    # reaches through gate alone, and every order goes through kms.check_order
    package = Path(oracle.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    from_oracle = {alias.name for node in ast.walk(trees["critical"])
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module == "oracle" for alias in node.names}
    assert from_oracle == {"gate"}

    def defined(tree):
        return {node.name for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    builders = {"KmsMatrix", "_powers", "_check_rho", "build_matrix"}
    assert not defined(trees["kms"]) & builders
    assert builders <= defined(trees["oracle"])
    assert [stem for stem, tree in trees.items() if "_check_order" in defined(tree)] == []


def _references(source: str, module: str, names) -> dict:
    """For each of names, the functions of module that refer to it: a call, or
    any other read of the bare name or of an attribute so named.  A nested
    function or lambda counts as the def that encloses it."""
    found = {}

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope or f"{module}.{node.name}"
        ref = (node.id if isinstance(node, ast.Name) else
               node.attr if isinstance(node, ast.Attribute) else None)
        if ref in names and isinstance(node.ctx, ast.Load):
            found.setdefault(ref, set()).add(scope or module)
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(source), None)
    return found


def test_reference_walk_names_the_enclosing_def():
    source = ("from m import f\nx = f\ndef g():\n    return lambda: m.f()\n"
              "class C:\n    def h(self):\n        def inner(): f()\n")
    assert _references(source, "mod", {"f"}) == {"f": {"mod", "mod.g", "mod.h"}}


def test_one_package_path_reaches_the_dense_solve():
    # the whole K_n(rho) is built and solved for critical-points' oracle_gap
    # column only: build_matrix <- kms_spectrum <- _oracle_gap <-
    # cmd_critical_points.  Every other oracle result, verify's included,
    # solves type blocks or reads the gate's gap.
    package = Path(oracle.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        refs = _references(path.read_text(), path.stem,
                           {"build_matrix", "kms_spectrum", "_oracle_gap"})
        for name, scopes in refs.items():
            found.setdefault(name, set()).update(scopes)
    assert found == {"build_matrix": {"oracle.kms_spectrum"},
                     "kms_spectrum": {"cli._oracle_gap"},
                     "_oracle_gap": {"cli.cmd_critical_points"}}


_CACHES = {"lru_cache", "cache", "functools.lru_cache", "functools.cache"}


def _cache_decorators(source: str) -> list:
    """Lines that decorate a function with functools' lru_cache or cache."""
    return [dec.lineno for node in ast.walk(ast.parse(source))
            for dec in getattr(node, "decorator_list", ())
            if ast.unparse(dec.func if isinstance(dec, ast.Call) else dec) in _CACHES]


def test_cache_decorator_check_sees_both_spellings():
    for source in ("from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(): pass",
                   "import functools\nclass C:\n    @functools.cache\n    def f(self): pass"):
        assert len(_cache_decorators(source)) == 1, source
    assert _cache_decorators("import functools\n@functools.wraps(g)\ndef f(): pass") == []


def test_no_module_memoizes_a_function():
    # results are recomputed by their one route on every call; the package
    # keeps no memo table behind any function
    package = Path(oracle.__file__).parent
    found = {str(path.relative_to(package)): lines for path in sorted(package.rglob("*.py"))
             if (lines := _cache_decorators(path.read_text()))}
    assert found == {}


@pytest.mark.parametrize("module", [chebyshev, kms, puiseux, geometry, imag_axis],
                         ids=lambda m: m.__name__)
def test_formula_module_imports_neither_catalog_nor_oracle(module):
    # a formula module that loads the catalog loads the oracle with it
    assert not _kmsbif_imports(module) & {"kmsbif.critical", "kmsbif.oracle"}


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


def test_borderline_battery_matches_every_node_solved():
    # the pieces marched from the grid equal those marched from the grid with
    # every node solved (and mirror nodes copied, as before certified signs),
    # on seeded boxes with n in 3..64, both types, resolutions 64, 65, 96 and
    # 128, with and without mirror axes; numeric_borderline returns the
    # pieces of the 96 x 96 grid
    boxes = list(_box_battery(501, 60))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = [oracle._march(*oracle._grid_values(n, res, b, t)) for n, res, b, t in boxes]
        full = [oracle._march(np.linspace(*b[:2], res), np.linspace(*b[2:], res),
                              _mirrored_grid(n, res, b, t)) for n, res, b, t in boxes]
        public = [numeric_borderline(n, b, eig_type=t) for n, res, b, t in boxes if res == 96]
    assert sum(bool(pieces) for pieces in full) >= 50
    for box, got, want in zip(boxes, fast, full):
        assert got == want, box
    assert public == [got for box, got in zip(boxes, fast) if box[1] == 96]


def test_grid_is_inside_within_the_unit_circle():
    # the borderline meets |rho| = 1 only at rho = +/-1, where K_n(rho) has rank
    # one and eigenvalue n, and marching-squares chords near there dip inside
    # the circle; the grid itself reads max |lambda| < n at every node inside
    for centre in (1.0, -1.0):
        bounds = (centre - 0.3, centre + 0.3, -0.3, 0.3)
        for n in (3, 4, 7, 8, 19, 20, 64):
            for eig_type in EigType:
                xs, ys, f = oracle._grid_values(n, 96, bounds, eig_type)
                inside = np.abs(xs[None, :] + 1j * ys[:, None]) < 1
                assert inside.sum() > 4000 and np.all(f[inside] < 0), (centre, n, eig_type)


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
        assert oracle._march(*oracle._grid_values(3, 65, (-2.0, 2.0, -1.0, 1.0), EigType.Type1))
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
    return [[(z.real, z.imag) for z in chain] for chain in oracle._march(xs, ys, f)]


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
