"""Independent verification engine.

Everything here deliberately avoids the closed forms under test: eigenvalues
come from a dense general-complex eigensolver (LAPACK zgeev: balancing,
Hessenberg reduction, shifted QR with deflation), and the |lambda| = n
borderline, polylines of complex rho, is traced by marching squares over a
grid of oracle spectra.  The grid solves the nodes at the ends of the grid
edges the contour crosses, the only nodes whose value marching squares
reads, and the few nodes the bounds below leave open.  Every other node
gets just the sign of max |lambda| - n, certified by trace and
Frobenius-norm bounds on the eighth power of its type block.

K_n(rho) is symmetric and centrosymmetric, so in the orthonormal basis of
symmetric and skew-symmetric vectors it splits into two half-size blocks
(Cantoni & Butler, LAA 13 (1976) 275-288).  The type-1 block acts on the
skew-symmetric vectors and the type-2 block on the symmetric ones, so each
block's spectrum is exactly one eigenvalue type.  The split uses only the
matrix's symmetry, never the mu-parameterization.  A solve at one rho
takes a KmsMatrix, which holds the whole K_n(rho) (kms_spectrum) or one
type block (gate, the rule that accepts or rejects each catalog point);
a stack of type blocks (the borderline grid, the trajectories) does not.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from .errors import DomainError, RootFindingFailure, SizeError
from .kms import (EigType, KmsMatrix, _check_rho, _finite_real, _powers, build_matrix,
                  check_order, type_sign)

_MAX_N = 512
GATE_RADIUS = 1e-5  # times n; QR loses half its digits at a defective eigenvalue
_U = np.finfo(float).eps / 2  # unit roundoff


def _check_order(n) -> int:
    n = check_order(n)
    if n > _MAX_N:
        raise SizeError(f"oracle needs 3 <= n <= {_MAX_N}, got {n}")
    return n


def _eigvals(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc


def eigenvalues(m: KmsMatrix) -> np.ndarray:
    """The eigenvalues of m's matrix, from one eigensolver call: all n of
    K_n(rho) for build_matrix's record, one type's for a type block (the
    catalog gate).  SizeError unless 3 <= n <= 512.
    """
    _check_order(m.n)
    return _eigvals(m.block)


# kms_spectrum solves the whole matrix, and in the package it serves one
# printed number only, critical-points' oracle_gap column; verify reads the
# gap the gate measured (CriticalPoint.gate_gap) and the type blocks.  The
# gap of a defective pair is rounding, and the benchmark's reference pins
# oracle_gap to the rounding of the dense solve; a solve of the type blocks
# moves it in the second digit.  Once that column is compared by value, with
# a bound from the Jordan pair's sensitivity, it can read gate_gap too.
def kms_spectrum(n: int, rho: complex) -> np.ndarray:
    """The n eigenvalues of K_n(rho), from one dense solve.  Before building the
    matrix, raises SizeError unless 3 <= n <= 512 and DomainError for a rho that
    is not a finite complex number or whose powers overflow."""
    return eigenvalues(build_matrix(_check_order(n), rho))


def type_blocks(n: int, rho, eig_type: EigType) -> np.ndarray:
    """The block of K_n(rho) whose spectrum is the eigenvalues of one type.

    rho may be a scalar or an array; the result has shape rho.shape + (m, m)
    with m = floor(n/2) for type-1 and ceil(n/2) for type-2.  Entries are
    rho^|j-k| - rho^(n-1-j-k) (type-1) or rho^|j-k| + rho^(n-1-j-k) (type-2);
    for odd n the type-2 block's last row and column belong to the unpaired
    middle basis vector and read sqrt(2) rho^|j-k|, with 1 on the diagonal.
    Raises SizeError unless 3 <= n <= 512, and DomainError unless every rho
    is a finite complex number and 2 n |rho|^(n-1) stays finite.
    """
    n = _check_order(n)
    type1 = type_sign(eig_type) < 0
    return _block(n, _powers(n, _check_rho(n, rho)), type1)


def _block(n: int, powers: np.ndarray, type1: bool) -> np.ndarray:
    # each entry starts from the powers |j-k| and n-1-j-k of rho
    j = np.arange(n // 2 if type1 else (n + 1) // 2)
    near = powers[..., np.abs(j[:, None] - j[None, :])]
    far = powers[..., n - 1 - j[:, None] - j[None, :]]
    if type1:
        return near - far
    blocks = near + far
    if n % 2:
        middle = math.sqrt(2.0) * near[..., -1, :]
        blocks[..., -1, :] = middle
        blocks[..., :, -1] = middle
        blocks[..., -1, -1] = 1.0
    return blocks


def _excludes(block: np.ndarray, z: complex, r: float) -> bool:
    """Whether every eigenvalue of block is certified to lie farther than r from z."""
    # With A = block - z I, |lambda - z| >= sigma_min(A) for every eigenvalue
    # lambda of block, and sigma_min(A) > r when A^H A - r^2 I is positive
    # definite.  A floating-point Cholesky factorization that runs to
    # completion proves positive definiteness up to its own backward error
    # (Rump, BIT 46 (2006) 433-452), so it runs on H = fl(G - c I), with
    # G = fl(A^H A) and c above r^2 by every error in between.  With A the
    # computed shifted block, m its order and F = ||A||_F, four errors
    # separate H from A^H A - r^2 I, each a multiple of u F^2:
    #  - forming A rounds each diagonal entry by at most u |A_jj| <= u F, so
    #    the exact shifted block has sigma_min >= sigma_min(A) - u F, which
    #    exceeds r when lambda_min(A^H A) > (r + u F)^2, at most
    #    r^2 + u r^2 + 2 u F^2;
    #  - each entry of G is a complex inner product of length m, within
    #    gamma_{m+2} |a_j|^T |a_k| of the exact one (Higham, Accuracy and
    #    Stability of Numerical Algorithms, Lemma 3.5), so
    #    ||G - A^H A||_2 <= gamma_{m+2} F^2;
    #  - the shift rounds each diagonal entry by at most u G_jj <= 2 u F^2,
    #    since a factorization that completes has 0 < c < G_jj;
    #  - a factorization that completes gives R with R^H R = H + E and
    #    |E_jk| <= g (H_jj H_kk)^(1/2) (Demmel's bound, with
    #    g = gamma_{m+3} / (1 - gamma_{m+3}) for complex inner products), so
    #    ||E||_2 <= g tr H <= 2 g F^2.
    # R^H R is positive semidefinite, so lambda_min(A^H A) >= c - (3m + 10) u F^2
    # to first order, and u r^2 < u c < 2 u F^2.  c = r^2 + 8 (m + 2) u F^2
    # covers all four with (5m + 2) u F^2 to spare for the rounding of c and F
    # themselves.  A Gram matrix that overflows holds inf or NaN and fails the
    # factorization; every failure reads as not certified.
    m = block.shape[-1]
    a = block - z * np.eye(m)
    gram = a.conj().T @ a
    gram.flat[::m + 1] -= r * r + 8 * (m + 2) * _U * np.linalg.norm(a) ** 2
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def gate(n: int, rho_c: complex, eig_type: EigType) -> float:
    """Accept rho_c as a critical point of K_n of type eig_type, or raise RootFindingFailure.

    This is the catalog's whole acceptance rule.  Both type blocks of
    K_n(rho_c) come from one table of powers of rho_c.  The block of eig_type
    gets one eigensolve and must hold exactly two eigenvalues within
    r = GATE_RADIUS n of -n.  The other block gets none: a Cholesky
    factorization of its shifted Gram matrix must certify it free of -n
    within r (_excludes).  Returns the measured gap of an accepted point,
    the second-smallest |lambda + n| over its own block's eigenvalues, which
    is at most r; the catalog carries it as CriticalPoint.gate_gap.  Raises
    SizeError unless 3 <= n <= 512, and DomainError for a rho_c that is not
    finite or whose powers overflow.
    """
    n = _check_order(n)
    radius = GATE_RADIUS * n
    type1 = type_sign(eig_type) < 0
    powers = _powers(n, _check_rho(n, rho_c))
    gaps = np.sort(np.abs(eigenvalues(KmsMatrix(n, rho_c, _block(n, powers, type1))) + n))
    if gaps[1] > radius:
        raise RootFindingFailure(
            f"oracle found no double eigenvalue -{n} at rho_c = {rho_c} (gaps {gaps[:3]})")
    if gaps.size > 2 and gaps[2] <= radius:
        raise RootFindingFailure(f"unexpected eigenvalue multiplicity > 2 at rho_c = {rho_c}")
    if not _excludes(_block(n, powers, not type1), -n, radius):
        raise RootFindingFailure(f"oracle cannot certify the type-{2 if type1 else 1} block "
                                 f"free of -{n} at rho_c = {rho_c}")
    return float(gaps[1])


def count_extraordinary(n: int, eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues with |lambda| > n (strictly, with 1e-12 slack)."""
    return int(np.sum(np.abs(eigenvalues) > n * (1.0 + 1e-12)))


def closed_form_eigenvalues_n3(rho: complex):
    """The three eigenvalues of K_3(rho) in closed form.

    1 - rho^2 is the (single) type-1 eigenvalue; the +/- pair is type-2.
    Used as an independent cross-check of the dense solver and the series.
    """
    rho = complex(rho)
    root = cmath.sqrt(rho * rho + 8.0)
    lam1 = 1.0 - rho * rho
    lam2 = (2.0 + rho * rho + rho * root) / 2.0
    lam3 = (2.0 + rho * rho - rho * root) / 2.0
    return lam1, lam2, lam3


# ---------------------------------------------------------------------------
# marching-squares borderline tracer


# the k-th root, the product with s and the comparison with n in
# _grid_values, and zgeev's own |lambda| - n, each round by at most a few u
_DELTA = 8 * _U
# block entries per step of the grid sweep, which bounds its working set:
# one row of figure 8's half grid (48 blocks of 10 x 10)
_STEP_ENTRIES = 4800


def _radius_bounds(blocks):
    """Bounds lower <= max |lambda| <= upper on the spectrum zgeev returns for each block."""
    # With s = max |B_ij| and C = B / s, so that 1 <= F = ||C||_F <= m and no
    # power of C can overflow, |tr C^8| / m <= rho(C)^8 <= ||C^8||_F; the upper
    # bound's 8th root is at most F and tends to rho(C) as the power grows
    # (Gelfand).  Three squarings give P = fl(C^8).  Three errors, each a
    # multiple of u F^8, separate the computed ||P||_F and |tr P| from the
    # spectrum zgeev returns:
    #  - zgeev's spectrum is exactly that of C + E with ||E||_F <= 8 m u F (the
    #    backward error of LAPACK Users' Guide sec. 4.8, with the constant 8
    #    the oracle tests hold the solver to), and
    #    ||(C + E)^8 - C^8||_F <= (F + ||E||_F)^8 - F^8 <= 128 m u F^8;
    #  - each squaring adds at most gamma_m ||X||_F^2 (|fl(XY) - XY| <= gamma_m |X||Y|),
    #    so ||P - C^8||_F <= 14 m u F^8;
    #  - the sums in ||.||_F and tr add at most 2 m^2 u F^8.
    # So sigma = (144 + 2 m) m u F^8 covers all three, and |tr X| <= sqrt(m) ||X||_F
    # carries it to the trace.  The slack is per block: it scales with F^8,
    # which exceeds rho(C)^8 by as much as C is far from normal.
    m = blocks.shape[-1]
    s = np.abs(blocks).max(axis=(-2, -1))
    s = np.where(s > 0, s, 1.0)  # a zero block (type 1 at rho = 1, say): C = 0
    power = blocks / s[..., None, None]
    sigma = (144 + 2 * m) * m * _U * np.linalg.norm(power, axis=(-2, -1)) ** 8
    for _ in range(3):
        power = power @ power
    upper = (np.linalg.norm(power, axis=(-2, -1)) + sigma) ** (1 / 8)
    trace = np.abs(power.trace(axis1=-2, axis2=-1)) - math.sqrt(m) * sigma
    lower = (np.maximum(trace, 0.0) / m) ** (1 / 8)
    return lower * s, upper * s


def _grid_values(n, res, bounds, eig_type):
    # f = max |lambda| - n, solved at every node _march reads and wherever the
    # radius bounds leave its sign open, and -inf or +inf at the other nodes,
    # whose sign the bounds certify.  K_n(conj rho) = conj K_n(rho), and
    # K_n(-rho) = D K_n(rho) D with D = diag((-1)^j).  So mirror nodes across
    # the real axis share each type's |lambda|.  Across the imaginary axis they
    # do so only for odd n: for even n, D maps symmetric vectors to
    # skew-symmetric ones and swaps the types.  On a box symmetric about such
    # an axis only the rows (columns) from res // 2 on are solved; the rest
    # copy their mirror index res - 1 - i.
    re0, re1, im0, im1 = bounds
    xs = np.linspace(re0, re1, res)
    ys = np.linspace(im0, im1, res)
    row0 = res // 2 if im0 == -im1 else 0
    col0 = res // 2 if re0 == -re1 and n % 2 else 0
    f = np.empty((res, res))

    def mirror():
        f[row0:, :col0] = f[row0:, ::-1][:, :col0]
        f[:row0] = f[::-1][:row0]

    # pass 1, a few rows of blocks at a time: the radius bounds certify the
    # sign of f at most nodes, and the rest are solved
    step = max(1, _STEP_ENTRIES // ((res - col0) * ((n + 1) // 2) ** 2))
    for j in range(row0, res, step):
        blocks = type_blocks(n, xs[col0:] + 1j * ys[j:j + step, None], eig_type)
        lower, upper = _radius_bounds(blocks)
        below = upper < n * (1 - _DELTA)
        part = np.where(below, -np.inf, np.inf)
        open_ = ~below & (lower <= n * (1 + _DELTA))
        if open_.any():
            part[open_] = np.abs(_eigvals(blocks[open_])).max(axis=-1) - n
        f[j:j + step, col0:] = part
    mirror()
    # pass 2: _march reads f only at the two ends of a grid edge whose ends
    # differ in sign (a saddle cell's four corners are all such ends), so the
    # certified nodes among those ends are solved too.  A certified sign is
    # the solved sign, so this adds no new sign change.
    inside = f < 0
    vertical = inside[1:] != inside[:-1]
    horizontal = inside[:, 1:] != inside[:, :-1]
    ends = np.zeros_like(inside)
    ends[1:] |= vertical
    ends[:-1] |= vertical
    ends[:, 1:] |= horizontal
    ends[:, :-1] |= horizontal
    ends &= np.isinf(f)
    ends[:row0] = ends[:, :col0] = False
    rows, cols = np.nonzero(ends)
    if rows.size:
        blocks = type_blocks(n, xs[cols] + 1j * ys[rows], eig_type)
        f[rows, cols] = np.abs(_eigvals(blocks)).max(axis=-1) - n
        mirror()
    return xs, ys, f


# cell corners a, b, c, d as (row, column) offsets from the cell's lowest node;
# edge k runs from corner k to corner k + 1 (mod 4): ab, bc, cd, da
_CORNERS = ((0, 0), (0, 1), (1, 1), (1, 0))
_AB, _BC, _CD, _DA = range(4)
# edge pairs per case index (f < 0 at a, b, c, d gives bits 1, 2, 4, 8); the
# saddles 5 and 10 are listed with the cell centre inside, and a saddle whose
# centre is outside is traced as its complement 15 - case
_SEGMENTS = {
    1: ((_DA, _AB),), 2: ((_AB, _BC),), 3: ((_DA, _BC),), 4: ((_BC, _CD),),
    5: ((_AB, _BC), (_CD, _DA)), 6: ((_AB, _CD),), 7: ((_DA, _CD),),
    8: ((_CD, _DA),), 9: ((_CD, _AB),), 10: ((_DA, _AB), (_BC, _CD)),
    11: ((_CD, _BC),), 12: ((_BC, _DA),), 13: ((_BC, _AB),), 14: ((_AB, _DA),),
}


def _march(xs, ys, f) -> list:
    """Marching-squares polylines of f = 0, with f[j, i] at (xs[i], ys[j]); f < 0 is inside.

    Each point is complex, x + iy.  A crossing is keyed by the grid edge it lies on, or
    by the grid node where f is exactly 0, and segments that share a key are joined.
    Each chain starts at the first unused segment in row-major cell order and grows
    from its second end, then from its first; a closed chain repeats its first point.
    """
    inside = f < 0
    case = inside[:-1, :-1] + 2 * inside[:-1, 1:] + 4 * inside[1:, 1:] + 8 * inside[1:, :-1]

    def crossing(j, i, edge):
        # interpolated from the edge's first corner p, so the two cells that
        # share an edge may differ in the last bit; the key is exact either way
        p, q = [(j + dj, i + di) for dj, di in (_CORNERS[edge], _CORNERS[(edge + 1) % 4])]
        fp, fq = f[p], f[q]
        t = fp / (fp - fq)
        point = complex(xs[p[1]] + t * (xs[q[1]] - xs[p[1]]),
                        ys[p[0]] + t * (ys[q[0]] - ys[p[0]]))
        if fp == 0 or fq == 0:
            return point, (p if fp == 0 else q,)
        return point, (min(p, q), max(p, q))

    segments, ends = [], {}
    for j, i in zip(*np.nonzero((case != 0) & (case != 15))):
        idx = int(case[j, i])
        if idx in (5, 10):
            centre = (f[j, i] + f[j, i + 1] + f[j + 1, i + 1] + f[j + 1, i]) / 4.0
            idx = idx if centre < 0 else 15 - idx
        for edges in _SEGMENTS[idx]:
            (p, kp), (q, kq) = (crossing(j, i, e) for e in edges)
            ends.setdefault(kp, []).append((len(segments), 0))
            ends.setdefault(kq, []).append((len(segments), 1))
            segments.append(((p, kp), (q, kq)))

    used = [False] * len(segments)

    def grow(key):
        points = []
        while nxt := next(((si, e) for si, e in ends[key] if not used[si]), None):
            used[nxt[0]] = True
            point, key = segments[nxt[0]][1 - nxt[1]]
            points.append(point)
        return points

    chains = []
    for start, (head, tail) in enumerate(segments):
        if not used[start]:
            used[start] = True
            after, before = grow(tail[1]), grow(head[1])
            chains.append(before[::-1] + [head[0], tail[0]] + after)
    return chains


def numeric_borderline(n: int, bounds, resolution: int = 64, *, eig_type: EigType) -> list:
    """Trace the contour |lambda| = n of one eigenvalue type over a box of the rho plane.

    bounds is (re_min, re_max, im_min, im_max).  The contour function at a
    node is max |lambda| - n over the eigenvalues of type eig_type, taken
    from its type block.  The eigensolver runs only at the two ends of each
    grid edge whose ends differ in sign, and where the bounds
    |tr C^8 / m|^(1/8) <= rho(C) <= ||C^8||_F^(1/8) (C the block scaled to
    unit largest entry), widened by the solver's backward error and their
    own rounding, leave the sign open; elsewhere the bounds certify the sign.  A box symmetric about the real axis
    (im_min == -im_max), or about the imaginary axis for odd n, is solved on
    half its grid and the other half copied from the mirror nodes.  Returns
    one list of complex rho per polyline; a closed one repeats its first point.
    Raises DomainError for a resolution that is not an integer >= 64, for a
    box that is not four finite real numbers, for a box without
    re_min < re_max and im_min < im_max, for a box where an eigenvalue bound
    2 n |rho|^(n-1) overflows, and for an eig_type that is not an EigType;
    SizeError unless n is an integer with 3 <= n <= 512; RootFindingFailure
    when the eigensolver fails.
    """
    if not isinstance(resolution, numbers.Integral) or resolution < 64:
        raise DomainError(f"grid resolution must be an integer >= 64, got {resolution!r}")
    n = _check_order(n)
    try:
        re0, re1, im0, im1 = (_finite_real(b, "borderline box bound") for b in bounds)
    except (TypeError, ValueError):
        raise DomainError(f"borderline box must be (re_min, re_max, im_min, im_max), "
                          f"got {bounds!r}") from None
    bounds = (re0, re1, im0, im1)
    # |rho| is largest at a corner of the box
    _check_rho(n, [complex(re, im) for re in (re0, re1) for im in (im0, im1)])
    if not (re0 < re1 and im0 < im1):
        raise DomainError(f"borderline box needs re_min < re_max and im_min < im_max, "
                          f"got {bounds}")
    return _march(*_grid_values(n, resolution, bounds, eig_type))
