"""Independent verification engine.

Everything here deliberately avoids the closed forms under test: eigenvalues
come from a dense general-complex eigensolver (LAPACK zgeev: balancing,
Hessenberg reduction, shifted QR with deflation), and the |lambda| = n
borderline is traced by marching squares over a grid of oracle spectra.
The grid solves the nodes at the ends of the grid edges the contour
crosses, the only nodes whose value marching squares reads, and the few
nodes the bounds below leave open.  Every other node gets just the sign
of max |lambda| - n, certified by trace and Frobenius-norm bounds on the
spectral radius of powers of its type block.

K_n(rho) is symmetric and centrosymmetric, so in the orthonormal basis of
symmetric and skew-symmetric vectors it splits into two half-size blocks
(Cantoni & Butler, LAA 13 (1976) 275-288).  The type-1 block acts on the
skew-symmetric vectors and the type-2 block on the symmetric ones, so each
block's spectrum is exactly one eigenvalue type.  The split uses only the
matrix's symmetry, never the mu-parameterization.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
import warnings

import numpy as np

from .errors import DomainError, RootFindingFailure, SizeError
from .geometry import CurveSamples
from .kms import EigType, KmsMatrix, build_matrix, check_order, type_sign

_MAX_N = 512
_LOG_MAX = math.log(sys.float_info.max)


def _check_order(n: int) -> None:
    check_order(n)
    if n > _MAX_N:
        raise SizeError(f"oracle needs 3 <= n <= {_MAX_N}, got {n}")


def _check_rho(n: int, rho) -> None:
    # entries of K_n(rho) and of its type blocks reach 2 |rho|^(n-1), so every
    # eigenvalue is below 2 n |rho|^(n-1), which must stay finite; rho may be
    # an array, checked as a whole and shown in full
    rho = np.asarray(rho, dtype=complex)
    r_max = np.abs(rho).max(initial=0.0)
    if not np.isfinite(rho).all():
        problem = "rho must be finite, got"
    elif r_max > 1.0 and (n - 1) * math.log(r_max) + math.log(2 * n) >= _LOG_MAX:
        problem = f"|rho|^{n - 1} overflows at rho ="
    else:
        return
    raise DomainError(f"{problem} {', '.join(str(complex(r)) for r in rho.ravel())}")


def _eigvals(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc


def eigenvalues(m: KmsMatrix) -> np.ndarray:
    """The n eigenvalues of a KmsMatrix; SizeError unless 3 <= n <= 512."""
    _check_order(m.n)
    return _eigvals(m.entries)


def kms_spectrum(n: int, rho: complex) -> np.ndarray:
    """The n eigenvalues of K_n(rho).  Before building the matrix, raises SizeError
    unless 3 <= n <= 512 and DomainError for a non-finite rho or overflowing powers."""
    _check_order(n)
    _check_rho(n, complex(rho))
    return eigenvalues(build_matrix(n, rho))


def type_blocks(n: int, rho, eig_type: EigType) -> np.ndarray:
    """The block of K_n(rho) whose spectrum is the eigenvalues of one type.

    rho may be a scalar or an array; the result has shape rho.shape + (m, m)
    with m = floor(n/2) for type-1 and ceil(n/2) for type-2.  Entries are
    rho^|j-k| - rho^(n-1-j-k) (type-1) or rho^|j-k| + rho^(n-1-j-k) (type-2);
    for odd n the type-2 block's last row and column belong to the unpaired
    middle basis vector and read sqrt(2) rho^|j-k|, with 1 on the diagonal.
    Raises SizeError unless 3 <= n <= 512, and DomainError unless every rho
    is finite and 2 n |rho|^(n-1) stays finite.
    """
    _check_order(n)
    type1 = type_sign(eig_type) < 0
    rho = np.asarray(rho, dtype=complex)
    _check_rho(n, rho)
    # powers by repeated multiplication, as in build_matrix
    factors = np.ones(rho.shape + (n,), dtype=complex)
    factors[..., 1:] = rho[..., None]
    powers = np.cumprod(factors, axis=-1)
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


_U = np.finfo(float).eps / 2  # unit roundoff
# the k-th root, the product with s and the comparison with n in
# _grid_values, and zgeev's own |lambda| - n, each round by at most a few u
_DELTA = 8 * _U
# block entries per step of the grid sweep, which bounds its working set:
# one row of figure 8's half grid (48 blocks of 10 x 10)
_STEP_ENTRIES = 4800


def _radius_bounds(blocks):
    """Bounds lower <= max |lambda| <= upper on the spectrum zgeev returns for each block."""
    # With s = max |B_ij| and C = B / s, so that 1 <= F = ||C||_F <= m and no
    # power of C can overflow, every k has |tr C^k| / m <= rho(C)^k <= ||C^k||_F;
    # the upper bound tends to rho(C) as k grows (Gelfand).  The powers
    # k = 1, 2, 4, 8 come from repeated squaring.  Three errors, each a
    # multiple of u F^k, separate the computed q_k = ||P_k||_F and
    # t_k = |tr P_k| from the spectrum zgeev returns:
    #  - zgeev's spectrum is exactly that of C + E with ||E||_F <= 8 m u F (the
    #    backward error of LAPACK Users' Guide sec. 4.8, with the constant 8
    #    the oracle tests hold the solver to), and
    #    ||(C + E)^k - C^k||_F <= (F + ||E||_F)^k - F^k <= 16 k m u F^k;
    #  - a squaring adds at most gamma_m ||P||_F^2 (|fl(XY) - XY| <= gamma_m |X||Y|),
    #    so ||P_k - C^k||_F <= 2 (k - 1) m u F^k;
    #  - the sums in ||.||_F and tr add at most 2 m^2 u F^k.
    # So sigma_k = (18 k + 2 m) m u F^k covers all three, and |tr X| <= sqrt(m) ||X||_F
    # carries it to the trace.  The slack is per block: it scales with F^k,
    # which exceeds rho(C)^k by as much as C is far from normal.
    m = blocks.shape[-1]
    s = np.abs(blocks).max(axis=(-2, -1))
    s = np.where(s > 0, s, 1.0)  # a zero block (type 1 at rho = 1, say): C = 0
    power = np.ascontiguousarray(blocks / s[..., None, None])
    lower, upper = 0.0, np.inf
    for k in (1, 2, 4, 8):
        if k > 1:
            power = power @ power
        parts = power.view(float).reshape(s.shape + (-1,))
        norm = np.sqrt(np.einsum("...i,...i->...", parts, parts))
        if k == 1:
            frob = norm
        sigma = (18 * k + 2 * m) * m * _U * frob ** k
        upper = np.minimum(upper, (norm + sigma) ** (1 / k))
        trace = np.abs(power.trace(axis1=-2, axis2=-1)) - math.sqrt(m) * sigma
        lower = np.maximum(lower, (np.maximum(trace, 0.0) / m) ** (1 / k))
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

    A crossing is keyed by the grid edge it lies on, or by the grid node where
    f is exactly 0, and segments that share a key are joined.  Each chain
    starts at the first unused segment in row-major cell order and grows from
    its second end, then from its first; a closed chain repeats its first point.
    """
    inside = f < 0
    case = inside[:-1, :-1] + 2 * inside[:-1, 1:] + 4 * inside[1:, 1:] + 8 * inside[1:, :-1]

    def crossing(j, i, edge):
        # interpolated from the edge's first corner p, so the two cells that
        # share an edge may differ in the last bit; the key is exact either way
        p, q = [(j + dj, i + di) for dj, di in (_CORNERS[edge], _CORNERS[(edge + 1) % 4])]
        fp, fq = f[p], f[q]
        t = fp / (fp - fq)
        point = (xs[p[1]] + t * (xs[q[1]] - xs[p[1]]), ys[p[0]] + t * (ys[q[0]] - ys[p[0]]))
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
    |tr C^k / m|^(1/k) <= rho(C) <= ||C^k||_F^(1/k) (k = 1, 2, 4, 8, C the
    block scaled to unit largest entry), widened by the solver's backward
    error and their own rounding, leave the sign open; elsewhere the bounds
    certify the sign.  A box symmetric about the real axis
    (im_min == -im_max), or about the imaginary axis for odd n, is solved on
    half its grid and the other half copied from the mirror nodes.  Returns
    a list of CurveSamples with center 0, one per connected polyline.
    Raises DomainError for a resolution that is not an integer >= 64, for a
    bound that is not finite, for a box without re_min < re_max and
    im_min < im_max, for a box where an eigenvalue bound 2 n |rho|^(n-1)
    overflows, and for an eig_type that is not an EigType; SizeError unless
    n is an integer with 3 <= n <= 512; RootFindingFailure when the
    eigensolver fails.
    """
    if not isinstance(resolution, numbers.Integral) or resolution < 64:
        raise DomainError(f"grid resolution must be an integer >= 64, got {resolution!r}")
    _check_order(n)
    # |rho| is largest at a corner of the box
    _check_rho(n, [complex(re, im) for re in bounds[:2] for im in bounds[2:]])
    re0, re1, im0, im1 = bounds
    if not (re0 < re1 and im0 < im1):
        raise DomainError(f"borderline box needs re_min < re_max and im_min < im_max, "
                          f"got {tuple(bounds)}")
    xs, ys, f = _grid_values(n, resolution, bounds, eig_type)
    out = []
    inside_unit = 0
    for chain in _march(xs, ys, f):
        samples = []
        for (x, y) in chain:
            rho = complex(x, y)
            if abs(rho) <= 1.0:
                inside_unit += 1
            samples.append((cmath.phase(rho), abs(rho), rho))
        out.append(CurveSamples(center=0j, samples=samples))
    if inside_unit:
        # soft check only: every traced borderline is expected to stay
        # outside the unit circle, but nothing downstream relies on it
        warnings.warn(f"{inside_unit} borderline samples fall inside the unit "
                      "circle", stacklevel=2)
    return out
