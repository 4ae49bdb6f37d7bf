"""Independent verification engine.

Everything here deliberately avoids the closed forms under test: eigenvalues
come from a dense general-complex eigensolver (LAPACK zgeev: balancing,
Hessenberg reduction, shifted QR with deflation), and the |lambda| = n
borderline is traced by marching squares over a grid of oracle spectra.

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
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, RootFindingFailure, SizeError
from .geometry import CurveSamples
from .kms import EigType, KmsMatrix, build_matrix

_MAX_N = 512


@dataclass(frozen=True, eq=False)
class Spectrum:
    n: int
    rho: complex
    eigenvalues: np.ndarray


def _check_order(n: int) -> None:
    if not 3 <= n <= _MAX_N:
        raise SizeError(f"oracle needs 3 <= n <= {_MAX_N}, got {n}")


def _eigvals(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc


def eigenvalues(m) -> Spectrum:
    """Full spectrum of a KmsMatrix (or any square complex array)."""
    if isinstance(m, KmsMatrix):
        a, n, rho = m.entries, m.n, m.rho
    else:
        a = np.asarray(m, dtype=complex)
        n, rho = a.shape[0], complex("nan")
    if a.shape[0] != a.shape[1]:
        raise SizeError(f"matrix must be square, got {a.shape}")
    if a.shape[0] > _MAX_N:
        raise SizeError(f"oracle is desk-scale only (n <= {_MAX_N}), got {a.shape[0]}")
    return Spectrum(n=n, rho=rho, eigenvalues=_eigvals(a))


def kms_spectrum(n: int, rho: complex) -> Spectrum:
    return eigenvalues(build_matrix(n, rho))


def type_blocks(n: int, rho, eig_type: EigType) -> np.ndarray:
    """The block of K_n(rho) whose spectrum is the eigenvalues of one type.

    rho may be a scalar or an array; the result has shape rho.shape + (m, m)
    with m = floor(n/2) for type-1 and ceil(n/2) for type-2.  Entries are
    rho^|j-k| - rho^(n-1-j-k) (type-1) or rho^|j-k| + rho^(n-1-j-k) (type-2);
    for odd n the type-2 block's last row and column belong to the unpaired
    middle basis vector and read sqrt(2) rho^|j-k|, with 1 on the diagonal.
    """
    _check_order(n)
    rho = np.asarray(rho, dtype=complex)
    # powers by repeated multiplication, as in build_matrix
    factors = np.ones(rho.shape + (n,), dtype=complex)
    factors[..., 1:] = rho[..., None]
    powers = np.cumprod(factors, axis=-1)
    j = np.arange(n // 2 if eig_type is EigType.Type1 else (n + 1) // 2)
    near = powers[..., np.abs(j[:, None] - j[None, :])]
    far = powers[..., n - 1 - j[:, None] - j[None, :]]
    if eig_type is EigType.Type1:
        return near - far
    blocks = near + far
    if n % 2:
        middle = math.sqrt(2.0) * near[..., -1, :]
        blocks[..., -1, :] = middle
        blocks[..., :, -1] = middle
        blocks[..., -1, -1] = 1.0
    return blocks


def count_extraordinary(s: Spectrum) -> int:
    """Number of eigenvalues with |lambda| > n (strictly, with 1e-12 slack)."""
    return int(np.sum(np.abs(s.eigenvalues) > s.n * (1.0 + 1e-12)))


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


def _grid_values(n, res, bounds, eig_type):
    # one eigvals call per grid row and type keeps memory at one row of blocks
    re0, re1, im0, im1 = bounds
    xs = np.linspace(re0, re1, res)
    ys = np.linspace(im0, im1, res)
    types = list(EigType) if eig_type is None else [eig_type]
    f = np.empty((res, res))
    for j, y in enumerate(ys):
        mags = [np.abs(_eigvals(type_blocks(n, xs + 1j * y, t))).max(axis=-1)
                for t in types]
        f[j] = np.max(mags, axis=0) - n
    return xs, ys, f


def _cell_segments(x0, x1, y0, y1, fa, fb, fc, fd):
    # corners: a=(x0,y0) b=(x1,y0) c=(x1,y1) d=(x0,y1); f<0 inside
    def interp(p, q, fp, fq):
        t = fp / (fp - fq)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    a, b, c, d = (x0, y0), (x1, y0), (x1, y1), (x0, y1)
    idx = (fa < 0) | ((fb < 0) << 1) | ((fc < 0) << 2) | ((fd < 0) << 3)
    if idx in (0, 15):
        return []
    e_ab = interp(a, b, fa, fb) if (fa < 0) != (fb < 0) else None
    e_bc = interp(b, c, fb, fc) if (fb < 0) != (fc < 0) else None
    e_cd = interp(c, d, fc, fd) if (fc < 0) != (fd < 0) else None
    e_da = interp(d, a, fd, fa) if (fd < 0) != (fa < 0) else None
    table = {
        1: [(e_da, e_ab)], 2: [(e_ab, e_bc)], 3: [(e_da, e_bc)],
        4: [(e_bc, e_cd)], 6: [(e_ab, e_cd)], 7: [(e_da, e_cd)],
        8: [(e_cd, e_da)], 9: [(e_cd, e_ab)], 11: [(e_cd, e_bc)],
        12: [(e_bc, e_da)], 13: [(e_bc, e_ab)], 14: [(e_ab, e_da)],
    }
    if idx in (5, 10):
        # saddle: disambiguate with the center sign
        center_neg = (fa + fb + fc + fd) / 4.0 < 0
        if idx == 5:
            segs = [(e_ab, e_bc), (e_cd, e_da)] if center_neg else [(e_da, e_ab), (e_bc, e_cd)]
        else:
            segs = [(e_da, e_ab), (e_bc, e_cd)] if center_neg else [(e_ab, e_bc), (e_cd, e_da)]
        return segs
    return table[idx]


def _chain(segments, tol):
    # join shared endpoints into polylines
    def key(p):
        return (round(p[0] / tol), round(p[1] / tol))

    ends: dict = {}
    for si, (p, q) in enumerate(segments):
        ends.setdefault(key(p), []).append((si, 0))
        ends.setdefault(key(q), []).append((si, 1))
    used = [False] * len(segments)
    chains = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = [p, q]
        for head, grow_front in ((q, False), (p, True)):
            cur = head
            while True:
                cands = [(si, e) for (si, e) in ends.get(key(cur), []) if not used[si]]
                if not cands:
                    break
                si, e = cands[0]
                used[si] = True
                nxt = segments[si][1 - e]
                if grow_front:
                    chain.insert(0, nxt)
                else:
                    chain.append(nxt)
                cur = nxt
        chains.append(chain)
    return chains


def numeric_borderline(n: int, bounds, resolution: int = 64,
                       eig_type: Optional[EigType] = None) -> list:
    """Trace the contour |lambda| = n over a rectangle of the rho plane.

    bounds is (re_min, re_max, im_min, im_max).  The contour function at a
    node is max |lambda| - n over the eigenvalues of type eig_type, taken
    from its type block, or over both blocks when eig_type is None.  Returns
    a list of CurveSamples with center 0, one per connected polyline.
    Raises DomainError for resolution < 64, SizeError unless 3 <= n <= 512
    and RootFindingFailure when the eigensolver fails.
    """
    if resolution < 64:
        raise DomainError(f"grid resolution must be >= 64, got {resolution}")
    _check_order(n)
    xs, ys, f = _grid_values(n, resolution, bounds, eig_type)
    segments = []
    for j in range(resolution - 1):
        for i in range(resolution - 1):
            segs = _cell_segments(xs[i], xs[i + 1], ys[j], ys[j + 1],
                                  f[j, i], f[j, i + 1], f[j + 1, i + 1], f[j + 1, i])
            segments.extend(s for s in segs if s[0] is not None and s[1] is not None)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    out = []
    inside_unit = 0
    for chain in _chain(segments, tol=1e-9 + 1e-6 * cell):
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
