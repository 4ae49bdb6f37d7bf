"""Command-line front end.

Subcommands mirror the library: critical-points, puiseux, level-curve,
trajectory, imaginary, large-n, figure, verify.  Primary output is CSV with
'#'-prefixed comment headers and 17-significant-digit floats (byte-identical
across runs); --format json mirrors the same schema, --format svg draws the
curve-producing commands.  Exit codes: 0 success, 1 usage error, 2
computation failure.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import io
import itertools
import json
import math
import os
import random
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import critical, geometry, imag_axis, oracle, puiseux
from .errors import HypothesisViolation, KmsBifError
from .kms import EigType, eigenvector_of_mu, isotropy_defect, lambda_of_mu, rho_of_mu, \
    rho_prime_of_mu

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_LEVEL_COLS = ["theta", "eps_mag", "re_rho", "im_rho"]
_TRAJ_COLS = ["d", "re_plus", "re_minus", "im_plus", "im_minus", "mag_plus", "mag_minus",
              "oracle_re_plus", "oracle_re_minus", "oracle_im_plus", "oracle_im_minus",
              "oracle_mag_plus", "oracle_mag_minus", "residual"]


@dataclass(frozen=True)
class Curve:
    """One figure data set: fig<id>_<name>.csv, drawn in the SVG sketch through
    columns xy of the rows (dashed = series formula; a NaN row breaks the line)."""
    name: str
    meta: dict
    columns: list
    rows: list
    dashed: bool
    xy: tuple


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="ascii", newline="")


def _render_csv(meta: dict, columns: list, rows: list) -> str:
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}: {value}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _render_json(meta: dict, columns: list, rows: list) -> str:
    """RFC 8259 JSON, which has no inf or NaN: a non-finite cell is written as null."""
    rows = [[None if isinstance(v, float) and not math.isfinite(v) else v for v in r] for r in rows]
    payload = {"meta": meta, "columns": columns, "rows": rows}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _pieces(points: list) -> list:
    """The runs of finite points; a non-finite point (a NaN break row) ends a run."""
    runs = itertools.groupby(points, lambda p: math.isfinite(p[0]) and math.isfinite(p[1]))
    return [list(run) for finite, run in runs if finite]


def _render_svg(series: list, meta: dict) -> str:
    """Tiny hand-rolled 640 x 480 SVG for (rows, (x, y), dashed) series through
    columns x and y of their rows (dashed = formula); each piece of a series is one
    polyline in the series' style."""
    width, height = 640, 480
    curves = [(_pieces([(row[x], row[y]) for row in rows]), dashed)
              for rows, (x, y), dashed in series]
    pts = [p for pieces, _ in curves for piece in pieces for p in piece]
    if not pts:
        return '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    pad_x = 0.05 * (x1 - x0 or 1.0)
    pad_y = 0.05 * (y1 - y0 or 1.0)
    x0, x1, y0, y1 = x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y

    def map_pt(p):
        px = (p[0] - x0) / (x1 - x0) * (width - 40) + 20
        py = height - 20 - (p[1] - y0) / (y1 - y0) * (height - 40)
        return f"{px:.2f},{py:.2f}"

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    title = "; ".join(f"{k}={v}" for k, v in meta.items() if k in ("command", "n", "fig"))
    out.append(f'<title>{title}</title>')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    for i, (pieces, dashed) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        for piece in pieces:
            path = " ".join(map_pt(p) for p in piece)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}"'
                       f' stroke-width="1.5"{dash}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit_table(args, meta: dict, columns: list, rows: list, svg=()) -> None:
    """Write one table to --out; --format svg draws each (xy, dashed) entry of svg."""
    if args.output_format == "json":
        text = _render_json(meta, columns, rows)
    elif args.output_format == "svg":
        text = _render_svg([(rows, xy, dashed) for xy, dashed in svg], meta)
    else:
        text = _render_csv(meta, columns, rows)
    _write_text(args.output_path, text)


def _catalog_points(args) -> list:
    pts = critical.all_critical_points(args.n)
    if args.eig_type is not None:
        pts = [p for p in pts if p.eig_type.value == args.eig_type]
    return pts


def _pick(pts: list, args):
    if not pts:  # only a --type filter empties a catalog: type 1 at n = 3
        raise KmsBifError(f"no type-{args.eig_type} critical points at n = {args.n}")
    if not 0 <= args.index < len(pts):
        raise KmsBifError(f"point index {args.index} out of range (0..{len(pts) - 1})")
    return pts[args.index]


def _oracle_gap(point) -> float:
    gaps = np.sort(np.abs(oracle.kms_spectrum(point.n, point.rho_c) + point.n))
    return float(gaps[1])


def _symmetric_grid(half_width: float) -> list:
    """81 values of d, evenly spaced over [-half_width, half_width]."""
    return [half_width * (2.0 * i / 80 - 1.0) for i in range(81)]


def _sample_rows(curve) -> list:
    return [(th, mag, rho.real, rho.imag) for th, mag, rho in curve.samples]


def _level_curve_rows(point) -> list:
    """161 level-curve samples over the theta half-window 0.8 about the cusp, less the
    ones outside the series' validity region."""
    return _sample_rows(geometry.local_level_curve(puiseux.puiseux_ab_from_t(point), point.rho_c))


def _trajectory_rows(pp, rho_c: complex, n: int, eig_type: EigType, d_values) -> list:
    """Series and oracle pair, divided by -n, along rho = rho_c + d e^(-2i theta_a).

    The colliding pair has one type: one stacked call solves that type's block
    at every d, and the pair is the two eigenvalues nearest -n, in the series'
    (plus, minus) order: by falling imaginary part before the collision
    (d <= 0), where it is conjugate-like, and by falling real part after it.
    """
    lam_c = complex(-n)
    direction = cmath.exp(-2j * pp.theta_a)
    traj = geometry.trajectory_along_bisector(pp, d_values)
    rhos = np.array([rho_c + tp.d * direction for tp in traj])
    rows = []
    for tp, ev in zip(traj, oracle._eigvals(oracle.type_blocks(n, rhos, eig_type))):
        pair = ev[np.argsort(np.abs(ev - lam_c))[:2]] / lam_c
        pair = sorted(pair, key=lambda z: -z.imag if tp.d <= 0 else -z.real)
        resid = max(abs(pair[0].real - tp.re_pair[0]), abs(pair[1].real - tp.re_pair[1]),
                    abs(pair[0].imag - tp.im_pair[0]), abs(pair[1].imag - tp.im_pair[1]),
                    abs(abs(pair[0]) - tp.mag_pair[0]), abs(abs(pair[1]) - tp.mag_pair[1]))
        rows.append((tp.d, tp.re_pair[0], tp.re_pair[1], tp.im_pair[0], tp.im_pair[1],
                     tp.mag_pair[0], tp.mag_pair[1],
                     pair[0].real, pair[1].real, pair[0].imag, pair[1].imag,
                     abs(pair[0]), abs(pair[1]), resid))
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_critical_points(args) -> None:
    rows = [(p.n, p.eig_type.value, p.t_c.real, p.t_c.imag, p.mu_c.real, p.mu_c.imag,
             p.rho_c.real, p.rho_c.imag, _oracle_gap(p)) for p in _catalog_points(args)]
    meta = {"command": "critical-points", "n": args.n,
            "type": args.eig_type or "both",
            "columns-doc": "t_c/mu_c/rho_c split into real+imag parts; "
                           "oracle_gap = 2nd-smallest |lambda + n| from the dense solver"}
    cols = ["n", "type", "re_t_c", "im_t_c", "re_mu_c", "im_mu_c",
            "re_rho_c", "im_rho_c", "oracle_gap"]
    _emit_table(args, meta, cols, rows)
    worst = max((row[-1] for row in rows), default=0.0)
    if args.tol is not None and worst > args.tol:
        raise KmsBifError(f"oracle gap {worst} exceeds --tol {args.tol}")


def cmd_puiseux(args) -> None:
    pts = _catalog_points(args)
    if args.index is not None:
        pts = [_pick(pts, args)]
    rows = []
    for i, p in enumerate(pts, start=args.index or 0):
        pp = puiseux.puiseux_ab_from_t(p)
        rows.append((p.n, p.eig_type.value, i, p.rho_c.real, p.rho_c.imag,
                     pp.a.real, pp.a.imag, pp.b.real, pp.b.imag,
                     pp.theta_a, pp.theta_b, pp.Theta, pp.c))
    meta = {"command": "puiseux", "n": args.n,
            "columns-doc": "series lambda = lambda_c (1 +/- a sqrt(eps) + b eps); "
                           "phases in radians; c = (|a|^2 - 2|b| cos Theta)/2"}
    cols = ["n", "type", "index", "re_rho_c", "im_rho_c", "re_a", "im_a",
            "re_b", "im_b", "theta_a", "theta_b", "Theta", "c"]
    _emit_table(args, meta, cols, rows)


def cmd_level_curve(args) -> None:
    point = _pick(_catalog_points(args), args)
    rows = _level_curve_rows(point)
    meta = {"command": "level-curve", "n": args.n, "type": point.eig_type.value,
            "rho_c": f"{_fmt(point.rho_c.real)}{point.rho_c.imag:+.17g}j",
            "columns-doc": "polar samples about rho_c: rho = rho_c + eps_mag e^(i theta)"}
    _emit_table(args, meta, _LEVEL_COLS, rows, svg=[((2, 3), True)])


def cmd_trajectory(args) -> None:
    point = _pick(_catalog_points(args), args)
    rows = _trajectory_rows(puiseux.puiseux_ab_from_t(point), point.rho_c, args.n,
                            point.eig_type, _symmetric_grid(0.02))
    meta = {"command": "trajectory", "n": args.n, "type": point.eig_type.value,
            "columns-doc": "normalized eigenvalue pair along the cusp bisector; "
                           "plus/minus = series branch; oracle_* from the dense solver"}
    svg = [((0, 5), True), ((0, 6), True), ((0, 11), False), ((0, 12), False)]
    _emit_table(args, meta, _TRAJ_COLS, rows, svg=svg)
    worst = max(row[-1] for row in rows)
    if args.tol is not None and worst > args.tol:
        raise KmsBifError(f"trajectory residual {worst} exceeds --tol {args.tol}")


def cmd_imaginary(args) -> None:
    params = imag_axis.imag_axis_params(args.n)
    rows = [(params.n, params.eig_type.value, params.v_n, params.x_n, params.y_n,
             params.a_n, params.b_n, params.c_n)]
    meta = {"command": "imaginary", "n": args.n,
            "columns-doc": "purely imaginary critical point rho_c = i y_n; "
                           "cosh(n v_n) = n cosh(v_n), x_n = cosh(v_n)"}
    cols = ["n", "type", "v_n", "x_n", "y_n", "a_n", "b_n", "c_n"]
    _emit_table(args, meta, cols, rows)


def cmd_large_n(args) -> None:
    rows = []
    for n in args.n_list:
        params = imag_axis.imag_axis_params(n)
        v_a, y_a, a_a, b_a = imag_axis.large_n_params(n)
        rows.append((n, params.y_n, y_a, 100.0 * abs(y_a - params.y_n) / params.y_n,
                     params.a_n, a_a, 100.0 * abs(a_a - params.a_n) / params.a_n,
                     params.b_n, b_a, 100.0 * abs(b_a - params.b_n) / params.b_n))
    meta = {"command": "large-n",
            "columns-doc": "exact family values vs asymptotic laws, errors in percent"}
    cols = ["n", "y_exact", "y_approx", "err_y_pct", "a_exact", "a_approx", "err_a_pct",
            "b_exact", "b_approx", "err_b_pct"]
    _emit_table(args, meta, cols, rows)


# ---------------------------------------------------------------------------
# figures: each builder returns the figure's curves in drawing order


def _nearest_point(catalog: list, eig_type: EigType, target: complex):
    return min((p for p in catalog if p.eig_type is eig_type), key=lambda p: abs(p.rho_c - target))


def _borderline(name: str, meta: dict, n: int, eig_type, bounds) -> Curve:
    """The borderline over bounds, traced on a 96 x 96 grid."""
    rows = []
    for piece in oracle.numeric_borderline(n, bounds, eig_type=eig_type):
        rows.extend((cmath.phase(rho), abs(rho), rho.real, rho.imag) for rho in piece)
        rows.append((math.nan, math.nan, math.nan, math.nan))  # polyline break
    return Curve(name, meta, _LEVEL_COLS, rows[:-1], False, (2, 3))


def _bisector(meta: dict, point, length: float = 0.3) -> Curve:
    """The cusp bisector ray from rho_c, 61 samples over [0, length]."""
    bis = geometry.cusp_bisector_angle(puiseux.puiseux_ab_from_t(point))
    rows = []
    for i in range(61):
        t = length * i / 60
        rho = point.rho_c + t * complex(math.cos(bis), math.sin(bis))
        rows.append((t, rho.real, rho.imag))
    return Curve("bisector", meta, ["dist", "re_rho", "im_rho"], rows, False, (1, 2))


def _trajectory_pair(fig: int, n: int, d_max: float, pp, rho_c: complex, eig_type) -> list:
    rows = _trajectory_rows(pp, rho_c, n, eig_type, _symmetric_grid(d_max))
    return [Curve("formula", {"fig": fig, "curve": "series trajectory (dashed)", "n": n},
                  _TRAJ_COLS[:7], [r[:7] for r in rows], True, (0, 5)),
            Curve("oracle", {"fig": fig, "curve": "oracle trajectory (solid)", "n": n},
                  [_TRAJ_COLS[0]] + _TRAJ_COLS[7:], [(r[0],) + r[7:] for r in rows],
                  False, (0, 5))]


def _fig_cassini() -> list:
    box = (-3.2, 3.2, -3.2, 3.2)
    catalog = critical.all_critical_points(3)
    plus = _nearest_point(catalog, EigType.Type2, cmath.sqrt(-8))
    minus = _nearest_point(catalog, EigType.Type2, -cmath.sqrt(-8))
    return [
        _borderline("borderline_type1", {"fig": 1, "curve": "type-1 borderline (Cassini oval)"},
                    3, EigType.Type1, box),
        _borderline("borderline_type2", {"fig": 1, "curve": "type-2 borderline"},
                    3, EigType.Type2, box),
        Curve("level_plus", {"fig": 1, "curve": "local level curve at +i sqrt(8)"},
              _LEVEL_COLS, _level_curve_rows(plus), True, (2, 3)),
        Curve("level_minus", {"fig": 1, "curve": "local level curve at -i sqrt(8)"},
              _LEVEL_COLS, _level_curve_rows(minus), True, (2, 3)),
    ]


def _fig_catalog_point(fig: int, n: int, eig_type: EigType, target: complex, bounds) -> list:
    point = _nearest_point(critical.all_critical_points(n), eig_type, target)
    tag = {"n": n, "type": eig_type.value}
    return [
        _borderline("borderline", {"fig": fig, "curve": "oracle borderline |lambda| = n", **tag},
                    n, eig_type, bounds),
        Curve("level", {"fig": fig, "curve": "local level curve (series)", **tag},
              _LEVEL_COLS, _level_curve_rows(point), True, (2, 3)),
        _bisector({"fig": fig, "curve": "cusp bisector ray", **tag}, point),
    ]


def _fig_catalog_trajectory(fig: int, n: int, eig_type: EigType, target: complex,
                            d_max: float) -> list:
    point = _nearest_point(critical.all_critical_points(n), eig_type, target)
    return _trajectory_pair(fig, n, d_max, puiseux.puiseux_ab_from_t(point), point.rho_c,
                            eig_type)


def _fig_imag_trajectory() -> list:
    params = imag_axis.imag_axis_params(19)
    return _trajectory_pair(7, 19, 0.005, imag_axis.imag_puiseux_params(params),
                            1j * params.y_n, params.eig_type)


def _fig_sweep() -> list:
    family = [imag_axis.imag_axis_params(n) for n in range(3, 50, 2)]  # odd n = 3..49
    rows = [(par.n, par.a_n, par.b_n, par.c_n) for par in family]
    return [Curve("params", {"fig": 6, "curve": "imaginary-axis family parameters vs n"},
                  ["n", "a_n", "b_n", "c_n"], rows, False, (0, 1))]


def _fig_imag_level() -> list:
    params = imag_axis.imag_axis_params(19)
    point = _nearest_point(critical.all_critical_points(19), EigType.Type2, 1j * params.y_n)
    return [
        Curve("level", {"fig": 8, "curve": "imaginary-family level curve", "n": 19},
              _LEVEL_COLS, _sample_rows(imag_axis.imag_level_curve(params)),
              True, (2, 3)),
        _borderline("borderline", {"fig": 8, "curve": "oracle borderline", "n": 19},
                    19, EigType.Type2, (-0.45, 0.45, 1.05, 1.55)),
        _bisector({"fig": 8, "curve": "cusp bisector ray", "n": 19}, point, 0.15),
    ]


def _fig_parabola() -> list:
    params = imag_axis.imag_axis_params(19)
    prows = [(c, pair[0], pair[1]) for c, pair in imag_axis.parabola_trajectory(params)]
    d_values = [-0.01 * (40 - i) / 40 for i in range(41)]
    # the imaginary family's bisector is the imaginary axis: rho = i (y_n + d)
    orows = [r[:1] + r[7:11] for r in _trajectory_rows(
        imag_axis.imag_puiseux_params(params), 1j * params.y_n, 19, params.eig_type, d_values)]
    return [Curve("parabola", {"fig": 9, "curve": "parabola psi^2 = (a^2/b)(1 - chi)", "n": 19},
                  ["chi", "psi_plus", "psi_minus"], prows, True, (0, 1)),
            Curve("oracle", {"fig": 9, "curve": "oracle normalized pair before bifurcation",
                             "n": 19},
                  ["d", "chi_plus", "chi_minus", "psi_plus", "psi_minus"], orows, False, (1, 3))]


_FIGURES = {
    1: _fig_cassini,
    2: lambda: _fig_catalog_point(2, 4, EigType.Type2, 1 + 2j, (0.2, 1.8, 1.2, 2.8)),
    3: lambda: _fig_catalog_point(3, 8, EigType.Type1, 0.922 - 1.29j, (0.2, 1.7, -2.0, -0.5)),
    4: lambda: _fig_catalog_trajectory(4, 4, EigType.Type2, 1 + 2j, 0.02),
    5: lambda: _fig_catalog_trajectory(5, 8, EigType.Type1, 0.922 - 1.29j, 0.002),
    6: _fig_sweep,
    7: _fig_imag_trajectory,
    8: _fig_imag_level,
    9: _fig_parabola,
}


def cmd_figure(args) -> None:
    fig = args.fig_id
    curves = _FIGURES[fig]()
    out_dir = Path(args.output_path if args.output_path != "-" else ".")  # made by _check_out
    for c in curves:
        _write_text(out_dir / f"fig{fig}_{c.name}.csv", _render_csv(c.meta, c.columns, c.rows))
    if args.output_format == "svg":
        series = [(c.rows, c.xy, c.dashed) for c in curves]
        _write_text(out_dir / f"fig{fig}.svg", _render_svg(series, {"fig": fig}))


# ---------------------------------------------------------------------------
# verify


def _verify_battery(n_max: int) -> list:
    # the stdlib generator keeps numpy.random (about 6 MiB of RSS) out of the process
    rng = random.Random(20240901)

    try:  # built once for the four catalog rows; a build that raises fails each of them
        catalog = [p for n in range(3, n_max + 1) for p in critical.all_critical_points(n)]
    except KmsBifError as exc:
        catalog = exc

    def over_catalog(metric):
        def worst():
            if isinstance(catalog, KmsBifError):
                raise catalog
            return max([0.0] + [metric(p) for p in catalog])
        return worst

    def chebyshev_identities():
        from .chebyshev import cheb_t, cheb_u
        worst = 0.0
        for _ in range(200):
            k = rng.randrange(1, 40)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            pell = (z * z - 1) * cheb_u(k - 1, z) ** 2 - (cheb_t(k, z) ** 2 - 1)
            rec = cheb_t(k, z) - (2 * z * cheb_t(k + 1, z) - cheb_t(k + 2, z))
            ref = abs(cheb_t(k, z)) + 1.0
            worst = max(worst, abs(pell) / ref ** 2, abs(rec) / ref)
        return worst

    def mu_consistency():
        worst = 0.0
        for _ in range(40):
            n = rng.randrange(3, n_max + 1)
            mu = complex(rng.uniform(0.2, 2.8), rng.uniform(-0.4, 0.4))
            for et in EigType:  # lambda(mu) is a type-et eigenvalue: solve that block
                lam = lambda_of_mu(n, mu, et)
                ev = oracle._eigvals(oracle.type_blocks(n, rho_of_mu(n, mu, et), et))
                worst = max(worst, float(np.min(np.abs(ev - lam))))
        return worst

    def route_gap(p) -> float:
        pp_t = puiseux.puiseux_ab_from_t(p)
        pp_m = puiseux.puiseux_from_derivatives(p.lambda_c, puiseux.derivatives_at_critical(p))
        da = min(abs(pp_t.a - pp_m.a), abs(pp_t.a + pp_m.a)) / abs(pp_t.a)
        db = abs(pp_t.b - pp_m.b) / max(abs(pp_t.b), 1e-30)
        return max(da, db)

    def isotropy_ratio(p) -> float:
        v = eigenvector_of_mu(p.n, p.mu_c, p.eig_type)
        return abs(isotropy_defect(v)) / float(np.sum(np.abs(v) ** 2))

    def imag_family():
        worst = 0.0
        prev_a = 0.0
        for n in range(3, 2 * n_max + 2, 2):
            par = imag_axis.imag_axis_params(n)
            res = abs(math.cosh(n * par.v_n) - n * math.cosh(par.v_n)) / (n * math.cosh(par.v_n))
            worst = max(worst, res)
            if par.c_n >= 0.0 or par.a_n <= prev_a:
                raise HypothesisViolation(f"c_n sign or a_n monotonicity broke at n = {n}")
            prev_a = par.a_n
        return worst

    def trace_identity():
        # the two type blocks' spectra make up the spectrum of K_n(rho)
        worst = 0.0
        for _ in range(20):
            n = rng.randrange(3, n_max + 1)
            rho = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            ev = np.concatenate([oracle._eigvals(oracle.type_blocks(n, rho, et))
                                 for et in EigType])
            worst = max(worst, abs(complex(np.sum(ev)) - n) / n)
        return worst

    battery = [  # (name, residual, gate, detail), run in this order: the draws are seeded
        ("chebyshev-identities", chebyshev_identities, 1e-10,
         "Pell + recurrence on 200 seeded draws"),
        ("mu-parameterization", mu_consistency, 1e-8, "lambda(mu) sits in the oracle spectrum"),
        ("critical-double-eigenvalue", over_catalog(lambda p: p.gate_gap / p.n),
         oracle.GATE_RADIUS, "double eigenvalue -n at every catalog point"),
        ("rho-prime-vanishes", over_catalog(
            lambda p: abs(rho_prime_of_mu(p.n, p.mu_c, p.eig_type))), 1e-8, "rho'(mu_c) = 0"),
        ("route-equivalence", over_catalog(route_gap), 1e-9,
         "closed-form vs derivative-chain parameters"),
        ("isotropy", over_catalog(isotropy_ratio), 1e-10, "critical eigenvectors are isotropic"),
        ("imaginary-family", imag_family, 1e-11, "defining residuals, c_n < 0, a_n increasing"),
        ("trace-identity", trace_identity, 1e-9, "sum of eigenvalues = n"),
    ]
    rows = []
    for name, residual, tol, detail in battery:
        try:
            value = residual()
            ok = value <= tol
        except KmsBifError as exc:  # a raised invariant is a failure, not a crash
            value, detail, ok = math.inf, f"raised {exc!r}", False
        rows.append(("PASS" if ok else "FAIL", name, value, tol, detail.replace(",", ";")))
    return rows


def cmd_verify(args) -> None:
    rows = _verify_battery(args.n_max)
    meta = {"command": "verify", "n-max": args.n_max,
            "columns-doc": "one row per invariant; residual must stay below tol"}
    _emit_table(args, meta, ["status", "check", "residual", "tol", "detail"], rows)
    if any(row[0] == "FAIL" for row in rows):
        raise KmsBifError("one or more invariants failed")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def exit(self, status=0, message=None):
        super().exit(1 if status == 2 else status, message)


def _checked(convert, accept, rule: str):
    """argparse type: convert the text, and reject it unless accept(value) holds."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


_AT_LEAST_3 = _checked(int, lambda v: v >= 3, "an integer >= 3")
_POSITIVE = _checked(float, lambda v: v > 0, "a number > 0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kmsbif",
                     description="Eigenvalue-bifurcation analysis of K_n(rho).")
    subs = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--n": dict(type=_AT_LEAST_3, required=True, help="matrix order (n >= 3)"),
        "--type": dict(type=int, choices=(1, 2), default=None, dest="eig_type"),
        "--index": dict(type=int, default=0,
                        help="catalog point (0-based, after --type filter)"),
        "--n-max": dict(type=_AT_LEAST_3, default=12, dest="n_max",
                        help="largest n of the battery"),
        "--tol": dict(type=_POSITIVE, default=None, help="residual gate (exit 2 above it)"),
    }

    def command(name, handler, help, names, formats=("csv", "json"),
                out="output file ('-' = stdout)", **defaults):
        """One subcommand with exactly the flags it reads; defaults override per command."""
        s = subs.add_parser(name, help=help)
        for flag in names:
            s.add_argument(flag, **flags[flag])
        s.add_argument("--format", choices=formats, default="csv", dest="output_format")
        s.add_argument("--out", default="-", dest="output_path", help=out)
        s.set_defaults(handler=handler, **defaults)
        return s

    svg = ("csv", "json", "svg")
    command("critical-points", cmd_critical_points, "catalog of double-eigenvalue points",
            ["--n", "--type", "--tol"])
    command("puiseux", cmd_puiseux, "series parameters a, b, phases, c",
            ["--n", "--type", "--index"], index=None)
    command("level-curve", cmd_level_curve, "local |lambda| = n level curve at a point",
            ["--n", "--type", "--index"], svg)
    command("trajectory", cmd_trajectory, "eigenvalue pair along the cusp bisector",
            ["--n", "--type", "--index", "--tol"], svg)
    command("imaginary", cmd_imaginary, "imaginary-axis family parameters (odd n)", ["--n"])
    s = command("large-n", cmd_large_n, "asymptotic parameter table", [])
    s.add_argument("--n", type=_AT_LEAST_3, nargs="+", required=True, dest="n_list")
    s = command("figure", cmd_figure, "reproduce figure data sets (1..9)", [],
                ("csv", "svg"), "output directory")
    s.add_argument("fig_id", type=int, choices=range(1, 10))
    command("verify", cmd_verify, "run the invariant battery", ["--n-max"])
    return parser


def _check_out(args) -> None:
    """Raise the OSError that writing --out would raise, before any computation.

    A figure's output directory is made here and must be writable.  An output
    file is opened for appending, which changes no byte of an existing file,
    and one that did not exist is removed again, so no file is left behind.
    """
    if args.handler is cmd_figure:
        out_dir = Path(args.output_path if args.output_path != "-" else ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        if not os.access(out_dir, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(out_dir))
    elif args.output_path != "-":
        target = Path(args.output_path)
        existed = target.exists()
        with open(target, "a"):
            pass
        if not existed:
            target.unlink()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning the filters let through as one stderr line, with no source echo."""
    print(f"kmsbif: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():  # the filters (-W error::..., say) still apply
        warnings.showwarning = _show_warning
        # every warning the call raises, not each text once per source line;
        # appended, so -W and the caller's filters still come first
        warnings.filterwarnings("always", category=UserWarning, append=True)
        try:
            _check_out(args)
            args.handler(args)
        except KmsBifError as exc:
            print(f"kmsbif: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:  # an --out that cannot be written is a usage error
            print(f"kmsbif: cannot write output: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
