"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines;
each test prints its verdict before asserting, so the full scorecard is
visible even when something fails.
"""

import cmath
import math
import warnings

import numpy as np

from kmsbif.chebyshev import cheb_t, cheb_t_log, cheb_u
from kmsbif.critical import all_critical_points
from kmsbif.geometry import cusp_bisector_angle, local_level_curve
from kmsbif.imag_axis import imag_axis_params, large_n_params
from kmsbif.kms import eigenvector_of_mu, isotropy_defect
from kmsbif.oracle import (closed_form_eigenvalues_n3, count_extraordinary,
                           kms_spectrum)
from kmsbif.puiseux import (derivatives_at_critical, eval_truncated_series,
                            puiseux_ab_from_t, puiseux_from_derivatives)

ROOT8 = math.sqrt(8.0)


def _line(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {tag} {detail}")
    assert ok, f"{tag}: {detail}"


def _points(n, eig_type=None):
    pts = all_critical_points(n)
    if eig_type is not None:
        pts = [p for p in pts if p.eig_type.value == eig_type]
    return pts


def _nearest(n, eig_type, target):
    return min(_points(n, eig_type), key=lambda p: abs(p.rho_c - target))


def _near_pair(n, rho):
    lam = kms_spectrum(n, rho)
    return sorted(lam, key=lambda z: abs(z + n))[:2]


def _rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1.0)


def test_ac01_n3_closed_forms(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        rho = 4.0 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
        oracle = kms_spectrum(3, rho)
        closed = closed_form_eigenvalues_n3(rho)
        for z in closed:
            worst = max(worst, min(abs(z - w) for w in oracle))
        for w in oracle:
            worst = max(worst, min(abs(z - w) for z in closed))
    _line(capsys, "AC01 n3-closed-forms", worst <= 1e-9,
          f"max |lambda_oracle - lambda_closed| = {worst:.2e} over 100 draws")


def test_ac02_critical_point_catalog(capsys):
    pts3 = _points(3)
    ok = len(pts3) == 2 and all(p.eig_type.value == 2 for p in pts3)
    err3 = max(min(abs(p.rho_c - s * 1j * ROOT8) for p in pts3) for s in (1, -1))
    ok = ok and err3 <= 1e-12

    p4 = _nearest(4, 2, 1 + 2j)
    err4 = abs(p4.rho_c - (1 + 2j))
    err4t = abs(p4.t_c - (1 + 1j) / 2.0)
    ok = ok and err4 <= 1e-12 and err4t <= 1e-12

    p8 = _nearest(8, 1, 0.922 - 1.29j)
    # printed reference values carry 3 significant figures; allow one unit
    # in the last printed digit
    ok8 = abs(p8.rho_c.real - 0.922) < 1e-3 and abs(p8.rho_c.imag + 1.29) < 1e-2
    _line(capsys, "AC02 critical-points", ok and ok8,
          f"n3 err {err3:.1e}, n4 err {max(err4, err4t):.1e}, "
          f"n8 point {p8.rho_c:.5f}")


def test_ac03_series_parameters(capsys):
    pp4 = puiseux_ab_from_t(_nearest(4, 2, 1 + 2j))
    a_ref = (-2 + 1j) / math.sqrt(2.0)
    err4 = max(min(abs(pp4.a - a_ref), abs(pp4.a + a_ref)),
               abs(pp4.b - (1 - 1.5j)))

    pp3 = puiseux_ab_from_t(_nearest(3, 2, 1j * ROOT8))
    err3 = max(abs(abs(pp3.a) - 2.0 ** 1.75 / 3.0),
               abs(abs(pp3.b) - ROOT8 / 3.0))

    pp8 = puiseux_ab_from_t(_nearest(8, 1, 0.922 - 1.29j))
    ok8 = (abs(pp8.a.real - 2.74) < 1e-2 and abs(pp8.a.imag - 1.15) < 1e-2
           and abs(pp8.b.real - 4.07) < 1e-2 and abs(pp8.b.imag - 4.52) < 1e-2)
    ok = err4 <= 1e-10 and err3 <= 1e-10 and ok8
    _line(capsys, "AC03 puiseux-parameters", ok,
          f"n4 err {err4:.1e}, n3 err {err3:.1e}, n8 a = {pp8.a:.4f} b = {pp8.b:.4f}")


def test_ac04_route_equivalence(capsys):
    worst, count = 0.0, 0
    for n in range(3, 26):
        for cp in all_critical_points(n):
            p1 = puiseux_ab_from_t(cp)
            p2 = puiseux_from_derivatives(cp.lambda_c, derivatives_at_critical(cp))
            worst = max(worst,
                        min(abs(p1.a - p2.a), abs(p1.a + p2.a)) / abs(p1.a),
                        abs(p1.b - p2.b) / abs(p1.b),
                        abs(p1.c - p2.c) / abs(p1.c))
            count += 1
    _line(capsys, "AC04 route-equivalence", worst <= 1e-9,
          f"worst relative gap {worst:.2e} over {count} points, n <= 25")


def test_ac05_series_order(capsys):
    picks = [(3, 2, 1j * ROOT8), (4, 2, 1 + 2j), (4, 1, -1 - 2j),
             (8, 1, 0.922 - 1.29j), (8, 2, -0.922 - 1.29j),
             (19, 2, 1.278j)]
    mags = np.geomspace(1e-4, 1e-2, 9)
    slopes = []
    for n, et, target in picks:
        cp = _nearest(n, et, target)
        pp = puiseux_ab_from_t(cp)
        u = cmath.exp(1j * (cusp_bisector_angle(pp) + 0.5))
        resid = []
        for m in mags:
            eps = m * u
            series = eval_truncated_series(pp, eps)
            pair = _near_pair(n, cp.rho_c + eps)
            r = min(max(abs(series[0] - pair[0]), abs(series[1] - pair[1])),
                    max(abs(series[0] - pair[1]), abs(series[1] - pair[0]))) / n
            resid.append(r)
        slopes.append(np.polyfit(np.log(mags), np.log(resid), 1)[0])
    ok = all(1.3 <= s <= 1.7 for s in slopes)
    _line(capsys, "AC05 series-order", ok,
          f"remainder exponents {min(slopes):.3f}..{max(slopes):.3f} "
          f"at {len(slopes)} points (n in 3/4/8/19)")


def test_ac06_level_curve(capsys):
    cp = _nearest(4, 2, 1 + 2j)
    pp = puiseux_ab_from_t(cp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = local_level_curve(pp, cp.rho_c, theta_window=0.8, count=4001)
    cusp_hits = [s for s in curve.samples if s[1] == 0.0]
    mags, resid = [], []
    for _, eps, rho in curve.samples:
        if not 1e-4 <= eps <= 3e-2:
            continue
        pair = _near_pair(4, rho)
        mags.append(eps)
        resid.append(min(abs(abs(z) / 4.0 - 1.0) for z in pair))
    slope = np.polyfit(np.log(mags), np.log(resid), 1)[0]
    ok = slope >= 1.4 and len(cusp_hits) == 1 and len(mags) > 100
    _line(capsys, "AC06 level-curve", ok,
          f"residual exponent {slope:.3f} over {len(mags)} samples; "
          f"bisector sample gives |eps| = 0 exactly")


def test_ac07_imaginary_family_n19(capsys):
    p = imag_axis_params(19)
    # one unit in the last printed digit of (0.192, 1.28, 5.39, 19.4)
    ok = (abs(p.v_n - 0.192) < 1e-3 and abs(p.y_n - 1.28) < 1e-2
          and abs(p.a_n - 5.39) < 1e-2 and abs(p.b_n - 19.4) < 1e-1)
    lam = kms_spectrum(19, 1j * p.y_n)
    near = np.abs(lam + 19.0) <= 1e-3
    ok = ok and near.sum() == 2
    _line(capsys, "AC07 imaginary-family", ok,
          f"(v, y, a, b) = ({p.v_n:.4f}, {p.y_n:.4f}, {p.a_n:.4f}, {p.b_n:.4f}); "
          f"{near.sum()} eigenvalues within 1e-3 of -19")


def test_ac08_large_n_errors(capsys):
    table = {19: (5.2, 0.4, 1.7), 55: (2.0, 0.04, 0.3), 155: (0.6, 0.002, 0.06)}
    worst = 0.0
    for n, refs in table.items():
        p = imag_axis_params(n)
        _, y_a, a_a, b_a = large_n_params(n)
        errs = (100.0 * abs(y_a - p.y_n) / p.y_n,
                100.0 * abs(a_a - p.a_n) / p.a_n,
                100.0 * abs(b_a - p.b_n) / p.b_n)
        worst = max(worst, max(abs(e - r) for e, r in zip(errs, refs)))
    _line(capsys, "AC08 large-n-errors", worst <= 0.2,
          f"max deviation from the reference table {worst:.3f} percentage points")


def test_ac09_isotropy(capsys):
    worst, count = 0.0, 0
    for n in range(3, 26):
        for cp in all_critical_points(n):
            v = eigenvector_of_mu(n, cp.mu_c, cp.eig_type)
            worst = max(worst, abs(isotropy_defect(v)) / float(np.sum(np.abs(v) ** 2)))
            count += 1
    _line(capsys, "AC09 isotropy", worst <= 1e-10,
          f"max |sum v_j^2| / ||v||^2 = {worst:.2e} over {count} eigenvectors")


def test_ac10_reality_after_bifurcation(capsys):
    worst_im, worst_conj = 0.0, 0.0
    for n in range(3, 26, 2):
        y = imag_axis_params(n).y_n
        outer = _near_pair(n, 1j * (y + 1e-3))
        worst_im = max(worst_im, max(abs(z.imag) for z in outer) / n)
        lo, hi = _near_pair(n, 1j * (y - 1e-3))
        worst_conj = max(worst_conj, abs(lo - hi.conjugate()) / n)
    ok = worst_im <= 1e-7 and worst_conj <= 1e-7
    _line(capsys, "AC10 reality-after-bifurcation", ok,
          f"outside: max |Im|/n = {worst_im:.2e}; "
          f"inside: conjugation defect {worst_conj:.2e}")


def test_ac11_extraordinary_count(capsys):
    steps = {}
    for n in (3, 7, 11, 19):
        y = imag_axis_params(n).y_n
        steps[n] = (count_extraordinary(n, kms_spectrum(n, 1j * (y + 0.01)))
                    - count_extraordinary(n, kms_spectrum(n, 1j * (y - 0.01))))
    ok = all(s == 1 for s in steps.values())
    _line(capsys, "AC11 extraordinary-count", ok,
          f"count step across i y_n: {steps}")


def test_ac12_sign_of_c(capsys):
    prev_a, ok, worst_c = 0.0, True, -math.inf
    for n in range(3, 51, 2):
        p = imag_axis_params(n)
        ok = ok and p.c_n < 0.0 and p.a_n > prev_a
        worst_c = max(worst_c, p.c_n)
        prev_a = p.a_n
    _line(capsys, "AC12 sign-of-c", ok,
          f"max c_n = {worst_c:.4f} (< 0) and a_n strictly increasing, odd n <= 50")


def test_ac13_chebyshev_identities(capsys):
    rng = np.random.default_rng(20240902)

    def draw_z(scale=1.0):
        return complex(rng.normal(0.0, scale), rng.normal(0.0, scale))

    results = {}

    worst = 0.0
    for _ in range(500):
        k, z = int(rng.integers(0, 31)), draw_z()
        worst = max(worst, _rel(cheb_t(2 * k, z), 2.0 * cheb_t(k, z) ** 2 - 1.0))
    results["doubling"] = worst

    worst = 0.0
    for _ in range(500):
        k, z = int(rng.integers(0, 59)), draw_z()
        worst = max(worst, _rel(cheb_t(k, z),
                                2.0 * z * cheb_t(k + 1, z) - cheb_t(k + 2, z)))
    results["downward-recurrence"] = worst

    worst = 0.0
    for _ in range(500):
        k, x = int(rng.integers(1, 61)), 10.0 ** rng.uniform(6.0, 8.0)
        want = (k - 1) * math.log(2.0) + k * math.log(x)
        worst = max(worst, abs(cheb_t_log(k, x) - want) / abs(want))
    results["leading-asymptotic"] = worst

    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(0, 61))
        worst = max(worst, _rel(cheb_u(k, 1.0 + 0j), k + 1.0))
    results["u-at-one"] = worst

    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(0, 61))
        worst = max(worst, _rel(cheb_t(k, 1.0 + 0j), 1.0))
    results["t-at-one"] = worst

    ok6 = True
    for _ in range(500):
        k, x = int(rng.integers(1, 61)), 1.0 + abs(rng.normal(0.0, 1.0)) + 1e-9
        ok6 = ok6 and cheb_u(k, x) > k + 1.0 and cheb_t(k, x) > 1.0
    results["growth"] = 0.0 if ok6 else 1.0

    worst = 0.0
    for _ in range(500):
        k, z = int(rng.integers(1, 61)), float(rng.uniform(-0.95, 0.95))
        fd = cheb_t(k, complex(z, 1e-8)).imag / 1e-8
        worst = max(worst, _rel(fd, k * cheb_u(k - 1, complex(z)).real))
    results["derivative"] = worst

    worst = 0.0
    for _ in range(500):
        k, x = int(rng.integers(0, 61)), float(rng.uniform(0.05, 3.0))
        worst = max(worst, _rel(cheb_t(k, complex(math.cosh(x))), math.cosh(k * x)))
    results["t-hyperbolic"] = worst

    worst = 0.0
    for _ in range(500):
        k, z = int(rng.integers(0, 31)), draw_z()
        worst = max(worst, _rel(cheb_u(2 * k, -z), cheb_u(2 * k, z)))
    results["u-parity"] = worst

    w10 = w11 = 0.0
    for _ in range(500):
        k = int(rng.integers(0, 61))
        z = complex(rng.uniform(0.3, 1.8), rng.uniform(-1.0, 1.0))
        w = cmath.sqrt(1.0 - z * z)
        if k % 2 == 0:
            u_rhs = (-1) ** (k // 2) * cheb_t(k + 1, z) / z
            t_rhs = (-1) ** (k // 2) * cheb_t(k, z)
        else:
            u_rhs = (-1) ** ((k - 1) // 2) * w / z * cheb_u(k, z)
            t_rhs = (-1) ** ((k - 1) // 2) * w * cheb_u(k - 1, z)
        w10 = max(w10, _rel(cheb_u(k, w), u_rhs))
        w11 = max(w11, _rel(cheb_t(k, w), t_rhs))
    results["u-argument-swap"] = w10
    results["t-argument-swap"] = w11

    worst = 0.0
    for _ in range(500):
        k, z = int(rng.integers(1, 61)), draw_z()
        worst = max(worst, _rel((z * z - 1.0) * cheb_u(k - 1, z) ** 2,
                                cheb_t(k, z) ** 2 - 1.0))
    results["pell"] = worst

    worst = 0.0
    for _ in range(500):
        k, x = int(rng.integers(0, 61)), float(rng.uniform(0.05, 3.0))
        worst = max(worst, _rel(cheb_u(k, complex(math.cosh(x))),
                                math.sinh((k + 1) * x) / math.sinh(x)))
    results["u-hyperbolic"] = worst

    bad = {name: w for name, w in results.items() if w > 1e-9}
    _line(capsys, "AC13 chebyshev-identities", len(results) == 13 and not bad,
          f"13 identities x 500 draws, worst rel {max(results.values()):.2e}"
          + (f"; FAILING: {bad}" if bad else ""))


def test_ac14_parabola_trajectory(capsys):
    p = imag_axis_params(19)
    coef = p.a_n ** 2 / p.b_n
    ds = np.geomspace(1e-4, 1e-2, 13)
    dev = []
    for d in ds:
        z = min(kms_spectrum(19, 1j * (p.y_n - d)),
                key=lambda w: abs(w + 19.0)) / -19.0
        dev.append(abs(z.imag ** 2 - coef * (1.0 - z.real)))
    slope = np.polyfit(np.log(ds), np.log(dev), 1)[0]
    _line(capsys, "AC14 parabola-trajectory", slope >= 1.3,
          f"deviation exponent {slope:.3f} over d in [-1e-2, -1e-4]")
