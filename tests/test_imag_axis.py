"""Tests for the purely imaginary critical-point family (odd n)."""

import math

import numpy as np
import pytest

from kmsbif import imag_axis
from kmsbif.critical import all_critical_points, rho_c_of_t
from kmsbif.errors import DomainError, HypothesisViolation, SizeError
from kmsbif.geometry import _level_eps, cusp_bisector_angle, trajectory_along_bisector
from kmsbif.imag_axis import (THETA_A_IMAG, THETA_B_IMAG, imag_axis_params, imag_level_curve,
                              imag_puiseux_params, large_n_params, parabola_trajectory,
                              solve_v_n)
from kmsbif.kms import EigType, eigenvector_of_mu
from kmsbif.oracle import build_matrix, count_extraordinary, kms_spectrum

ODD = range(3, 51, 2)


def _critical_eigenvector(n):
    # mu_c = pi/2 - i v_n, so t_c = cos(mu_c) = i sinh(v_n)
    p = imag_axis_params(n)
    return eigenvector_of_mu(n, complex(math.pi / 2.0, -p.v_n), p.eig_type)


# ---------------------------------------------------------------------------
# the scalar solvers


def test_v3_closed_form():
    # cosh(3v) = 3 cosh(v) reduces to cosh^2 v = 3/2
    assert solve_v_n(3) == pytest.approx(math.acosh(math.sqrt(1.5)), abs=1e-14)


def test_v19_value():
    assert round(solve_v_n(19), 3) == 0.192


def test_defining_equation_residuals():
    for n in list(ODD) + [101, 155, 201]:
        v = solve_v_n(n)
        assert v > 0.0
        resid = abs(math.cosh(n * v) - n * math.cosh(v)) / (n * math.cosh(v))
        assert resid < 1e-11, f"n={n}: residual {resid}"


def test_x_n_properties():
    assert imag_axis_params(3).x_n == pytest.approx(math.sqrt(1.5), abs=1e-14)
    # T_n(x_n) = n x_n, checked through the recurrence route
    from kmsbif.chebyshev import cheb_t
    x = imag_axis_params(19).x_n
    assert cheb_t(19, complex(x)).real / (19.0 * x) == pytest.approx(1.0, abs=1e-10)
    # x_n - 1 ~ (ln 2n)^2 / (2 n^2) for large n
    x = imag_axis_params(155).x_n
    approx = 1.0 + 0.5 * (math.log(310.0) / 155.0) ** 2
    assert abs(x - approx) / (x - 1.0) < 0.01


def test_y_values():
    assert imag_axis_params(3).y_n == pytest.approx(math.sqrt(8.0), abs=1e-12)
    assert imag_axis_params(19).y_n == pytest.approx(1.2780414700042164, abs=1e-12)


def test_y_n_matches_the_chebyshev_ratio_and_the_catalog():
    # y_n comes from one route; the Chebyshev ratio at t_c = i sinh(v_n) and
    # the catalog's point of the family's type check it at the same gate
    for n in range(3, 156, 2):
        p = imag_axis_params(n)
        other = rho_c_of_t(n, 1j * math.sinh(p.v_n), p.eig_type) / 1j
        assert abs(other - p.y_n) <= 1e-9 * p.y_n, (n, p.y_n, other)
        if n <= 51:
            gap = min(abs(q.rho_c - 1j * p.y_n) for q in all_critical_points(n)
                      if q.eig_type is p.eig_type)
            assert gap <= 1e-9 * p.y_n, (n, p.y_n, gap)


def test_odd_only():
    for fn in (solve_v_n, imag_axis_params, large_n_params):
        with pytest.raises(DomainError):
            fn(6)
        with pytest.raises(SizeError):
            fn(1)


def test_every_odd_n_of_the_range_passes_the_pell_type_check():
    for n in range(3, imag_axis._MAX_FAMILY_N + 1, 2):
        assert imag_axis_params(n).n == n


def test_the_range_ends_where_the_pell_type_check_first_fails(monkeypatch):
    # x_n^2 - 1 is formed by cancellation; the first odd n it spoils is the
    # one past the range, which the stated bound refuses unless lifted
    first_past = imag_axis._MAX_FAMILY_N + 2
    monkeypatch.setattr(imag_axis, "_MAX_FAMILY_N", first_past)
    with pytest.raises(HypothesisViolation, match="Pell-type identity failed"):
        imag_axis_params(first_past)


# ---------------------------------------------------------------------------
# the parameter bundle


def test_n3_closed_forms():
    p = imag_axis_params(3)
    assert p.a_n == pytest.approx(2.0 ** 1.75 / 3.0, abs=1e-12)
    assert p.b_n == pytest.approx(math.sqrt(8.0) / 3.0, abs=1e-12)
    assert p.c_n == pytest.approx(-0.3142696805273546, abs=1e-12)
    assert p.eig_type is EigType.Type2


def test_n19_frozen_values():
    p = imag_axis_params(19)
    wide = imag_axis_params(np.int64(19))
    assert wide == p and type(wide.n) is int
    assert p.v_n == pytest.approx(0.19238478377044257, abs=1e-13)
    assert p.x_n == pytest.approx(1.018563101358817, abs=1e-13)
    assert p.y_n == pytest.approx(1.2780414700042164, abs=1e-12)
    assert p.a_n == pytest.approx(5.390971357653348, rel=1e-12)
    assert p.b_n == pytest.approx(19.473058028784656, rel=1e-12)
    assert p.c_n == pytest.approx(-4.941771939265264, rel=1e-12)
    assert p.eig_type is EigType.Type2


def test_parameter_trends():
    prev_a = 0.0
    for n in ODD:
        p = imag_axis_params(n)
        assert p.c_n < 0.0
        assert p.a_n > prev_a
        assert p.b_n > 0.0
        assert p.c_n == pytest.approx(0.5 * (p.a_n ** 2 - 2.0 * p.b_n), rel=1e-14)
        prev_a = p.a_n


def test_type_alternates_mod_four():
    for n in ODD:
        want = EigType.Type1 if n % 4 == 1 else EigType.Type2
        assert imag_axis_params(n).eig_type is want


def test_puiseux_bundle_phases():
    p = imag_puiseux_params(imag_axis_params(7))
    assert p.theta_a == THETA_A_IMAG == 3.0 * math.pi / 4.0
    assert p.theta_b == THETA_B_IMAG == -math.pi / 2.0
    # theta_b - 2 theta_a = -2 pi, which wraps to zero
    assert p.Theta == 0.0
    assert p.lambda_c == -7.0
    assert abs(p.a) == pytest.approx(imag_axis_params(7).a_n, rel=1e-14)
    assert cusp_bisector_angle(p) == pytest.approx(-math.pi / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# oracle cross-checks


def test_double_eigenvalue_on_axis():
    for n in range(3, 27, 2):
        y = imag_axis_params(n).y_n
        lam = kms_spectrum(n, 1j * y)
        near = np.abs(lam + n) <= 1e-4 * n
        assert near.sum() == 2, f"n={n}: {near.sum()} eigenvalues near -n"


def test_mirror_point_below_axis():
    # the conjugate point -i y_n carries the same collision
    for n in (3, 7, 11, 19):
        y = imag_axis_params(n).y_n
        lam = kms_spectrum(n, -1j * y)
        near = np.abs(lam + n) <= 1e-4 * n
        assert near.sum() == 2


def test_real_pair_outside():
    # just past the critical height the colliding pair is real
    for n in range(3, 27, 2):
        y = imag_axis_params(n).y_n
        lam = kms_spectrum(n, 1j * (y + 1e-3))
        pair = sorted(lam, key=lambda z: abs(z + n))[:2]
        for z in pair:
            assert abs(z.imag) <= 1e-7 * n, f"n={n}: Im {z.imag}"


def test_conjugate_pair_inside():
    for n in range(3, 27, 2):
        y = imag_axis_params(n).y_n
        lam = kms_spectrum(n, 1j * (y - 1e-3))
        lo, hi = sorted(lam, key=lambda z: abs(z + n))[:2]
        assert abs(lo - hi.conjugate()) <= 1e-7 * n


def test_extraordinary_count_steps_up():
    for n in (3, 7, 11, 19):
        y = imag_axis_params(n).y_n
        below = count_extraordinary(n, kms_spectrum(n, 1j * (y - 0.01)))
        above = count_extraordinary(n, kms_spectrum(n, 1j * (y + 0.01)))
        assert above - below == 1, f"n={n}: {below} -> {above}"


def test_critical_eigenvector():
    # type 2 at n = 3 mod 4, type 1 at n = 1 mod 4
    for n in (3, 7, 11, 19, 5, 9, 13, 21):
        v = _critical_eigenvector(n)
        k = build_matrix(n, 1j * imag_axis_params(n).y_n)
        resid = np.linalg.norm(k.block @ v + n * v) / np.linalg.norm(v)
        assert resid <= 1e-9 * n
        # isotropy: the collision eigenvector is a null vector of the bilinear form
        assert abs(np.sum(v * v)) <= 1e-10 * np.linalg.norm(v) ** 2
        # entries alternate between real and purely imaginary: type 2 is real at
        # even offsets from the middle, type 1 at odd offsets with a zero middle
        mid = (n - 1) // 2
        real_offset = 0 if n % 4 == 3 else 1
        if n % 4 == 1:
            assert v[mid] == 0.0
        for j, z in enumerate(v):
            if (j - mid) % 2 == real_offset:
                assert abs(z.imag) < 1e-12 * max(1.0, abs(z))
            else:
                assert abs(z.real) < 1e-12 * max(1.0, abs(z))


def test_eigenvector_symmetry_by_type():
    v1 = _critical_eigenvector(5)   # type 1: skew-symmetric
    assert np.allclose(v1[::-1], -v1, atol=1e-14)
    assert v1[2] == 0.0
    v2 = _critical_eigenvector(7)   # type 2: symmetric
    assert np.allclose(v2[::-1], v2, atol=1e-14)


# ---------------------------------------------------------------------------
# level curve


def test_level_eps_matches_general_formula():
    # every kept sample's |eps| is the general level-curve formula at its theta
    for n in (3, 9, 19):
        params = imag_axis_params(n)
        gen = imag_puiseux_params(params)
        for theta, eps, _ in imag_level_curve(params).samples:
            num, den = _level_eps(theta, gen.theta_a, gen.theta_b, abs(gen.a) ** 2,
                                  2.0 * abs(gen.a), 2.0 * abs(gen.b))
            assert eps == pytest.approx((num / den) ** 2, rel=1e-12, abs=1e-30)


def test_level_eps_cusp_and_peak():
    params = imag_axis_params(3)
    # the cusp sits at theta = -pi/2 (pointing at the origin), on the centre itself
    cusp = [(eps, rho) for theta, eps, rho in imag_level_curve(params).samples
            if theta == -math.pi / 2.0]
    assert cusp == [(0.0, 1j * params.y_n)]


def test_level_curve_samples():
    params = imag_axis_params(19)
    curve = imag_level_curve(params)
    assert curve.center == 1j * params.y_n
    assert len(curve.samples) > 50
    thetas = [s[0] for s in curve.samples]
    assert thetas == sorted(thetas)
    # the fixed window: 161 evenly spaced theta over [-pi, 0]
    assert set(thetas) <= {-math.pi + math.pi * i / 160 for i in range(161)}
    for theta, eps, rho in curve.samples:
        assert 0.0 <= eps <= 0.5
        want = curve.center + eps * complex(math.cos(theta), math.sin(theta))
        assert abs(rho - want) < 1e-14


def test_level_curve_guards():
    params = imag_axis_params(5)
    degenerate = params.__class__(n=5, v_n=params.v_n, x_n=params.x_n,
                                  y_n=params.y_n, a_n=2.0, b_n=1.0, c_n=0.0,
                                  eig_type=params.eig_type)
    with pytest.raises(HypothesisViolation):
        imag_level_curve(degenerate)


# ---------------------------------------------------------------------------
# trajectory and parabola


def test_trajectory_forms():
    params = imag_axis_params(9)
    a, b, c = params.a_n, params.b_n, params.c_n
    pts = trajectory_along_bisector(imag_puiseux_params(params), [-4e-3, 0.0, 4e-3])
    inside, origin, outside = pts
    d = 4e-3
    assert inside.re_pair[0] == pytest.approx(1.0 - d * b, rel=1e-14)
    assert inside.im_pair[0] == pytest.approx(a * math.sqrt(d), rel=1e-14)
    assert inside.im_pair[1] == pytest.approx(-a * math.sqrt(d), rel=1e-14)
    assert inside.mag_pair[0] == pytest.approx(1.0 + d * c, rel=1e-14)
    assert origin.re_pair == (1.0, 1.0)
    assert outside.im_pair == (0.0, 0.0)
    assert outside.re_pair[0] == pytest.approx(1.0 + a * math.sqrt(d) + d * b, rel=1e-14)
    assert outside.re_pair[1] == pytest.approx(1.0 - a * math.sqrt(d) + d * b, rel=1e-14)


def test_trajectory_matches_oracle_n19():
    params = imag_axis_params(19)
    n, y = params.n, params.y_n
    for d in (-1e-3, 1e-3):
        point = trajectory_along_bisector(imag_puiseux_params(params), [d])[0]
        lam = kms_spectrum(n, 1j * (y + d))
        pair = sorted(lam, key=lambda z: abs(z + n))[:2]
        scaled = sorted((z / -n for z in pair), key=lambda z: -z.imag if d < 0 else -z.real)
        for got, re, im in zip(scaled, point.re_pair, point.im_pair):
            assert abs(got - complex(re, im)) < 5e-3


def test_parabola_vertex_and_identity():
    params = imag_axis_params(19)
    rows = parabola_trajectory(params)
    # figure 9's 81 samples, from the vertex down to chi = 0.88
    assert [chi for chi, _ in rows] == [1.0 - 0.12 * i / 80 for i in range(81)]
    chi, (psi_p, psi_m) = rows[0]
    assert chi == 1.0 and psi_p == 0.0 and psi_m == -0.0
    assert math.copysign(1.0, psi_p) == 1.0 and math.copysign(1.0, psi_m) == -1.0
    coef = params.a_n ** 2 / params.b_n
    for chi, (psi_p, psi_m) in rows:
        assert psi_m == -psi_p
        assert psi_p ** 2 == pytest.approx(coef * (1.0 - chi), rel=1e-14)
    # the samples are fixed: no caller passes its own chi
    with pytest.raises(TypeError):
        parabola_trajectory(params, [1.0, 0.96, 0.9])


def test_parabola_shadows_oracle():
    # scaled eigenvalues chi + i psi just inside the height lie on the parabola
    params = imag_axis_params(19)
    n, y = params.n, params.y_n
    coef = params.a_n ** 2 / params.b_n
    for d in (2e-4, 1e-3):
        lam = kms_spectrum(n, 1j * (y - d))
        z = min(lam, key=lambda w: abs(w + n)) / -n
        chi, psi = z.real, abs(z.imag)
        # the defect is quadratic in d; the measured constant is ~400 at n=19
        assert psi ** 2 == pytest.approx(coef * (1.0 - chi), abs=600.0 * d * d)


# ---------------------------------------------------------------------------
# large-n asymptotics


def test_large_n_formulas():
    n = 19
    log2n, root2n = math.log(38.0), math.sqrt(38.0)
    v, y, a, b = large_n_params(n)
    assert v == pytest.approx(log2n / n, rel=1e-15)
    assert y == pytest.approx(38.0 ** (1.0 / 19.0), rel=1e-15)
    assert a == pytest.approx(root2n - (log2n + 1.0) / root2n, rel=1e-15)
    assert b == pytest.approx(4.0 / 3.0 * (n - log2n - 1.0), rel=1e-12)


def test_large_n_errors_shrink():
    last = None
    for n in (19, 55, 155):
        p = imag_axis_params(n)
        v, y, a, _ = large_n_params(n)
        errs = (abs(v - p.v_n) / p.v_n, abs(y - p.y_n) / p.y_n,
                abs(a - p.a_n) / p.a_n)
        if last is not None:
            assert all(e < l for e, l in zip(errs, last))
        last = errs
    assert max(last) < 0.01
