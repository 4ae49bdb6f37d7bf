"""Tests for level curves, the cusp bisector, and bisector trajectories."""

import cmath
import math
import warnings

import numpy as np
import pytest

from kmsbif.critical import all_critical_points
from kmsbif.errors import DomainError, HypothesisViolation
from kmsbif.geometry import (cardioid_approx, cusp_bisector_angle,
                             local_level_curve, trajectory_along_bisector)
from kmsbif.kms import EigType
from kmsbif.oracle import closed_form_eigenvalues_n3, kms_spectrum
from kmsbif.puiseux import PuiseuxParams, puiseux_ab_from_t, wrap_angle


def _params_from_ab(a, b, lambda_c=-4.0):
    theta_a, theta_b = cmath.phase(a), cmath.phase(b)
    big = wrap_angle(theta_b - 2 * theta_a)
    c = 0.5 * (abs(a) ** 2 - 2 * abs(b) * math.cos(big))
    return PuiseuxParams(lambda_c=lambda_c, a=a, b=b, theta_a=theta_a, theta_b=theta_b,
                         Theta=big, c=c)


def _point(n, eig_type, target):
    pts = [p for p in all_critical_points(n) if p.eig_type is eig_type]
    return min(pts, key=lambda p: abs(p.rho_c - target))


def test_cusp_bisector_angle_examples():
    assert cusp_bisector_angle(_params_from_ab(cmath.rect(1, 0.75 * math.pi), 1.0)) \
        == pytest.approx(-math.pi / 2)
    assert cusp_bisector_angle(_params_from_ab(1j, 1.0)) == pytest.approx(0.0)
    p4 = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    assert cusp_bisector_angle(p4) == pytest.approx(math.pi - 2 * p4.theta_a)
    assert cusp_bisector_angle(p4) == pytest.approx(-2.2142974, abs=1e-6)


def test_level_curve_contains_exact_cusp_sample():
    point = _point(4, EigType.Type2, 1 + 2j)
    pp = puiseux_ab_from_t(point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = local_level_curve(pp, point.rho_c, theta_window=0.6, count=33)
    bis = cusp_bisector_angle(pp)
    cusp = [s for s in curve.samples if s[1] == 0.0]
    assert len(cusp) == 1
    assert cusp[0][0] == pytest.approx(bis)
    assert cusp[0][2] == point.rho_c


def test_level_curve_sample_geometry():
    point = _point(4, EigType.Type2, 1 + 2j)
    pp = puiseux_ab_from_t(point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = local_level_curve(pp, point.rho_c, theta_window=0.7, count=41)
    assert curve.center == point.rho_c
    thetas = [s[0] for s in curve.samples]
    assert thetas == sorted(thetas)
    for theta, mag, rho in curve.samples:
        assert mag >= 0.0
        assert abs(rho - (point.rho_c + mag * cmath.exp(1j * theta))) < 1e-14


def test_level_curve_matches_n3_closed_forms():
    # residual of ||lambda(rho)| / 3 - 1| along the curve, |eps| <= 0.05
    point = _point(3, EigType.Type2, 1j * math.sqrt(8))
    pp = puiseux_ab_from_t(point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = local_level_curve(pp, point.rho_c, theta_window=0.8, count=201)
    checked = 0
    for _, mag, rho in curve.samples:
        if not 0.0 < mag <= 0.05:
            continue
        lams = closed_form_eigenvalues_n3(rho)[1:]  # the type-2 pair
        resid = min(abs(abs(lam) / 3.0 - 1.0) for lam in lams)
        assert resid < 1e-3
        checked += 1
    assert checked > 20


def test_level_curve_residual_decays_like_eps_cubed_halves():
    point = _point(4, EigType.Type2, 1 + 2j)
    pp = puiseux_ab_from_t(point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = local_level_curve(pp, point.rho_c, theta_window=0.8, count=4001)
    mags, resid = [], []
    for _, mag, rho in curve.samples:
        if not 1e-4 <= mag <= 3e-2:
            continue
        ev = kms_spectrum(4, rho)
        pair = ev[np.argsort(np.abs(ev + 4.0))[:2]]
        mags.append(mag)
        resid.append(min(abs(abs(lam) / 4.0 - 1.0) for lam in pair))
    assert len(mags) > 100
    slope = np.polyfit(np.log(mags), np.log(resid), 1)[0]
    assert slope >= 1.4


def test_level_curve_two_branches_reach_cusp():
    point = _point(4, EigType.Type2, 1 + 2j)
    pp = puiseux_ab_from_t(point)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = local_level_curve(pp, point.rho_c, theta_window=0.5, count=81)
    bis = cusp_bisector_angle(pp)
    below = [s for s in curve.samples if s[0] < bis and s[1] > 0]
    above = [s for s in curve.samples if s[0] > bis and s[1] > 0]
    assert below and above
    # |eps| shrinks toward the cusp on both sides
    assert below[-1][1] < below[0][1]
    assert above[0][1] < above[-1][1]


def test_level_curve_condition_violated():
    bad = _params_from_ab(complex(math.sqrt(2.0)), 1.0)  # |a|^2 = 2|b|cos(0)
    assert abs(bad.c) < 1e-12
    with pytest.raises(HypothesisViolation):
        local_level_curve(bad, 0j)
    good = puiseux_ab_from_t(all_critical_points(3)[0])
    for window in (0.0, math.nan, math.inf, "x", None, 1j):
        with pytest.raises(DomainError):
            local_level_curve(good, 0j, theta_window=window)
    # too few samples to hold the cusp and both branches, or not an integer
    for count in (0, 1, 2, 4.0, 5.5, "7"):
        with pytest.raises(DomainError):
            local_level_curve(good, 0j, count=count)


def test_cardioid_approx():
    pp = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    bis = cusp_bisector_angle(pp)
    den = abs(pp.a) ** 2 - 2 * abs(pp.b) * math.cos(pp.Theta)
    assert cardioid_approx(pp, bis) == 0.0
    assert cardioid_approx(pp, bis + math.pi) == pytest.approx(4.0 / den ** 2)
    with pytest.raises(HypothesisViolation):
        cardioid_approx(_params_from_ab(complex(math.sqrt(2.0)), 1.0), 0.3)


def test_cardioid_rejects_non_finite_theta():
    pp = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    # non-finite, or not a real number at all
    for theta in (math.nan, math.inf, -math.inf, "x", None, 1j):
        with pytest.raises(DomainError):
            cardioid_approx(pp, theta)


def test_cardioid_is_unit_amplitude_scaling_of_level_curve():
    # near the cusp the exact level curve behaves like |a|^2 times the
    # cardioid expression; for synthetic |a| = 1 the two coincide directly
    from kmsbif.geometry import _level_eps

    def level_eps(params, theta):
        num, den = _level_eps(params, theta)
        return (num / den) ** 2

    pp = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    bis = cusp_bisector_angle(pp)
    for delta in (0.03, 0.01, -0.02):
        ratio = cardioid_approx(pp, bis + delta) / level_eps(pp, bis + delta)
        assert ratio * abs(pp.a) ** 2 == pytest.approx(1.0, abs=0.01)
    unit = _params_from_ab(cmath.rect(1.0, 0.4), 0.3 * cmath.rect(1.0, 1.1))
    bis_u = cusp_bisector_angle(unit)
    for delta in (0.005, -0.005):
        ratio = cardioid_approx(unit, bis_u + delta) / level_eps(unit, bis_u + delta)
        assert ratio == pytest.approx(1.0, abs=0.01)


def test_trajectory_at_zero_and_slope():
    pp = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    pts = trajectory_along_bisector(pp, [-0.01, -0.001, 0.0, 0.001, 0.01])
    mid = pts[2]
    assert mid.re_pair == (1.0, 1.0)
    assert mid.im_pair == (0.0, 0.0)
    assert mid.mag_pair == (1.0, 1.0)
    c = pp.c
    for tp in pts[:2]:
        assert tp.mag_pair[0] == pytest.approx(1.0 + abs(tp.d) * c)
        assert tp.mag_pair[1] == pytest.approx(1.0 + abs(tp.d) * c)


def test_trajectory_rejects_non_finite_d():
    pp = puiseux_ab_from_t(all_critical_points(4)[0])
    # non-finite, or not a real number at all
    for d in (math.nan, math.inf, -math.inf, 1j, "x", None):
        with pytest.raises(DomainError):
            trajectory_along_bisector(pp, [0.0, d])


def test_trajectory_straddles_after_bifurcation():
    pp = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    for tp in trajectory_along_bisector(pp, [1e-4, 1e-3, 1e-2]):
        lo, hi = sorted(tp.mag_pair)
        assert lo < 1.0 < hi


def test_trajectory_conjugate_leading_terms_before_bifurcation():
    pp = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    for tp in trajectory_along_bisector(pp, [-1e-4, -1e-3, -1e-2]):
        # the +/- sqrt terms cancel in the sum; what is left is O(d)
        assert abs(tp.im_pair[0] + tp.im_pair[1]) <= 2 * abs(tp.d) * abs(pp.b) + 1e-15


def test_trajectory_matches_oracle_n4():
    point = _point(4, EigType.Type2, 1 + 2j)
    pp = puiseux_ab_from_t(point)
    direction = cmath.exp(-2j * pp.theta_a)
    for d in (-0.01, 0.01):
        tp = trajectory_along_bisector(pp, [d])[0]
        ev = kms_spectrum(4, point.rho_c + d * direction)
        pair = ev[np.argsort(np.abs(ev + 4.0))[:2]] / (-4.0)
        if d <= 0:
            pair = sorted(pair, key=lambda z: -z.imag)
        else:
            pair = sorted(pair, key=lambda z: -z.real)
        for i in (0, 1):
            assert abs(pair[i].real - tp.re_pair[i]) < 5e-3
            assert abs(pair[i].imag - tp.im_pair[i]) < 5e-3
            assert abs(abs(pair[i]) - tp.mag_pair[i]) < 5e-3


def test_bifurcation_strength_examples():
    pp = puiseux_ab_from_t(_point(4, EigType.Type2, 1 + 2j))
    assert pp.c == pytest.approx(-0.55, abs=1e-9)
    assert _params_from_ab(2.0, 1e-300).c == pytest.approx(2.0)


def _reference_level_curve(p, rho_c, theta_window, count):
    # the per-sample loop local_level_curve ran before its loop invariants
    # were taken out: the samples it keeps and the number it drops
    bis = cusp_bisector_angle(p)
    sgn = 1.0 if abs(p.a) ** 2 - 2.0 * abs(p.b) * math.cos(p.Theta) > 0 else -1.0
    samples, dropped = [], 0
    for i in range(count):
        theta = bis + theta_window * (2.0 * i / (count - 1) - 1.0)
        half = 0.5 * theta + p.theta_a
        num = 2.0 * abs(p.a) * math.cos(half)
        den = abs(p.a) ** 2 * math.sin(half) ** 2 + 2.0 * abs(p.b) * math.cos(theta + p.theta_b)
        if i == (count - 1) // 2:
            samples.append((theta, 0.0, rho_c))
            continue
        if den * sgn <= 0.0:
            dropped += 1
            continue
        eps = (num / den) ** 2
        if eps > 0.5:
            dropped += 1
            continue
        samples.append((theta, eps, rho_c + eps * complex(math.cos(theta), math.sin(theta))))
    return samples, dropped


def _reference_trajectory(p, d_values):
    # the per-point loop trajectory_along_bisector ran before its loop
    # invariants were taken out, as (d, re_pair, im_pair, mag_pair)
    mag_a, mag_b = abs(p.a), abs(p.b)
    cos_t, sin_t = math.cos(p.Theta), math.sin(p.Theta)
    out = []
    for d in d_values:
        if d <= 0.0:
            ad = abs(d)
            root = mag_a * math.sqrt(ad)
            re = 1.0 - ad * mag_b * cos_t
            mag = 1.0 + ad * 0.5 * (mag_a ** 2 - 2.0 * mag_b * cos_t)
            out.append((d, (re, re), (root - ad * mag_b * sin_t, -root - ad * mag_b * sin_t),
                        (mag, mag)))
        else:
            root = mag_a * math.sqrt(d)
            base = 1.0 + d * mag_b * cos_t
            out.append((d, (base + root, base - root), (d * mag_b * sin_t, d * mag_b * sin_t),
                        (base + root, base - root)))
    return out


def _as_tuples(points):
    return [(tp.d, tp.re_pair, tp.im_pair, tp.mag_pair) for tp in points]


def test_geometry_loops_are_bit_identical_to_the_per_sample_loop():
    # every float, compared by repr (so -0.0 differs from 0.0), at every
    # catalog point of n = 4, 8, 19 and 64, for the default window and a wide
    # one that drops samples, and along d values that include both zeros and
    # the smallest magnitudes
    d_values = [0.02 * (2.0 * i / 80 - 1.0) for i in range(81)]
    d_values += [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 0.5, -0.5]
    for n in (4, 8, 19, 64):
        for point in all_critical_points(n):
            pp = puiseux_ab_from_t(point)
            for window, count in ((0.8, 161), (2.5, 64)):
                want, dropped = _reference_level_curve(pp, point.rho_c, window, count + 1 - count % 2)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = local_level_curve(pp, point.rho_c, theta_window=window, count=count)
                assert repr(got.samples) == repr(want), (n, point.rho_c, window)
                assert [str(w.message) for w in caught] == (
                    [f"{dropped} level-curve samples outside validity region dropped"]
                    if dropped else []), (n, point.rho_c, window)
            got = _as_tuples(trajectory_along_bisector(pp, d_values))
            assert repr(got) == repr(_reference_trajectory(pp, d_values)), (n, point.rho_c)


def test_trajectory_takes_a_squared_only_where_some_d_reads_it():
    # |a|^2 overflows for |a| = 1e200: a trajectory that only leaves the cusp
    # never forms it, and one that approaches it raises DomainError where the
    # reference loop raises OverflowError
    huge = PuiseuxParams(lambda_c=-4.0, a=1e200, b=1.0, theta_a=0.0, theta_b=0.0,
                         Theta=0.0, c=0.0)
    leaving = [1e-3, 0.5]
    assert repr(_as_tuples(trajectory_along_bisector(huge, leaving))) == repr(
        _reference_trajectory(huge, leaving))
    for approaching in ([-1e-3], [1e-3, -0.0]):
        with pytest.raises(OverflowError):
            _reference_trajectory(huge, approaching)
        with pytest.raises(DomainError, match="overflows"):
            trajectory_along_bisector(huge, approaching)
