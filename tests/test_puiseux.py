"""Tests for the Puiseux-series machinery (the two routes to a and b)."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from kmsbif.critical import all_critical_points
from kmsbif.errors import DegenerateArgument, HypothesisViolation
from kmsbif.kms import EigType, rho_of_mu
from kmsbif.oracle import kms_spectrum
from kmsbif.puiseux import (DerivativeBundle, derivatives_at_critical,
                            eval_truncated_series, puiseux_ab_from_t,
                            puiseux_from_derivatives, wrap_angle)


def _points(n, eig_type=None):
    pts = all_critical_points(n)
    if eig_type is not None:
        pts = [p for p in pts if p.eig_type is eig_type]
    return pts


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(-2 * math.pi) == 0.0
    assert wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    rng = np.random.default_rng(401)
    for x in rng.uniform(-30, 30, size=200):
        w = wrap_angle(float(x))
        assert -math.pi < w <= math.pi
        assert abs((x - w) / (2 * math.pi) - round((x - w) / (2 * math.pi))) < 1e-9


def test_derivatives_against_finite_differences():
    # 4th-order stencils on lambda(mu), rho(mu); step 1e-4 (1 + |mu_c|)
    def fd_all(f, x, h):
        vals = {k: f(x + k * h) for k in range(-3, 4)}
        d1 = (-vals[2] + 8 * vals[1] - 8 * vals[-1] + vals[-2]) / (12 * h)
        d2 = (-vals[2] + 16 * vals[1] - 30 * vals[0] + 16 * vals[-1] - vals[-2]) \
            / (12 * h * h)
        d3 = (-vals[3] + 8 * vals[2] - 13 * vals[1] + 13 * vals[-1]
              - 8 * vals[-2] + vals[-3]) / (8 * h ** 3)
        return d1, d2, d3

    from kmsbif.kms import lambda_of_mu

    for n, et in ((4, EigType.Type2), (5, EigType.Type1), (8, EigType.Type1)):
        p = _points(n, et)[0]
        d = derivatives_at_critical(p)
        h = 1e-4 * (1 + abs(p.mu_c))
        lam1, lam2, _ = fd_all(lambda mu: lambda_of_mu(n, mu, p.eig_type), p.mu_c, h)
        _, rho2, rho3 = fd_all(lambda mu: rho_of_mu(n, mu, p.eig_type), p.mu_c, h)
        assert abs(lam1 - d.lambda_c_p) < 2e-6 * (1 + abs(d.lambda_c_p))
        assert abs(lam2 - d.lambda_c_pp) < 1e-5 * (1 + abs(d.lambda_c_pp))
        assert abs(rho2 - d.rho_c_pp) < 1e-5 * (1 + abs(d.rho_c_pp))
        assert abs(rho3 - d.rho_c_ppp) < 1e-3 * (1 + abs(d.rho_c_ppp))


def test_route_equivalence():
    for n in range(3, 13):
        for p in all_critical_points(n):
            by_t = puiseux_ab_from_t(p)
            by_mu = puiseux_from_derivatives(p.lambda_c, derivatives_at_critical(p))
            da = min(abs(by_t.a - by_mu.a), abs(by_t.a + by_mu.a)) / abs(by_t.a)
            db = abs(by_t.b - by_mu.b) / abs(by_t.b)
            assert da < 1e-9 and db < 1e-9
    # a numpy integer order gives the same points, bit for bit, holding an int
    # n, and so the same series from both routes
    for n in (9, 16, 64):
        points, wide = all_critical_points(n), all_critical_points(np.int64(n))
        assert wide == points and all(type(p.n) is int for p in wide)
        for p, q in zip(points, wide):
            assert puiseux_ab_from_t(q) == puiseux_ab_from_t(p)
            assert (puiseux_from_derivatives(q.lambda_c, derivatives_at_critical(q))
                    == puiseux_from_derivatives(p.lambda_c, derivatives_at_critical(p)))


def test_n4_reference_values():
    p = [q for q in _points(4, EigType.Type2) if abs(q.rho_c - (1 + 2j)) < 1e-9][0]
    pp = puiseux_ab_from_t(p)
    ref_a = (-2 + 1j) / math.sqrt(2)
    assert min(abs(pp.a - ref_a), abs(pp.a + ref_a)) < 1e-10
    assert abs(pp.b - (1 - 1.5j)) < 1e-10
    assert pp.c == pytest.approx(-0.55, abs=1e-10)


def test_n3_reference_values():
    pp = puiseux_ab_from_t(_points(3)[0])
    assert abs(abs(pp.a) - 2.0 ** 1.75 / 3.0) < 1e-10
    assert abs(abs(pp.b) - math.sqrt(8.0) / 3.0) < 1e-10


def test_n8_reference_values():
    target = 0.922 - 1.29j
    p = min(_points(8, EigType.Type1), key=lambda q: abs(q.rho_c - target))
    pp = puiseux_ab_from_t(p)
    ref_a, ref_b = 2.74 + 1.15j, 4.07 + 4.52j
    assert min(abs(pp.a - ref_a), abs(pp.a + ref_a)) < 1e-2
    assert abs(pp.b - ref_b) < 1e-2


def test_parameter_invariants():
    for n in range(3, 26):
        for p in all_critical_points(n):
            pp = puiseux_ab_from_t(p)
            assert abs(pp.a) > 0
            assert -math.pi < pp.Theta <= math.pi
            assert pp.Theta == pytest.approx(wrap_angle(pp.theta_b - 2 * pp.theta_a))
            assert pp.c == pytest.approx(
                0.5 * (abs(pp.a) ** 2 - 2 * abs(pp.b) * math.cos(pp.Theta)))
            assert pp.c != 0.0


def test_truncated_series_converges_to_oracle():
    # remainder is O(eps^{3/2}): fitted slope in [1.3, 1.7] at an n=4 point
    p = [q for q in _points(4, EigType.Type2) if abs(q.rho_c - (1 + 2j)) < 1e-9][0]
    pp = puiseux_ab_from_t(p)
    lam_c = p.lambda_c
    direction = cmath.exp(1j * 0.3)
    mags, resid = [], []
    for mag in np.geomspace(1e-4, 1e-2, 9):
        eps = mag * direction
        ev = kms_spectrum(4, p.rho_c + eps)
        pair = ev[np.argsort(np.abs(ev - lam_c))[:2]]
        s1, s2 = eval_truncated_series(pp, eps)
        err = min(max(abs(pair[0] - s1), abs(pair[1] - s2)),
                  max(abs(pair[0] - s2), abs(pair[1] - s1)))
        mags.append(mag)
        resid.append(err)
    slope = np.polyfit(np.log(mags), np.log(resid), 1)[0]
    assert 1.3 <= slope <= 1.7


def test_eval_truncated_series_at_zero():
    pp = puiseux_ab_from_t(_points(5)[0])
    lam1, lam2 = eval_truncated_series(pp, 0.0)
    assert lam1 == lam2 == -5.0


def test_sin_mu_c_floor_follows_the_rounding_of_mu_c():
    # the floor eigenvector_of_mu uses: |sin mu_c| = 0.42 passes, 3 pi does not
    point = _points(7)[0]
    bundle = derivatives_at_critical(dataclasses.replace(point, mu_c=1e13 + 0.3j))
    assert all(map(cmath.isfinite, vars(bundle).values()))
    with pytest.raises(DegenerateArgument, match=r"^sin\(mu_c\) ~ 0"):
        derivatives_at_critical(dataclasses.replace(point, mu_c=complex(3 * math.pi)))


def test_hypothesis_violations():
    d = DerivativeBundle(lambda_c_p=0.0, lambda_c_pp=1.0,
                         rho_c_pp=1.0, rho_c_ppp=1.0)
    with pytest.raises(HypothesisViolation):
        puiseux_from_derivatives(-4.0, d)
    with pytest.raises(HypothesisViolation):
        puiseux_from_derivatives(0.0, DerivativeBundle(1.0, 1.0, 1.0, 1.0))
