"""Unit tests for Chebyshev evaluation (integer degrees)."""

import cmath
import math

import numpy as np
import pytest

from kmsbif.chebyshev import cheb_t, cheb_t_log, cheb_u
from kmsbif.critical import rho_c_of_t
from kmsbif.errors import DomainError
from kmsbif.kms import EigType


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def test_low_degree_values():
    z = 0.37 - 1.2j
    assert cheb_t(0, z) == 1.0
    assert cheb_t(1, z) == z
    assert _rel(cheb_t(2, z), 2 * z * z - 1) < 1e-15
    assert cheb_u(0, z) == 1.0
    assert _rel(cheb_u(1, z), 2 * z) < 1e-15
    assert cheb_u(-1, z) == 0.0


def test_values_at_one():
    for k in range(0, 40):
        assert cheb_t(k, 1.0) == 1.0
        assert cheb_u(k, 1.0) == k + 1
        assert cheb_t(k, -1.0) == (-1.0) ** k
        assert cheb_u(k, -1.0) == (-1.0) ** k * (k + 1)


def test_recurrence_property():
    rng = np.random.default_rng(101)
    for _ in range(300):
        k = int(rng.integers(0, 58))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = cheb_t(k, z)
        rhs = 2 * z * cheb_t(k + 1, z) - cheb_t(k + 2, z)
        assert _rel(lhs, rhs) < 1e-10


def test_doubling_property():
    rng = np.random.default_rng(102)
    for _ in range(300):
        k = int(rng.integers(0, 30))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert _rel(cheb_t(2 * k, z), 2 * cheb_t(k, z) ** 2 - 1) < 1e-10


def test_pell_property():
    rng = np.random.default_rng(103)
    for _ in range(300):
        k = int(rng.integers(1, 60))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = (z * z - 1) * cheb_u(k - 1, z) ** 2
        rhs = cheb_t(k, z) ** 2 - 1
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-10


def test_parity_property():
    rng = np.random.default_rng(104)
    for _ in range(200):
        k = int(rng.integers(0, 30))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert _rel(cheb_u(2 * k, -z), cheb_u(2 * k, z)) < 1e-12


def test_derivative_against_central_differences():
    # dT_k/dz = k U_{k-1}; plain central differences, so only ~1e-6 accuracy
    rng = np.random.default_rng(105)
    h = 1e-6
    for _ in range(100):
        k = int(rng.integers(1, 25))
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.5, 0.5))
        fd = (cheb_t(k, z + h) - cheb_t(k, z - h)) / (2 * h)
        assert _rel(fd, k * cheb_u(k - 1, z)) < 1e-6


def test_argument_swap_properties():
    # U_k and T_k at sqrt(1 - z^2), both parities, fixed principal branch
    rng = np.random.default_rng(106)
    for _ in range(200):
        k = int(rng.integers(0, 40))
        z = complex(rng.uniform(0.3, 1.8), rng.uniform(-1.0, 1.0))
        w = cmath.sqrt(1 - z * z)
        if k % 2 == 0:
            u_rhs = (-1) ** (k // 2) * cheb_t(k + 1, z) / z
            t_rhs = (-1) ** (k // 2) * cheb_t(k, z)
        else:
            u_rhs = (-1) ** ((k - 1) // 2) * w / z * cheb_u(k, z)
            t_rhs = (-1) ** ((k - 1) // 2) * w * cheb_u(k - 1, z)
        assert _rel(cheb_u(k, w), u_rhs) < 1e-10
        assert _rel(cheb_t(k, w), t_rhs) < 1e-10


def test_growth_for_x_above_one():
    rng = np.random.default_rng(107)
    for _ in range(100):
        k = int(rng.integers(1, 60))
        x = float(rng.uniform(1.0 + 1e-9, 5.0))
        assert cheb_u(k, x) > k + 1
        assert cheb_t(k, x) > 1.0


def test_hyperbolic_routing_matches_recurrence():
    # a real |x| > 1 runs the real recurrence; it matches cosh(k arccosh |x|) and
    # the complex recurrence at the same point
    for k in (3, 10, 41):
        for x in (1.5, 2.0, -1.7):
            via_real = cheb_t(k, x)
            via_complex = cheb_t(k, complex(x))
            assert isinstance(via_real, float)
            assert _rel(via_real, via_complex) < 1e-12
            assert abs(via_complex.imag) < 1e-9 * abs(via_complex)
            hyperbolic = math.copysign(1.0, x) ** k * math.cosh(k * math.acosh(abs(x)))
            assert _rel(via_real, hyperbolic) < 1e-12


def test_overflow_raises_domain_error():
    # past double precision: a typed error, never a NaN or a bare OverflowError
    for overflow in (lambda: cheb_t(1000, 3.0),
                     lambda: cheb_u(1000, 2 + 2j),
                     lambda: rho_c_of_t(1001, 3 + 0j, EigType.Type2),   # T recurrence
                     lambda: rho_c_of_t(1000, 3 + 0j, EigType.Type2)):  # cos(k mu)
        with pytest.raises(DomainError):
            overflow()


def test_cheb_t_log():
    for k, x in ((5, 2.0), (20, 1.5), (60, 3.0)):
        assert abs(cheb_t_log(k, x) - math.log(cheb_t(k, x))) < 1e-12
    for bad in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            cheb_t_log(3, bad)
    # degrees as cheb_t takes them, and a typed error once the log overflows
    for k, x in ((3.5, 2.0), (-2, 2.0), (10 ** 400, 2.0), (10 ** 308, 1e10)):
        with pytest.raises(DomainError):
            cheb_t_log(k, x)
    assert cheb_t_log(0, 2.0) == 0.0 and cheb_t_log(np.int64(5), 2.0) == cheb_t_log(5, 2.0)


def test_degree_validation():
    # integer degrees only: k >= 0 for T, k >= -1 for U
    for bad in (3.5, 0.3, -1, 3.0):
        with pytest.raises(DomainError):
            cheb_t(bad, 1.0 + 0j)
    for bad in (3.5, 0.3, -2):
        with pytest.raises(DomainError):
            cheb_u(bad, 1.0 + 0j)
    assert cheb_u(-1, 0.5) == 0.0 and cheb_u(np.int64(4), 1.0) == 5.0


def test_half_integer_float_degree_rejected():
    # half-integer degrees are not Chebyshev polynomials here: the even-n
    # critical ratio evaluates them in place from mu (see critical.rho_c_of_t)
    z = 0.3 + 0.4j
    for bad in (3.5, np.float64(3.5), 7 / 2, 0.5):
        for fn in (cheb_t, cheb_u):
            with pytest.raises(DomainError, match="integer"):
                fn(bad, z)
