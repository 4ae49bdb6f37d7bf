"""The invariant battery that `kmsbif verify` prints, one function per check.

Each check returns its worst residual, or raises KmsBifError:

- chebyshev_identities(rng): the Pell identity (z^2 - 1) U_{k-1}^2 =
  T_k^2 - 1 and the three-term recurrence, relative to |T_k(z)| + 1, at 200
  drawn k in 1..39 and z with |Re z|, |Im z| <= 2;
- mu_parameterization(rng, n_max): the distance from lambda(mu) to the
  spectrum of its type block at rho(mu), both types, at 40 drawn n in
  3..n_max and mu;
- critical_double_eigenvalue(points): the second gap the catalog gate
  measured at each point, over n (nothing is solved again);
- rho_prime_vanishes(points): |rho'(mu_c)|;
- route_equivalence(points): the relative distance between the closed-form
  and the derivative-chain a (up to sign) and b;
- isotropy(points): |v^T v| / |v|^2 for the eigenvector v at mu_c;
- imaginary_family(n_max): the relative residual of cosh(n v_n) =
  n cosh(v_n) at the odd n = 3..2 n_max + 1; HypothesisViolation where
  c_n >= 0 or a_n does not increase;
- trace_identity(rng, n_max): |sum of both type blocks' eigenvalues - n| / n
  at 20 drawn n in 3..n_max and rho: the two spectra make up K_n(rho)'s.

BATTERY lists (name, check, gate, detail) in verify's order.
run_battery(n_max) runs it and returns verify's rows, (status, name,
residual, gate, detail).  Its draws come from one random.Random(20240901),
the standard library's generator, which keeps numpy.random (about 6 MiB of
RSS) out of the process, so the rows repeat byte for byte.  It builds the
catalog of n = 3..n_max once, for the four catalog checks, and a build
that raises fails each of them; a check that raises KmsBifError fails its
row with an inf residual.

checks is on the oracle side of the design rule: it imports the oracle and
the formula modules, and no formula module imports it.  It calls every
kmsbif function as an attribute of its module, never through a name bound
by `from ... import`, so that a patched module attribute (a test's
monkeypatch, the benchmark's tracer) is the one that runs.
"""

import math
import random

import numpy as np

from . import chebyshev, critical, errors, imag_axis, kms, oracle, puiseux


def chebyshev_identities(rng: random.Random) -> float:
    worst = 0.0
    for _ in range(200):
        k, z = rng.randrange(1, 40), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pell = (z * z - 1) * chebyshev.cheb_u(k - 1, z) ** 2 - (chebyshev.cheb_t(k, z) ** 2 - 1)
        rec = chebyshev.cheb_t(k, z) - (2 * z * chebyshev.cheb_t(k + 1, z)
                                        - chebyshev.cheb_t(k + 2, z))
        ref = abs(chebyshev.cheb_t(k, z)) + 1.0
        worst = max(worst, abs(pell) / ref ** 2, abs(rec) / ref)
    return worst


def mu_parameterization(rng: random.Random, n_max: int) -> float:
    worst = 0.0
    for _ in range(40):
        n = rng.randrange(3, n_max + 1)
        mu = complex(rng.uniform(0.2, 2.8), rng.uniform(-0.4, 0.4))
        for et in kms.EigType:
            lam = kms.lambda_of_mu(n, mu, et)
            ev = oracle._eigvals(oracle.type_blocks(n, kms.rho_of_mu(n, mu, et), et))
            worst = max(worst, float(np.min(np.abs(ev - lam))))
    return worst


def critical_double_eigenvalue(points: list) -> float:
    gaps = [kms._finite_real(p.gate_gap, "gate_gap") / kms._finite_real(p.n, "n") for p in points]
    return max([0.0] + gaps)


def rho_prime_vanishes(points: list) -> float:
    return max([0.0] + [abs(kms.rho_prime_of_mu(p.n, p.mu_c, p.eig_type)) for p in points])


def route_equivalence(points: list) -> float:
    worst = [0.0]
    for p in points:
        pp_t = puiseux.puiseux_ab_from_t(p)
        pp_m = puiseux.puiseux_from_derivatives(p.lambda_c, puiseux.derivatives_at_critical(p))
        da = min(abs(pp_t.a - pp_m.a), abs(pp_t.a + pp_m.a)) / abs(pp_t.a)
        worst.append(max(da, abs(pp_t.b - pp_m.b) / max(abs(pp_t.b), 1e-30)))
    return max(worst)


def isotropy(points: list) -> float:
    vs = [kms.eigenvector_of_mu(p.n, p.mu_c, p.eig_type) for p in points]
    return max([0.0] + [abs(kms.isotropy_defect(v)) / float(np.sum(np.abs(v) ** 2)) for v in vs])


def imaginary_family(n_max: int) -> float:
    worst, prev_a = 0.0, 0.0
    for n in range(3, 2 * n_max + 2, 2):
        par = imag_axis.imag_axis_params(n)
        res = abs(math.cosh(n * par.v_n) - n * math.cosh(par.v_n)) / (n * math.cosh(par.v_n))
        worst = max(worst, res)
        if par.c_n >= 0.0 or par.a_n <= prev_a:
            raise errors.HypothesisViolation(f"c_n sign or a_n monotonicity broke at n = {n}")
        prev_a = par.a_n
    return worst


def trace_identity(rng: random.Random, n_max: int) -> float:
    worst = 0.0
    for _ in range(20):
        n, rho = rng.randrange(3, n_max + 1), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ev = np.concatenate([oracle._eigvals(oracle.type_blocks(n, rho, et))
                             for et in kms.EigType])
        worst = max(worst, abs(complex(np.sum(ev)) - n) / n)
    return worst


BATTERY = (  # run in this order: the draws are seeded
    ("chebyshev-identities", chebyshev_identities, 1e-10, "Pell + recurrence on 200 seeded draws"),
    ("mu-parameterization", mu_parameterization, 1e-8, "lambda(mu) sits in the oracle spectrum"),
    ("critical-double-eigenvalue", critical_double_eigenvalue, oracle.GATE_RADIUS,
     "double eigenvalue -n at every catalog point"),
    ("rho-prime-vanishes", rho_prime_vanishes, 1e-8, "rho'(mu_c) = 0"),
    ("route-equivalence", route_equivalence, 1e-9, "closed-form vs derivative-chain parameters"),
    ("isotropy", isotropy, 1e-10, "critical eigenvectors are isotropic"),
    ("imaginary-family", imaginary_family, 1e-11, "defining residuals, c_n < 0, a_n increasing"),
    ("trace-identity", trace_identity, 1e-9, "sum of eigenvalues = n"),
)
CATALOG_CHECKS = (critical_double_eigenvalue, rho_prime_vanishes, route_equivalence, isotropy)


def run_battery(n_max: int) -> list:
    rng = random.Random(20240901)
    inputs = {chebyshev_identities: (rng,), mu_parameterization: (rng, n_max),
              imaginary_family: (n_max,), trace_identity: (rng, n_max)}
    try:
        points = [p for n in range(3, n_max + 1) for p in critical.all_critical_points(n)]
        inputs.update(dict.fromkeys(CATALOG_CHECKS, (points,)))
    except errors.KmsBifError as exc:
        build_error = exc
    rows = []
    for name, check, gate, detail in BATTERY:
        try:
            if check not in inputs:  # a catalog check whose catalog did not build
                raise build_error
            value = check(*inputs[check])
            ok = value <= gate
        except errors.KmsBifError as exc:  # a raised invariant is a failure, not a crash
            value, detail, ok = math.inf, f"raised {exc!r}", False
        rows.append(("PASS" if ok else "FAIL", name, value, gate, detail.replace(",", ";")))
    return rows
