"""verify's invariants called one at a time, as kmsbif.checks gives them: each
catalog check at a named n, each drawn check on a seeded generator, and the
battery's rows against the rows `kmsbif verify` prints."""

import ast
import dataclasses
import random
from pathlib import Path

import pytest

from kmsbif import checks, critical
from kmsbif.cli import main

_GATES = {check: gate for _, check, gate, _ in checks.BATTERY}
_IDS = {check: name for name, check, _, _ in checks.BATTERY}


@pytest.mark.parametrize("check", checks.CATALOG_CHECKS, ids=_IDS.get)
@pytest.mark.parametrize("n", [8, 19, 64])
def test_catalog_check_holds_at_a_named_n(check, n):
    assert 0.0 <= check(critical.all_critical_points(n)) <= _GATES[check]


@pytest.mark.parametrize("check", checks.CATALOG_CHECKS, ids=_IDS.get)
def test_catalog_check_reads_the_worst_point(check):
    # a point moved off mu_c, with a wide gap, is not a critical point; the
    # check reads it past its gate, whatever its place in the list
    point = critical.all_critical_points(8)[0]
    moved = dataclasses.replace(point, mu_c=point.mu_c + 1e-3, gate_gap=1.0)
    assert check([point]) <= _GATES[check] < check([point, moved]) == check([moved, point])
    assert check([]) == 0.0


@pytest.mark.parametrize("check, args", [
    (checks.chebyshev_identities, ()),
    (checks.mu_parameterization, (8,)),
    (checks.trace_identity, (8,)),
], ids=["chebyshev-identities", "mu-parameterization", "trace-identity"])
def test_drawn_check_holds_and_repeats_on_a_seeded_generator(check, args):
    value = check(random.Random(1), *args)
    assert 0.0 < value <= _GATES[check]
    assert check(random.Random(1), *args) == value


def test_imaginary_family_holds_for_a_small_n_max():
    assert 0.0 < checks.imaginary_family(6) <= _GATES[checks.imaginary_family]


def test_battery_rows_are_the_rows_verify_prints(capsys):
    rows = checks.run_battery(6)
    assert main(["verify", "--n-max", "6"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert lines[0] == "status,check,residual,tol,detail"
    assert [line.split(",") for line in lines[1:]] == [
        [status, name, f"{value:.17g}", f"{gate:.17g}", detail]
        for status, name, value, gate, detail in rows]
    assert [row[1] for row in rows] == [name for name, _, _, _ in checks.BATTERY]


def test_checks_reaches_kmsbif_through_module_attributes():
    # `from . import kms` only: the tracer and the tests patch module attributes,
    # which a name bound by `from .kms import rho_of_mu` would not see
    tree = ast.parse(Path(checks.__file__).read_text())
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1] == [None]
