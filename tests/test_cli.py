"""End-to-end tests of the command-line interface (in-process, and one fresh interpreter)."""

import argparse
import cmath
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kmsbif import critical, imag_axis, oracle, puiseux
from kmsbif.cli import _build_parser, _render_svg, main
from kmsbif.errors import RootFindingFailure
from kmsbif.imag_axis import imag_axis_params
from kmsbif.kms import EigType


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    meta, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# exit codes


# sampling flags that no subcommand takes: README's "Command line" states the
# fixed values.  Each usage-error case below carries its own test id, so that
# removing one case renames no other.
_FIXED_FLAGS = {
    "argv18": ["level-curve", "--n", "8", "--window", "0.8"],
    "argv19": ["level-curve", "--n", "8", "--grid", "161"],
    "argv20": ["trajectory", "--n", "8", "--d-max", "0.02"],
    "argv21": ["trajectory", "--n", "8", "--grid", "81"],
    "argv22": ["figure", "1", "--window", "0.8"],
    "argv23": ["figure", "1", "--grid", "96"],
    "argv24": ["figure", "6", "--n-max", "50"],
}


@pytest.mark.parametrize("argv", [
    pytest.param(["critical-points", "--n", "2"], id="argv0"),
    pytest.param(["critical-points", "--n", "x"], id="argv1"),  # not an integer at all
    pytest.param(["no-such-command"], id="argv2"),
    pytest.param(["critical-points", "--n", "5", "--type", "3"], id="argv3"),
    pytest.param(["critical-points", "--n", "5", "--tol", "0"], id="argv4"),
    pytest.param(["level-curve"], id="argv5"),
    pytest.param([], id="argv6"),
    # bad numbers are usage errors, never a crash or a silent default
    pytest.param(["verify", "--n-max", "2"], id="argv7"),
    pytest.param(["verify", "--n-max", "0"], id="argv8"),
    pytest.param(["large-n", "--n", "19", "2"], id="argv9"),
    pytest.param(["puiseux", "--n", "4", "--index", "x"], id="argv10"),
    pytest.param(["trajectory", "--n", "4", "--tol", "nan"], id="argv11"),
    pytest.param(["figure", "10"], id="argv12"),
    # each subcommand takes only the flags and formats it uses
    pytest.param(["critical-points", "--n", "5", "--format", "svg"], id="argv13"),
    pytest.param(["puiseux", "--n", "4", "--tol", "1e-3"], id="argv14"),
    # --tol is a gate, and verify's gates are its own
    pytest.param(["verify", "--tol", "2"], id="argv15"),
    pytest.param(["figure", "2", "--format", "json"], id="argv16"),
    pytest.param(["critical-points", "--n", "5", "--index", "0"], id="argv17"),
    *(pytest.param(argv, id=name) for name, argv in _FIXED_FLAGS.items()),
])
def test_usage_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count(": error: ") == 1
    if argv in _FIXED_FLAGS.values():
        assert err.endswith(f"kmsbif: error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_computation_errors_return_two(capsys):
    code, _, err = run(capsys, "imaginary", "--n", "6")
    assert code == 2
    assert "odd" in err
    code, _, err = run(capsys, "puiseux", "--n", "4", "--index", "99")
    assert code == 2
    assert "out of range" in err
    code, _, err = run(capsys, "large-n", "--n", "19", "4")
    assert code == 2
    # an odd n past the imaginary family's range: a typed error, not a traceback
    for command in ("imaginary", "large-n"):
        for n in (5201, 10 ** 80 + 1, 10 ** 160 + 1):
            code, _, err = run(capsys, command, "--n", str(n))
            assert code == 2
            assert err == "kmsbif: need an integer n with 3 <= n <= 5199\n"
    # a residual above --tol fails the command, with one stderr line
    code, _, err = run(capsys, "trajectory", "--n", "8", "--type", "1", "--tol", "1e-12")
    assert code == 2
    assert err.startswith("kmsbif: trajectory residual ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["critical-points", "--n", "4", "--out", "{missing}/x.csv"], id="argv0"),
    # --out names a file, not a directory
    pytest.param(["figure", "6", "--out", "{file}"], id="argv1"),
])
def test_unwritable_out_returns_one(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(missing=tmp_path / "missing", file=tmp_path / "file") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("kmsbif: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _no_catalog(n):
    raise AssertionError("catalog computed")


@pytest.mark.parametrize("argv", [
    pytest.param(["critical-points", "--n", "128", "--out", "{missing}/x.csv"], id="argv0"),
    # a directory, not a file
    pytest.param(["critical-points", "--n", "128", "--out", "{dir}"], id="argv1"),
    # a file as the parent directory
    pytest.param(["puiseux", "--n", "128", "--out", "{file}/x.csv"], id="argv2"),
    pytest.param(["figure", "1", "--out", "{file}"], id="argv3"),
    pytest.param(["figure", "1", "--out", "{file}/sub"], id="argv4"),
])
def test_unwritable_out_fails_before_computing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(critical, "all_critical_points", _no_catalog)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    names = dict(missing=tmp_path / "missing", dir=tmp_path / "dir", file=tmp_path / "file")
    code, out, err = run(capsys, *[a.format(**names) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("kmsbif: cannot write output: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["dir", "file"]
    assert os.listdir(tmp_path / "dir") == []
    assert (tmp_path / "file").read_text() == "kept"


def test_unwritable_figure_directory_fails_before_computing(tmp_path, capsys, monkeypatch):
    # os.access stands in for a directory without write permission, which a
    # test run as root cannot make
    monkeypatch.setattr(critical, "all_critical_points", _no_catalog)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    code, out, err = run(capsys, "figure", "1", "--out", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"kmsbif: cannot write output: [Errno 13] Permission denied: '{tmp_path}'\n"
    assert os.listdir(tmp_path) == []


def test_checked_out_leaves_no_file_when_the_computation_fails(tmp_path, capsys, monkeypatch):
    def failing(n):
        raise RootFindingFailure("planted")

    monkeypatch.setattr(critical, "all_critical_points", failing)
    code, _, err = run(capsys, "critical-points", "--n", "8", "--out", str(tmp_path / "x.csv"))
    assert code == 2 and err == "kmsbif: planted\n"
    assert os.listdir(tmp_path) == []
    code, _, err = run(capsys, "figure", "1", "--out", str(tmp_path / "a" / "b"))
    assert code == 2 and err == "kmsbif: planted\n"
    assert os.listdir(tmp_path / "a" / "b") == []  # the directory is made first


@pytest.mark.parametrize("argv", [
    # an empty catalog has no point to pick: type 1 at n = 3
    pytest.param(["level-curve", "--n", "3", "--type", "1"], id="argv0"),
    pytest.param(["trajectory", "--n", "3", "--type", "1"], id="argv1"),
    pytest.param(["puiseux", "--n", "3", "--type", "1", "--index", "0"], id="argv2"),
])
def test_pick_from_empty_catalog_returns_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "kmsbif: no type-1 critical points at n = 3\n"


def test_empty_catalog_table_returns_zero(capsys):
    code, out, err = run(capsys, "puiseux", "--n", "3", "--type", "1")
    assert code == 0
    assert err == ""
    meta, header, rows = parse_csv(out)
    assert header[:3] == ["n", "type", "index"]
    assert rows == []


def test_success_returns_zero(capsys):
    code, out, err = run(capsys, "critical-points", "--n", "5")
    assert code == 0
    assert err == ""
    assert out


def test_library_warning_is_one_stderr_line(capsys):
    before = warnings.showwarning
    code, out, err = run(capsys, "level-curve", "--n", "8")
    assert code == 0 and out
    assert err == "kmsbif: warning: 51 level-curve samples outside validity region dropped\n"
    assert warnings.showwarning is before
    # the warning filters still apply: -W error turns the warning into an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="51 level-curve samples"):
            main(["level-curve", "--n", "8"])
    assert capsys.readouterr().err == ""


def test_every_library_warning_is_printed(tmp_path, capsys):
    # figure 1 traces two level curves, and each drops samples: two warnings
    # with the same text from the same line, and both are printed
    code, _, err = run(capsys, "figure", "1", "--out", str(tmp_path))
    assert code == 0
    assert err == "kmsbif: warning: 90 level-curve samples outside validity region dropped\n" * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="90 level-curve samples"):
            main(["figure", "1", "--out", str(tmp_path)])
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# output formats


def test_csv_shape(capsys):
    _, out, _ = run(capsys, "critical-points", "--n", "3")
    meta, header, rows = parse_csv(out)
    assert meta and all(m.startswith("# ") for m in meta)
    assert header == ["n", "type", "re_t_c", "im_t_c", "re_mu_c", "im_mu_c",
                      "re_rho_c", "im_rho_c", "oracle_gap"]
    assert len(rows) == 2          # K_3 has the two type-2 points +/- i sqrt(8)
    heights = sorted(float(r[7]) for r in rows)
    assert heights[0] == pytest.approx(-math.sqrt(8.0), abs=1e-12)
    assert heights[1] == pytest.approx(math.sqrt(8.0), abs=1e-12)
    for r in rows:
        assert r[1] == "2"
        assert float(r[6]) == pytest.approx(0.0, abs=1e-12)
        assert float(r[8]) < 1e-5  # oracle gap at the collision


@pytest.mark.parametrize("argv", [
    ["critical-points", "--n", "5"],
    ["verify", "--n-max", "6"],  # seeded draws: the sampled checks repeat exactly
], ids=["critical-points", "verify"])
def test_byte_determinism(tmp_path, capsys, argv):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_json_mirror(capsys):
    _, out_csv, _ = run(capsys, "puiseux", "--n", "4")
    _, out_json, _ = run(capsys, "puiseux", "--n", "4", "--format", "json")
    doc = json.loads(out_json)
    assert set(doc) == {"meta", "columns", "rows"}
    _, header, rows = parse_csv(out_csv)
    assert doc["columns"] == header
    assert len(doc["rows"]) == len(rows)
    for jrow, crow in zip(doc["rows"], rows):
        for jval, cval in zip(jrow, crow):
            assert float(jval) == pytest.approx(float(cval), rel=1e-15)


def test_svg_smoke(capsys):
    _, out, _ = run(capsys, "level-curve", "--n", "4", "--type", "2",
                    "--format", "svg")
    assert out.startswith("<svg")
    assert "<polyline" in out
    assert out.rstrip().endswith("</svg>")


def test_svg_draws_each_piece_of_a_broken_curve():
    # a NaN row breaks a curve: both pieces get their own polyline in the
    # curve's colour, and the NaN neither shows up nor spoils the bounds
    def polylines(rows):
        svg = _render_svg([(rows, (0, 1), False), ([(0.0, 1.0), (3.0, 0.0)], (0, 1), True)],
                          {})
        assert "nan" not in svg
        return [line for line in svg.splitlines() if line.startswith("<polyline")]

    rows = [(0.0, 0.0), (1.0, 1.0), (math.nan, math.nan), (2.0, 0.0), (3.0, 1.0)]
    broken, whole = polylines(rows), polylines(rows[:2] + rows[3:])
    assert len(broken) == 3 and len(whole) == 2
    points = [line.split('"')[1] for line in broken]
    assert " ".join(points[:2]) == whole[0].split('"')[1]
    assert broken[0].split('"', 2)[2] == broken[1].split('"', 2)[2] == whole[0].split('"', 2)[2]
    assert broken[2] == whole[1]


def test_svg_of_no_finite_point_is_an_empty_drawing():
    # no command reaches this (a level curve keeps its cusp sample), but a
    # series of break rows alone has no bounds to scale to
    empty = '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
    assert _render_svg([], {}) == empty
    assert _render_svg([([(math.nan, math.nan)], (0, 1), False)], {"n": 3}) == empty


# ---------------------------------------------------------------------------
# content spot checks


def test_imaginary_values(capsys):
    _, out, _ = run(capsys, "imaginary", "--n", "19")
    _, header, rows = parse_csv(out)
    assert header == ["n", "type", "v_n", "x_n", "y_n", "a_n", "b_n", "c_n"]
    (row,) = rows
    p = imag_axis_params(19)
    assert int(row[0]) == 19 and int(row[1]) == p.eig_type.value
    for got, want in zip(row[2:], (p.v_n, p.x_n, p.y_n, p.a_n, p.b_n, p.c_n)):
        assert float(got) == pytest.approx(want, rel=1e-15)


def test_large_n_table(capsys):
    _, out, _ = run(capsys, "large-n", "--n", "19", "55")
    _, header, rows = parse_csv(out)
    assert header[0] == "n" and "err_y_pct" in header and len(rows) == 2
    err_y = {int(r[0]): float(r[header.index("err_y_pct")]) for r in rows}
    assert err_y[19] == pytest.approx(5.245, abs=0.05)
    assert err_y[55] == pytest.approx(1.810, abs=0.05)
    err_a = {int(r[0]): float(r[header.index("err_a_pct")]) for r in rows}
    assert err_a[19] == pytest.approx(0.392, abs=0.01)
    assert err_a[55] < err_a[19]      # shrinking in n


def test_trajectory_columns(capsys):
    _, out, _ = run(capsys, "trajectory", "--n", "4", "--type", "2")
    _, header, rows = parse_csv(out)
    assert header[0] == "d" and "residual" in header
    assert len(rows) == 81
    assert [float(rows[i][0]) for i in (0, 40, 80)] == [-0.02, 0.0, 0.02]
    worst = max(float(r[header.index("residual")]) for r in rows)
    assert worst < 5e-3


def _bisector_rho(n, eig_type, pick):
    """rho(d) = rho_c + d e^(-2i theta_a) about the catalog point pick(points of eig_type)."""
    point = pick([p for p in critical.all_critical_points(n) if p.eig_type is eig_type])
    direction = cmath.exp(-2j * puiseux.puiseux_ab_from_t(point).theta_a)
    return lambda d: point.rho_c + d * direction


def _nearest(target):
    return lambda points: min(points, key=lambda p: abs(p.rho_c - target))


_Y19 = imag_axis_params(19).y_n
_PAIR = ["oracle_re_plus", "oracle_re_minus", "oracle_im_plus", "oracle_im_minus"]


# argv, the output file (None: stdout), n, rho at a row's d, and the pair's
# columns (re_plus, re_minus, im_plus, im_minus); the figures' points are
# those their builders pick
@pytest.mark.parametrize("argv, name, n, rho, columns", [
    (["figure", "4"], "fig4_oracle.csv", 4,
     _bisector_rho(4, EigType.Type2, _nearest(1 + 2j)), _PAIR),
    (["figure", "5"], "fig5_oracle.csv", 8,
     _bisector_rho(8, EigType.Type1, _nearest(0.922 - 1.29j)), _PAIR),
    (["figure", "7"], "fig7_oracle.csv", 19,
     lambda d: 1j * _Y19 + d * cmath.exp(-2j * imag_axis.THETA_A_IMAG), _PAIR),
    (["figure", "9"], "fig9_oracle.csv", 19,
     lambda d: 1j * (_Y19 + d), ["chi_plus", "chi_minus", "psi_plus", "psi_minus"]),
    (["trajectory", "--n", "8", "--type", "1"], None, 8,
     _bisector_rho(8, EigType.Type1, lambda points: points[0]), _PAIR),
], ids=["figure-4", "figure-5", "figure-7", "figure-9", "trajectory-n8-type1"])
def test_trajectory_pair_matches_the_dense_spectrum(tmp_path, capsys, argv, name, n, rho,
                                                    columns):
    # the oracle pair comes from the colliding type's block; at every row it
    # is the pair of the whole K_n(rho) nearest -n, in (plus, minus) order
    code, out, _ = run(capsys, *argv, *(["--out", str(tmp_path)] if name else []))
    assert code == 0
    _, header, rows = parse_csv((tmp_path / name).read_text() if name else out)
    cols = [header.index(c) for c in columns]
    assert len(rows) >= 41
    for row in rows:
        d = float(row[0])
        ev = oracle.kms_spectrum(n, rho(d))
        pair = ev[np.argsort(np.abs(ev + n))[:2]] / -n
        plus, minus = sorted(pair, key=lambda z: -z.imag if d <= 0 else -z.real)
        want = [plus.real, minus.real, plus.imag, minus.imag]
        got = [float(row[i]) for i in cols]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-6, (d, got, want)


def test_tol_gate(capsys):
    code, *_ = run(capsys, "critical-points", "--n", "4", "--tol", "1e-3")
    assert code == 0
    code, _, err = run(capsys, "critical-points", "--n", "4", "--tol", "1e-12")
    assert code == 2
    assert "exceeds" in err


# ---------------------------------------------------------------------------
# figures


def test_figure_six(tmp_path, capsys):
    code = main(["figure", "6", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    text = (tmp_path / "fig6_params.csv").read_text()
    _, header, rows = parse_csv(text)
    assert [int(r[0]) for r in rows] == list(range(3, 50, 2))
    c_col = header.index("c_n")
    assert all(float(r[c_col]) < 0.0 for r in rows)


def test_figure_nine(tmp_path, capsys):
    code = main(["figure", "9", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    text = (tmp_path / "fig9_parabola.csv").read_text()
    _, header, rows = parse_csv(text)
    assert header == ["chi", "psi_plus", "psi_minus"]
    assert rows[0] == ["1", "0", "-0"]  # the vertex, where the pair collides
    oracle = (tmp_path / "fig9_oracle.csv").read_text()
    _, oh, orows = parse_csv(oracle)
    assert oh[0] == "d" and len(orows) == 41


_LEVEL = ["theta", "eps_mag", "re_rho", "im_rho"]
_RAY = ["dist", "re_rho", "im_rho"]
_FORMULA = ["d", "re_plus", "re_minus", "im_plus", "im_minus", "mag_plus", "mag_minus"]
_ORACLE = ["d", "oracle_re_plus", "oracle_re_minus", "oracle_im_plus", "oracle_im_minus",
           "oracle_mag_plus", "oracle_mag_minus", "residual"]

# figure -> {curve: (CSV header, dashed in the SVG)}, in drawing order
FIGURE_CURVES = {
    1: {"borderline_type1": (_LEVEL, False), "borderline_type2": (_LEVEL, False),
        "level_plus": (_LEVEL, True), "level_minus": (_LEVEL, True)},
    2: {"borderline": (_LEVEL, False), "level": (_LEVEL, True), "bisector": (_RAY, False)},
    3: {"borderline": (_LEVEL, False), "level": (_LEVEL, True), "bisector": (_RAY, False)},
    4: {"formula": (_FORMULA, True), "oracle": (_ORACLE, False)},
    5: {"formula": (_FORMULA, True), "oracle": (_ORACLE, False)},
    6: {"params": (["n", "a_n", "b_n", "c_n"], False)},
    7: {"formula": (_FORMULA, True), "oracle": (_ORACLE, False)},
    8: {"level": (_LEVEL, True), "borderline": (_LEVEL, False), "bisector": (_RAY, False)},
    9: {"parabola": (["chi", "psi_plus", "psi_minus"], True),
        "oracle": (["d", "chi_plus", "chi_minus", "psi_plus", "psi_minus"], False)},
}


@pytest.mark.parametrize("fig", sorted(FIGURE_CURVES))
def test_figure_files(fig, tmp_path, capsys):
    code = main(["figure", str(fig), "--format", "svg", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    curves = FIGURE_CURVES[fig]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"fig{fig}_{name}.csv" for name in curves] + [f"fig{fig}.svg"])
    expected = []  # one SVG polyline per piece; a NaN row separates pieces
    for name, (header, dashed) in curves.items():
        meta, got, rows = parse_csv((tmp_path / f"fig{fig}_{name}.csv").read_text())
        assert f"# fig: {fig}" in meta
        assert got == header, name
        assert rows, name
        expected += [dashed] * (1 + sum(row[0] == "nan" for row in rows))
    svg = (tmp_path / f"fig{fig}.svg").read_text()
    assert "nan" not in svg
    polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
    assert ["stroke-dasharray" in line for line in polylines] == expected


def test_borderline_csv_polar_columns_match_rho(tmp_path, capsys):
    # theta and eps_mag are the phase and modulus of rho = re_rho + i im_rho,
    # bit for bit, since %.17g round-trips every double
    assert main(["figure", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("borderline_type1", "borderline_type2"):
        _, header, rows = parse_csv((tmp_path / f"fig1_{name}.csv").read_text())
        assert header == _LEVEL
        points = [[float(v) for v in row] for row in rows if row[0] != "nan"]
        assert len(points) > 50
        for theta, eps_mag, re_rho, im_rho in points:
            rho = complex(re_rho, im_rho)
            assert (theta, eps_mag) == (cmath.phase(rho), abs(rho)), name


# ---------------------------------------------------------------------------
# verify battery


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "6")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[:2] == ["status", "check"]
    assert len(rows) == 8
    assert all(r[0] == "PASS" for r in rows)
    names = {r[1] for r in rows}
    assert "route-equivalence" in names and "chebyshev-identities" in names
    # the double-eigenvalue check reads the catalog gate's radius
    gap = next(r for r in rows if r[1] == "critical-double-eigenvalue")
    assert float(gap[3]) == oracle.GATE_RADIUS


def test_verify_leaves_numpy_random_unloaded():
    # numpy.random adds about 6 MiB of RSS; a fresh interpreter shows whether it loads
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, kmsbif, kmsbif.cli\n"
            "assert kmsbif.cli.main(['verify', '--n-max', '6']) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _strict_json(text):
    """json.loads that rejects the Infinity, -Infinity and NaN that RFC 8259 forbids."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_verify_fails_a_broken_imaginary_family_row(capsys, monkeypatch):
    # a c_n of the wrong sign raises HypothesisViolation, which fails its row only;
    # its residual is inf in the CSV and null in the JSON, which has no inf
    params = imag_axis.imag_axis_params
    monkeypatch.setattr(imag_axis, "imag_axis_params", lambda n: (
        dataclasses.replace(params(n), c_n=1.0) if n == 7 else params(n)))
    for fmt, residual, tol in [("csv", "inf", "9.9999999999999994e-12"), ("json", None, 1e-11)]:
        code, out, err = run(capsys, "verify", "--n-max", "6", "--format", fmt)
        assert code == 2 and "invariants failed" in err
        table = parse_csv(out)[2] if fmt == "csv" else _strict_json(out)["rows"]
        rows = {row[1]: row for row in table}
        assert rows.pop("imaginary-family") == [
            "FAIL", "imaginary-family", residual, tol,
            "raised HypothesisViolation('c_n sign or a_n monotonicity broke at n = 7')"]
        assert len(rows) == 7 and all(row[0] == "PASS" for row in rows.values())


def test_verify_double_eigenvalue_row_reads_the_gate_gap(capsys):
    # the row re-solves nothing: its residual is the worst gap the catalog
    # gate measured, over n = 3..12, exactly
    code, out, _ = run(capsys, "verify")
    row = next(r for r in parse_csv(out)[2] if r[1] == "critical-double-eigenvalue")
    worst = max(p.gate_gap / p.n for n in range(3, 13) for p in critical.all_critical_points(n))
    assert code == 0 and float(row[2]) == worst


_CATALOG_ROWS = ["critical-double-eigenvalue", "rho-prime-vanishes", "route-equivalence",
                 "isotropy"]


def test_verify_builds_each_catalog_once(capsys, monkeypatch):
    # the four catalog rows share one build per n = 3..12
    built = []
    build = critical.all_critical_points

    def counting(n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(critical, "all_critical_points", counting)
    code, _, _ = run(capsys, "verify")
    assert code == 0 and built == list(range(3, 13))


def test_verify_fails_every_catalog_row_when_a_build_raises(capsys, monkeypatch):
    build = critical.all_critical_points

    def failing(n):
        if n == 7:
            raise RootFindingFailure("planted at n = 7")
        return build(n)

    monkeypatch.setattr(critical, "all_critical_points", failing)
    code, out, _ = run(capsys, "verify")
    assert code == 2
    rows = {row[1]: row for row in parse_csv(out)[2]}
    for name in _CATALOG_ROWS:
        assert rows.pop(name)[::2] == ["FAIL", "inf",
                                       "raised RootFindingFailure('planted at n = 7')"]
    assert len(rows) == 4 and all(row[0] == "PASS" for row in rows.values())


# ---------------------------------------------------------------------------
# README


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_flags(text):
    """{subcommand: the flags its usage lines name} from README's command-line block."""
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    flags, name = {}, None
    for line in block.splitlines():
        if line.startswith("kmsbif "):
            name = line.split()[1]
            flags[name] = set()
        if name is not None:
            flags[name] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def _parser_flags():
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"} for name, sub in subs.choices.items()}


def test_readme_usage_lists_the_flags_each_subcommand_takes():
    text = _README.read_text(encoding="utf-8")
    assert _readme_flags(text) == _parser_flags()
    stale = text.replace("kmsbif verify [--n-max 12]", "kmsbif verify [--n-max 12] [--tol 1.0]")
    assert stale != text and _readme_flags(stale) != _parser_flags()
