"""End-to-end tests of the command-line interface (in-process, and one fresh interpreter)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmsbif.cli import _render_svg, main
from kmsbif.imag_axis import imag_axis_params


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


@pytest.mark.parametrize("argv", [
    ["critical-points", "--n", "2"],
    ["no-such-command"],
    ["critical-points", "--n", "5", "--type", "3"],
    ["critical-points", "--n", "5", "--tol", "0"],
    ["level-curve"],
    [],
    # bad numbers are usage errors, never a crash or a silent default
    ["trajectory", "--n", "4", "--type", "2", "--grid", "1"],
    ["level-curve", "--n", "4", "--type", "2", "--grid", "1"],
    ["verify", "--n-max", "2"],
    ["verify", "--n-max", "0"],
    ["figure", "6", "--n-max", "0"],
    ["trajectory", "--n", "4", "--tol", "nan"],
    # each subcommand takes only the flags and formats it uses
    ["critical-points", "--n", "5", "--format", "svg"],
    ["puiseux", "--n", "4", "--tol", "1e-3"],
    ["figure", "2", "--format", "json"],
    # the borderline figures need a grid of at least 64
    ["figure", "2", "--grid", "10"],
    # float flags that would reach the library as NaN or inf
    ["level-curve", "--n", "8", "--window", "nan"],
    ["figure", "1", "--window", "nan"],
    ["trajectory", "--n", "8", "--d-max", "nan"],
    ["trajectory", "--n", "8", "--d-max", "inf"],
])
def test_usage_errors_exit_one(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_computation_errors_return_two(capsys):
    code, _, err = run(capsys, "imaginary", "--n", "6")
    assert code == 2
    assert "odd" in err
    code, _, err = run(capsys, "puiseux", "--n", "4", "--index", "99")
    assert code == 2
    assert "out of range" in err
    code, _, err = run(capsys, "large-n", "--n", "19", "4")
    assert code == 2
    # K_8(rho) at |rho| = 1e300 overflows: a typed error before any matrix is built
    code, _, err = run(capsys, "trajectory", "--n", "8", "--d-max", "1e300")
    assert code == 2
    assert "overflows" in err


@pytest.mark.parametrize("argv", [
    # an empty catalog has no point to pick: type 1 at n = 3
    ["level-curve", "--n", "3", "--type", "1"],
    ["trajectory", "--n", "3", "--type", "1"],
    ["puiseux", "--n", "3", "--type", "1", "--index", "0"],
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
    _, out, _ = run(capsys, "trajectory", "--n", "4", "--type", "2",
                    "--d-max", "0.01", "--grid", "21")
    _, header, rows = parse_csv(out)
    assert header[0] == "d" and "residual" in header
    assert len(rows) == 21
    mid = rows[10]
    assert float(mid[0]) == 0.0
    worst = max(float(r[header.index("residual")]) for r in rows)
    assert worst < 5e-3
    # --d-max 0 is honoured: every sample sits on the critical point itself
    _, out, _ = run(capsys, "trajectory", "--n", "4", "--type", "2",
                    "--d-max", "0", "--grid", "21")
    _, _, rows = parse_csv(out)
    assert len(rows) == 21
    assert all(float(r[0]) == 0.0 for r in rows)


def test_tol_gate(capsys):
    code, *_ = run(capsys, "critical-points", "--n", "4", "--tol", "1e-3")
    assert code == 0
    code, _, err = run(capsys, "critical-points", "--n", "4", "--tol", "1e-12")
    assert code == 2
    assert "exceeds" in err


# ---------------------------------------------------------------------------
# figures


def test_figure_six(tmp_path, capsys):
    code = main(["figure", "6", "--n-max", "9", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    text = (tmp_path / "fig6_params.csv").read_text()
    _, header, rows = parse_csv(text)
    assert [int(r[0]) for r in rows] == [3, 5, 7, 9]
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
    code = main(["figure", str(fig), "--grid", "64", "--format", "svg",
                 "--out", str(tmp_path)])
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
