"""Compare op outputs with the reference captured by make_reference.py.

Tolerances (|x - ref| <= tol * max(1, |ref|)):
- catalog points and roots (t_c, mu_c, rho_c): 1e-9.  Root polishing may
  change the last digits; an error of 1e-6 in one rho_c must fail.
- quantities derived from them (Puiseux a and b, level-curve and trajectory
  fingerprints): 1e-8, since b carries T_n(t_c)^2 terms.
- oracle-derived CLI cells (borderline CSVs, oracle_* columns, oracle_gap,
  verify residuals): 1e-6.  Near the defective eigenvalue the dense solver
  only resolves about sqrt(u) ~ 1e-8, and a structured oracle may change those
  digits; a wrong point moves the pair by ~sqrt(1e-6), far above 1e-6.
- SVG pixel coordinates drawn from oracle data: 0.011 (one rounding unit).
Everything else in a CLI output must match byte for byte (SHA-256).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re

VALUE_TOL = {"catalog": 1e-9, "roots": 1e-9, "rho": 1e-9,
             "ab": 1e-8, "deriv": 1e-8, "level": 1e-8, "traj": 1e-8}
ORACLE_TOL = 1e-6
SVG_TOL = 0.011

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(x: float, ref: float, tol: float) -> bool:
    if x == ref:
        return True
    if math.isnan(ref) or math.isnan(x):
        return math.isnan(ref) and math.isnan(x)
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def check_values(op_id: str, values, ref) -> str | None:
    """None when a library op's output matches its reference, else the reason."""
    if ref is None:
        return "no reference for this op"
    if len(values) != len(ref):
        return f"{len(values)} values, reference has {len(ref)}"
    tol = VALUE_TOL[op_id.split("/", 1)[0]]
    for i, (x, r) in enumerate(zip(values, ref)):
        if not _close(float(x), float(r), tol):
            return f"value {i}: {x!r} vs reference {r!r} (tol {tol:g})"
    return None


def _check_csv(text: str, ref_text: str, numeric: list) -> str | None:
    lines, ref_lines = text.splitlines(), ref_text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    if meta != [ln for ln in ref_lines if ln.startswith("#")]:
        return "meta lines differ"
    rows = list(csv.reader(io.StringIO("\n".join(ln for ln in lines if not ln.startswith("#")))))
    ref_rows = list(csv.reader(io.StringIO(
        "\n".join(ln for ln in ref_lines if not ln.startswith("#")))))
    if len(rows) != len(ref_rows) or not rows or rows[0] != ref_rows[0]:
        return f"header or row count differs ({len(rows)} vs {len(ref_rows)} lines)"
    tolerant = {i for i, col in enumerate(ref_rows[0]) if col in numeric}
    for r, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        if len(row) != len(ref_row):
            return f"row {r}: {len(row)} cells vs {len(ref_row)}"
        for i, (cell, ref_cell) in enumerate(zip(row, ref_row)):
            if cell != ref_cell and not (i in tolerant and _cells_close(cell, ref_cell)):
                return f"row {r} {ref_rows[0][i]}: {cell!r} vs reference {ref_cell!r}"
    return None


def _cells_close(cell: str, ref_cell: str) -> bool:
    try:
        return _close(float(cell), float(ref_cell), ORACLE_TOL)
    except ValueError:
        return False


def _check_svg(text: str, ref_text: str) -> str | None:
    if _NUMBER.split(text) != _NUMBER.split(ref_text):
        return "SVG structure differs"
    for x, r in zip(_NUMBER.findall(text), _NUMBER.findall(ref_text)):
        if abs(float(x) - float(r)) > SVG_TOL:
            return f"SVG coordinate {x} vs reference {r}"
    return None


def check_output(data: bytes, rule: dict, ref_text) -> str | None:
    """Check one CLI output (stdout or a written file) against its rule."""
    if "sha256" in rule:
        return None if sha256(data) == rule["sha256"] else "SHA-256 differs"
    text = data.decode("ascii", errors="replace")
    if rule["mode"] == "svg":
        return _check_svg(text, ref_text)
    return _check_csv(text, ref_text, rule["numeric"])


def check_cli(exit_code, outputs: dict, entry: dict, read_ref) -> str | None:
    """None when a CLI command's exit code and every output match the reference."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if entry is None:
        return "no reference for this command"
    if sorted(outputs) != sorted(entry["outputs"]):
        return f"outputs {sorted(outputs)} vs reference {sorted(entry['outputs'])}"
    for name, rule in entry["outputs"].items():
        ref_text = read_ref(rule["file"]) if "file" in rule else None
        reason = check_output(outputs[name], rule, ref_text)
        if reason:
            return f"{name}: {reason}"
    return None
