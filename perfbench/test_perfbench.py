"""Tests of the benchmark itself, not of kmsbif.

    python3 -m pytest perfbench/test_perfbench.py

Most run one op per workload (--smoke); the known-failure test runs one
whole cli pass.  Together they take about two minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def scratch():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    res = last_line(bench("--workload", workload, "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload, calls_per_point, oracle_calls", [
    ("catalog", 1.0, None),        # one gate solve per catalog point
    ("roots-large", 0.0, 0),       # root finding never calls the oracle
    ("cli", 2.0, None),            # critical-points: gate plus a second gap solve
])
def test_smoke_trace_reports_every_layer_metric(workload, calls_per_point, oracle_calls):
    res = last_line(bench("--workload", workload, "--trace", "1", "--smoke"))
    # the traced op repeats the untraced one and must give identical output
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["metrics"]["oracle.calls_per_point"]["value"] == calls_per_point
    if oracle_calls is not None:
        assert res["metrics"]["oracle.eigenvalues.calls"]["value"] == oracle_calls


def _perturb_rho_c(ref):
    data = json.loads((ref / "catalog.json").read_text())
    for key, values in data["ops"].items():
        if key.startswith("catalog/"):
            values[6] += 1e-6  # real part of the first point's rho_c
    (ref / "catalog.json").write_text(json.dumps(data))


def _perturb_oracle_gap(ref):
    path = ref / "cli" / "critical_points_n_64" / "stdout.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    cells = lines[row].rstrip("\n").split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("workload, perturb", [("catalog", _perturb_rho_c),
                                               ("cli", _perturb_oracle_gap)])
def test_perturbed_reference_is_a_failed_op(scratch, workload, perturb):
    ref = scratch / "reference"
    shutil.copytree(HERE / "reference", ref)
    perturb(ref)
    res = last_line(bench("--workload", workload, "--trace", "0", "--smoke",
                          "--reference", str(ref)))
    assert not res["correct"] and res["failed"] == 1 and res["attempted"] == 1


def test_known_failure_is_the_only_cli_failure():
    proc = bench("--workload", "cli", "--trace", "0", "--with-known-failures")
    res = last_line(proc)
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert res["failed"] == 1 and not res["correct"]
    assert [f["op"] for f in detail["failures"]] == ["verify --n-max 30"]


def test_exits_nonzero_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""
