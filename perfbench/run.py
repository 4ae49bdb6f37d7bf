"""Layered benchmark for kmsbif, driven from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Every pass runs in fresh interpreters (one per pass for the library
workloads, one per command for ``cli``), pinned to one BLAS thread, so no
in-process cache carries results between passes.  Each op's output is
checked against perfbench/reference; a wrong output is a failed op.

--trace 0 runs set-up probes and then whole passes until --seconds is spent,
and reports the end-to-end metrics.  --trace 1 runs one untraced and one
traced pass, checks that their outputs are identical, and reports the
per-layer metrics.  The last stdout line is the result object; the line
before it, also written to .perfbench_work/, holds the environment, the
quartiles and sample counts, the failures and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

LAYERS = ("chebyshev", "critical", "kms", "oracle", "puiseux", "geometry",
          "imag_axis", "cli", "lapack")
# functions whose calls / total_s / self_s are reported as per-layer metrics;
# the spans written at the end of a traced run cover every wrapped function
TRACED_FUNCTIONS = (
    "chebyshev.cheb_t", "chebyshev.cheb_u",
    "critical.all_critical_points", "critical.critical_t_values",
    "critical.rho_c_of_t", "critical.q_polynomial",
    "kms.build_matrix", "kms.lambda_of_mu", "kms.rho_of_mu", "kms.rho_prime_of_mu",
    "kms.eigenvector_of_mu", "kms.isotropy_defect",
    "oracle.eigenvalues", "oracle.kms_spectrum", "oracle.classify_eigenvalue",
    "oracle.classify_vector", "oracle.numeric_borderline",
    "puiseux.puiseux_ab_from_t", "puiseux.derivatives_at_critical",
    "puiseux.puiseux_from_derivatives",
    "geometry.local_level_curve", "geometry.trajectory_along_bisector",
    "geometry.cusp_bisector_angle",
    "imag_axis.imag_axis_params", "imag_axis.imag_level_curve",
    "imag_axis.parabola_trajectory", "imag_axis.large_n_params",
    "cli.main",
    "lapack.eig", "lapack.eigvals",
)
# computed counts kept by the worker's tracer: (counter, unit)
COMPUTED = (
    ("chebyshev.degree_sum", "steps"),
    ("lapack.flops_est", "flop"),
    ("kms.matrix_bytes", "bytes"),
    ("oracle.grid_nodes", "count"),
    ("geometry.local_level_curve.warnings", "count"),
    ("oracle.numeric_borderline.warnings", "count"),
)


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class Pass:
    def __init__(self):
        self.op_seconds = []
        self.digests = {}       # op id -> digest of its output, for the trace check
        self.traces = {}        # traced process (workload or cli command) -> report

    @property
    def wall(self):
        return sum(self.op_seconds)


class Bench:
    def __init__(self, workload, seed=0, smoke=False, with_known_failures=False,
                 ref_dir=HERE / "reference"):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.with_known_failures = with_known_failures
        self.ref_dir = Path(ref_dir).resolve()
        self.reference = None
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}-{time.time_ns()}"
        self.env = dict(os.environ, **PINNED_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.spawned = 0
        self.passes = 0
        self.attempted = 0
        self.failures = []
        self.failed = set()     # (pass, op id) of every failed op
        self.setups = []
        self.rss_kb = []
        self.environment = None

    def load_reference(self):
        name = "cli.json" if self.workload == "cli" else f"{self.workload}.json"
        self.reference = json.loads((self.ref_dir / name).read_text())

    # -- processes ---------------------------------------------------------

    def spawn(self, job):
        """Run one worker process to completion; returns (result, error)."""
        self.spawned += 1
        stem = self.work / f"{self.spawned:05d}"
        job_path, result_path = stem.with_suffix(".job"), stem.with_suffix(".result")
        job_path.write_text(json.dumps(job))
        with open(stem.with_suffix(".log"), "wb") as log:
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(WORKER), str(job_path), str(result_path), repr(start)],
                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log,
                    stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                return None, f"worker timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result_path.exists():
            tail = stem.with_suffix(".log").read_text(errors="replace")[-400:]
            return None, f"worker exited with {proc.returncode}: {tail}"
        result = json.loads(result_path.read_text())
        self.setups.append(result["setup_s"])
        self.rss_kb.append(result["rss_kb"])
        return result, None

    def fail(self, op_id, reason):
        self.failures.append({"pass": self.passes, "op": op_id, "reason": reason})
        self.failed.add((self.passes, op_id))

    def probe_setup(self):
        result, error = self.spawn({"kind": "setup"})
        if error:
            raise SystemExit(f"perfbench: set-up probe failed: {error}")
        self.environment = self.environment or result["env"]

    # -- passes -------------------------------------------------------------

    def run_pass(self, trace):
        self.passes += 1
        if self.workload == "cli":
            return self._cli_pass(trace)
        return self._library_pass(trace)

    def _library_pass(self, trace):
        one = Pass()
        job = {"kind": self.workload, "seed": self.seed, "trace": trace, "smoke": self.smoke}
        result, error = self.spawn(job)
        if error:
            self.attempted += 1
            self.fail(self.workload, error)
            return one
        refs = self.reference["ops"]
        for op in result["ops"]:
            self.attempted += 1
            one.op_seconds.append(op["s"])
            reason = op.get("error") or check.check_values(op["id"], op["values"],
                                                           refs.get(op["id"]))
            if reason:
                self.fail(op["id"], reason)
            one.digests[op["id"]] = json.dumps(op.get("values"))
        if trace:
            one.traces[self.workload] = result["trace"]
        return one

    def cli_commands(self):
        if self.smoke:
            return [workloads.SMOKE_CLI]
        commands = list(workloads.CLI_COMMANDS)
        if self.with_known_failures:
            commands += workloads.KNOWN_FAILING
        random.Random(self.seed).shuffle(commands)
        return commands

    def _cli_pass(self, trace):
        one = Pass()
        for argv in self.cli_commands():
            name = workloads.op_name(argv)
            self.attempted += 1
            outdir = self.work / f"out{self.attempted:05d}"
            result, error = self.spawn({"kind": "cli", "argv": list(argv),
                                        "outdir": str(outdir), "trace": trace})
            if error:
                self.fail(name, error)
                continue
            op = result["ops"][0]
            one.op_seconds.append(op["s"])
            outputs = {"<stdout>": result["stdout"].encode("ascii", errors="replace")}
            if outdir.is_dir():
                outputs.update((p.name, p.read_bytes()) for p in sorted(outdir.iterdir()))
                shutil.rmtree(outdir)
            reason = op.get("error") or check.check_cli(
                result["exit"], outputs, self.reference.get(name),
                lambda rel: (self.ref_dir / rel).read_text())
            if reason:
                self.fail(name, reason)
            digest = hashlib.sha256(repr(result["exit"]).encode())
            for key in sorted(outputs):
                digest.update(key.encode() + b"\0" + outputs[key])
            one.digests[name] = digest.hexdigest()
            if trace:
                one.traces[name] = result["trace"]
        return one

    # -- metrics ------------------------------------------------------------

    def measure(self, seconds):
        start = time.monotonic()
        for _ in range(1 if self.smoke else SETUP_PROBES):
            self.probe_setup()
        passes = []
        passes_start = time.monotonic()
        while True:
            passes.append(self.run_pass(trace=False))
            now = time.monotonic()
            per_pass = (now - passes_start) / len(passes)
            if self.smoke or now - start + per_pass > seconds:
                break
        walls = [p.wall for p in passes if p.op_seconds]
        slowest = [max(p.op_seconds) for p in passes if p.op_seconds]
        if not walls:
            raise SystemExit("perfbench: no op completed")
        samples = {"wall_s": walls, "setup_s": self.setups, "slowest_op_s": slowest}
        stats = {k: _summary(v) for k, v in samples.items()}
        stats["peak_rss_mb"] = {"max": max(self.rss_kb) / 1024.0, "n": len(self.rss_kb)}
        metrics = {
            "wall_s": {"value": stats["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": stats["setup_s"]["median"], "unit": "s"},
            "slowest_op_s": {"value": stats["slowest_op_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": stats["peak_rss_mb"]["max"], "unit": "MiB"},
        }
        return metrics, {"passes": len(passes), "stats": stats}

    def measure_traced(self):
        self.probe_setup()
        plain = self.run_pass(trace=False)
        traced = self.run_pass(trace=True)
        for op_id, digest in plain.digests.items():
            if traced.digests.get(op_id) != digest:  # counted against the traced pass
                self.fail(op_id, "traced output differs from the untraced run")
        if not plain.op_seconds or not traced.op_seconds:
            raise SystemExit("perfbench: no op completed")
        traces = list(traced.traces.values())
        metrics = layer_metrics(traces, traced.wall, plain.wall)
        detail = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
                  "spans": merge_traces(traces)}
        if self.workload == "cli":
            detail["per_op"] = {name: per_op_summary(tr) for name, tr in traced.traces.items()}
        return metrics, detail


def merge_traces(traces):
    """Sum the per-process span edges and counters of a traced pass."""
    edges = collections.defaultdict(lambda: [0, 0.0, 0.0])
    counters = collections.Counter()
    points = point_calls = 0
    for tr in traces:
        for parent, name, calls, total, self_s in tr["edges"]:
            edge = edges[(parent, name)]
            edge[0] += calls
            edge[1] += total
            edge[2] += self_s
        counters.update(tr["counters"])
        points += tr["points"]
        point_calls += tr["point_oracle_calls"]
    return {"edges": [[p, n, *v] for (p, n), v in sorted(edges.items())],
            "counters": dict(counters), "points": points,
            "point_oracle_calls": point_calls}


def per_op_summary(trace):
    merged = merge_traces([trace])
    oracle_calls = sum(e[2] for e in merged["edges"] if e[1] == "oracle.eigenvalues")
    return {"oracle_calls": oracle_calls, "points": merged["points"],
            "oracle.calls_per_point": _ratio(merged["point_oracle_calls"], merged["points"])}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces, traced_wall, plain_wall):
    merged = merge_traces(traces)
    by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])
    under = collections.Counter()
    for parent, name, calls, total, self_s in merged["edges"]:
        agg = by_name[name]
        agg[0] += calls
        agg[1] += total
        agg[2] += self_s
        if name.startswith("lapack."):
            if parent.startswith("oracle."):
                under["oracle"] += total
            elif parent == "critical.critical_t_values":
                under["roots"] += total
    counters = merged["counters"]
    out = {}
    for fn in TRACED_FUNCTIONS:
        calls, total, self_s = by_name.get(fn, (0, 0.0, 0.0))
        out[f"{fn}.calls"] = (calls, "count")
        out[f"{fn}.total_s"] = (total, "s")
        out[f"{fn}.self_s"] = (self_s, "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v[2] for k, v in by_name.items()
                                      if k.split(".", 1)[0] == layer), "s")
    for counter, unit in COMPUTED:
        out[counter] = (counters.get(counter, 0), unit)
    oracle_calls = by_name.get("oracle.eigenvalues", (0,))[0]
    out["oracle.calls_per_point"] = (_ratio(merged["point_oracle_calls"], merged["points"]),
                                     "ratio")
    out["oracle.vectors_share"] = (
        _ratio(counters.get("oracle.eigenvalues.vector_calls", 0), oracle_calls), "ratio")
    out["lapack.under_oracle_s"] = (under["oracle"], "s")
    out["lapack.under_roots_s"] = (under["roots"], "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (_ratio(traced_wall, plain_wall), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="fixes the op order within a pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one whole pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one op per workload")
    parser.add_argument("--with-known-failures", action="store_true",
                        help="add the commands known to fail to the cli workload")
    parser.add_argument("--reference", default=str(HERE / "reference"),
                        help="reference directory (tests pass a perturbed copy)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "kmsbif" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kmsbif sources under {ROOT / 'src'}; "
                 "run from the root of a kmsbif checkout")
    bench = Bench(args.workload, args.seed, args.smoke, args.with_known_failures,
                  args.reference)
    bench.load_reference()
    bench.work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, detail = bench.measure_traced()
        else:
            metrics, detail = bench.measure(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": bench.environment,
              "attempted": bench.attempted, "failures": bench.failures, **detail}
    out = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
