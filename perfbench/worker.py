"""One benchmark process: import kmsbif, run the ops of a job, write the result.

Usage: worker.py JOB.json RESULT.json SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before the spawn, so set-up
(interpreter start plus importing kmsbif and its CLI module) is timed across
the process boundary.  Ops are timed one by one; serialising their outputs stays outside
the timed region.
"""

import sys
import time

import kmsbif  # first, so set-up covers exactly interpreter start + import
import kmsbif.cli

SETUP_DONE = time.monotonic()

import cmath  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _c(z):
    return [z.real, z.imag]


def _points_values(points):
    out = []
    for p in points:
        out += [p.n, p.eig_type.value, *_c(p.t_c), *_c(p.mu_c), *_c(p.rho_c)]
    return out


def _ab_values(pp):
    return [*_c(pp.a), *_c(pp.b)]


def _level_values(curve):
    """Fingerprint of a sampled curve: count and column sums."""
    return [len(curve.samples), sum(s[0] for s in curve.samples),
            sum(s[1] for s in curve.samples), sum(s[2].real for s in curve.samples),
            sum(s[2].imag for s in curve.samples)]


def _trajectory_values(points):
    return [sum(getattr(tp, pair)[k] for tp in points)
            for pair in ("re_pair", "im_pair", "mag_pair") for k in (0, 1)]


class Ops:
    def __init__(self):
        self.records = []

    def timed(self, op_id, call, serialize):
        """Run one op; record its time and serialised output (or its error)."""
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.records.append({"id": op_id, "s": time.perf_counter() - start,
                                 "error": repr(exc)})
            return None
        elapsed = time.perf_counter() - start
        self.records.append({"id": op_id, "s": elapsed, "values": serialize(result)})
        return result


def run_catalog(ops, seed, smoke):
    rng = random.Random(seed)
    sizes = list(workloads.CATALOG_N)
    rng.shuffle(sizes)
    for n in sizes[:1] if smoke else sizes:
        points = ops.timed(f"catalog/{n}", lambda: kmsbif.all_critical_points(n),
                           _points_values)
        if smoke or points is None:
            continue
        order = list(range(len(points)))
        rng.shuffle(order)
        for i in order:
            p = points[i]
            pp = ops.timed(f"ab/{n}/{i}", lambda: kmsbif.puiseux_ab_from_t(p), _ab_values)
            ops.timed(f"deriv/{n}/{i}", lambda: kmsbif.puiseux_from_derivatives(
                p.lambda_c, kmsbif.derivatives_at_critical(p)), _ab_values)
            if pp is None:
                continue
            ops.timed(f"level/{n}/{i}", lambda: kmsbif.local_level_curve(pp, p.rho_c),
                      _level_values)
            ops.timed(f"traj/{n}/{i}", lambda: kmsbif.trajectory_along_bisector(
                pp, workloads.TRAJECTORY_D), _trajectory_values)


def run_roots(ops, seed, smoke):
    rng = random.Random(seed)
    blocks = list(workloads.ROOTS_BLOCKS)
    rng.shuffle(blocks)
    for n, tag in blocks[:1] if smoke else blocks:
        eig_type = kmsbif.EigType(tag)
        roots = ops.timed(f"roots/{n}/{tag}", lambda: kmsbif.critical_t_values(n, eig_type),
                          lambda ts: [x for t in ts for x in _c(t)])
        if smoke or roots is None:
            continue
        order = list(range(len(roots)))
        rng.shuffle(order)
        for i in order:
            t_c = roots[i]
            rho_c = ops.timed(f"rho/{n}/{tag}/{i}", lambda: kmsbif.rho_c_of_t(n, t_c, eig_type),
                              _c)
            if rho_c is None:
                continue
            p = kmsbif.CriticalPoint(n=n, eig_type=eig_type, t_c=t_c, mu_c=cmath.acos(t_c),
                                     rho_c=rho_c, lambda_c=complex(-n))
            ops.timed(f"ab/{n}/{tag}/{i}", lambda: kmsbif.puiseux_ab_from_t(p), _ab_values)
            ops.timed(f"deriv/{n}/{tag}/{i}", lambda: kmsbif.puiseux_from_derivatives(
                p.lambda_c, kmsbif.derivatives_at_critical(p)), _ab_values)


def run_cli(ops, argv):
    """One CLI command; its stdout is captured, its files land in the job's outdir."""
    buf = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(buf):
                return kmsbif.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit instead of returning
            return exc.code

    code = ops.timed(workloads.op_name(argv), call, lambda rc: rc)
    return code, buf.getvalue()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii",
                                            errors="replace") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(job_path, result_path, spawn_time):
    if not Path(kmsbif.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"kmsbif imported from {kmsbif.__file__}, not from this checkout")
    setup_s = SETUP_DONE - float(spawn_time)
    job = json.loads(Path(job_path).read_text())
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = Ops()
    result = {"setup_s": setup_s}
    kind = job["kind"]
    if kind == "setup":
        result["env"] = environment()
    elif kind == "catalog":
        run_catalog(ops, job["seed"], job.get("smoke", False))
    elif kind == "roots-large":
        run_roots(ops, job["seed"], job.get("smoke", False))
    elif kind == "cli":
        argv = [a.replace("{out}", job["outdir"]) for a in job["argv"]]
        result["exit"], result["stdout"] = run_cli(ops, argv)
    else:
        sys.exit(f"unknown job kind {kind!r}")
    result["ops"] = ops.records
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.report()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:4])
