"""Regenerate perfbench/reference from the code in this checkout.

    python3 perfbench/make_reference.py

The reference is what every benchmark run checks outputs against, so only
run this on a commit whose outputs are known to be right.  Library ops keep
every value; CLI outputs keep a SHA-256, except files with oracle-derived
columns, which are stored whole and compared cell by cell (see check.py).
"""

from __future__ import annotations

import json
import re
import shutil

import check
import workloads
from run import HERE, Bench


def _write_ops(path, ops):
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ops.items()))
    path.write_text('{"ops": {\n' + body + "\n}}\n")


def library_reference(workload, ref_dir):
    bench = Bench(workload)
    bench.work.mkdir(parents=True)
    try:
        result, error = bench.spawn({"kind": workload, "seed": 0, "trace": False})
    finally:
        shutil.rmtree(bench.work)
    if error:
        raise SystemExit(f"{workload}: {error}")
    ops = {}
    for op in result["ops"]:
        if "error" in op:
            raise SystemExit(f"{op['id']} raised {op['error']}")
        ops[op["id"]] = op["values"]
    _write_ops(ref_dir / f"{workload}.json", ops)
    return len(ops)


def oracle_columns(name, header):
    """Columns whose values come from the dense solver."""
    if "borderline" in name:
        return header
    if name.endswith("_oracle.csv"):
        return [c for c in header if c != "d"]
    return [c for c in header if c.startswith("oracle_") or c == "residual"]


def _header(data):
    for line in data.decode("ascii").splitlines():
        if not line.startswith("#"):
            return line.split(",")
    return []


def cli_reference(ref_dir):
    shutil.rmtree(ref_dir / "cli", ignore_errors=True)
    bench = Bench("cli")
    bench.work.mkdir(parents=True)
    entries = {}
    try:
        for argv in workloads.CLI_COMMANDS + workloads.KNOWN_FAILING:
            name = workloads.op_name(argv)
            slug = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_")
            outdir = bench.work / slug
            result, error = bench.spawn({"kind": "cli", "argv": list(argv),
                                         "outdir": str(outdir), "trace": False})
            if error or "error" in result["ops"][0]:
                raise SystemExit(f"{name}: {error or result['ops'][0]['error']}")
            outputs = {"<stdout>": result["stdout"].encode("ascii")}
            if outdir.is_dir():
                outputs.update((p.name, p.read_bytes()) for p in sorted(outdir.iterdir()))
            rules = {}
            for out_name, data in outputs.items():
                if out_name.endswith(".svg"):
                    rule = {"mode": "svg"}
                else:
                    numeric = oracle_columns(out_name, _header(data))
                    rule = {"mode": "csv", "numeric": numeric} if numeric else None
                if rule is None:
                    rules[out_name] = {"sha256": check.sha256(data)}
                    continue
                rel = f"cli/{slug}/{'stdout.csv' if out_name == '<stdout>' else out_name}"
                (ref_dir / rel).parent.mkdir(parents=True, exist_ok=True)
                (ref_dir / rel).write_bytes(data)
                rules[out_name] = {**rule, "file": rel}
            entries[name] = {"exit": result["exit"], "outputs": rules}
    finally:
        shutil.rmtree(bench.work)
    (ref_dir / "cli.json").write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    return len(entries)


def main():
    ref_dir = HERE / "reference"
    ref_dir.mkdir(exist_ok=True)
    for workload in ("catalog", "roots-large"):
        print(f"{workload}: {library_reference(workload, ref_dir)} ops")
    print(f"cli: {cli_reference(ref_dir)} commands")


if __name__ == "__main__":
    main()
