"""What each workload runs.  Shared by run.py and the worker.

One op is one public kmsbif call; for ``cli`` one op is one ``kmsbif.cli.main``
call in its own interpreter.  The seed only fixes the order of ops in a pass.
"""

WORKLOADS = ("catalog", "roots-large", "cli")

# catalog: all_critical_points(n), then four per-point ops on every point
CATALOG_N = (48, 96, 128)
TRAJECTORY_D = tuple(0.02 * (2.0 * i / 80 - 1.0) for i in range(81))

# roots-large: critical_t_values(n, type), then three per-root ops; no oracle
ROOTS_BLOCKS = ((256, 1), (256, 2), (512, 1), (512, 2))

# cli: argv for kmsbif.cli.main; "{out}" is replaced by a fresh directory
CLI_COMMANDS = (
    ("figure", "1", "--out", "{out}"),
    ("figure", "2", "--out", "{out}"),
    ("figure", "2", "--format", "svg", "--out", "{out}"),
    ("figure", "3", "--out", "{out}"),
    ("figure", "4", "--out", "{out}"),
    ("figure", "5", "--out", "{out}"),
    ("figure", "6", "--out", "{out}"),
    ("figure", "7", "--out", "{out}"),
    ("figure", "8", "--out", "{out}"),
    ("figure", "9", "--out", "{out}"),
    ("critical-points", "--n", "64"),
    ("puiseux", "--n", "64", "--format", "json"),
    ("level-curve", "--n", "8"),
    ("trajectory", "--n", "8", "--type", "1"),
    ("imaginary", "--n", "19"),
    ("large-n", "--n", "19", "55", "155"),
    ("verify",),
)

# Fails at the parent commit (trace-identity 6.15e-9 > 1e-9).  Measured
# workloads contain no failing op, so it only runs with --with-known-failures.
KNOWN_FAILING = (("verify", "--n-max", "30"),)

# --smoke keeps one op per workload
SMOKE_CLI = ("critical-points", "--n", "64")


def op_name(argv) -> str:
    """Stable op id of a CLI command, without its output directory."""
    return " ".join(a for a in argv if a not in ("--out", "{out}"))
