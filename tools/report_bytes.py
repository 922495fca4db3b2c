"""Write the reports of the benchmark's 33 CLI runs, for comparing trees.

    python3 tools/report_bytes.py OUT_DIR

Runs, from the checkout this file sits in and with BLAS/OpenMP on one
thread, every operation of the three benchmark workloads at seed 1 (28
runs, from ``perfbench.workloads.build``) plus the exact-plan twin of each
Monte Carlo operation (5 runs, ``workloads.exact_config``).  For each run
it writes ``OUT_DIR/<op>.json`` (the report, absent when the run wrote
none) and ``OUT_DIR/<op>.stdout`` (standard output, then the exit code).
The exact twins are named ``<op>.exact``.  Two trees give the same
results when ``diff -r`` finds no difference between their OUT_DIRs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from evarify import cli  # noqa: E402

SEED = 1


def runs():
    """(name, argv without --seed/--out, config or None, seed) of each run."""
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, SEED):
            yield op.name, op.argv, op.config, op.seed
            if op.kind == "monte_carlo":
                yield f"{op.name}.exact", op.argv, workloads.exact_config(op.config), op.seed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/report_bytes.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, op_argv, config, seed in runs():
        args = list(op_argv)
        if config is not None:
            path = out / f"{name}.config.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        report = out / f"{name}.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.run(args + ["--seed", str(seed), "--out", str(report)])
        if config is not None:
            path.unlink()
        (out / f"{name}.stdout").write_text(f"{stdout.getvalue()}exit code {rc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
