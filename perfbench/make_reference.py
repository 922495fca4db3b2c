"""Regenerate `reference.json`: the stored worst values and checker
constants that the output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on a commit whose reports are known to be right; the file
in the repository was made from the commit that added the benchmark.
Monte Carlo operations need no stored reference: they are checked
against exact runs made during each benchmark run.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from worker import Runner


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for workload in workloads.WORKLOADS:
            ops = workloads.build(workload, 0)
            runner = Runner(ops, Path(tmp), {})
            entries = {}
            for op in ops:
                if op.kind == "monte_carlo":
                    continue
                out = Path(tmp) / f"{op.name}.json"
                rc, _ = runner.call(runner.argv(op, out))
                if rc != 0:
                    print(f"{op.name} exited {rc}", file=sys.stderr)
                    return 1
                report = json.loads(out.read_bytes())
                summarize = (checks.summarize_conditions if op.kind == "conditions"
                             else checks.summarize_certify)
                entries[op.name] = summarize(report)
            reference[workload] = entries
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
