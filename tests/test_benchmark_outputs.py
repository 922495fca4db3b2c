"""The benchmark's operations against its stored reference, on every test
run: a report that leaves its bound, changes engine or flips a verdict
fails here, not only when the benchmark runs.  Reads ``perfbench/`` and
writes only to a temporary directory."""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from worker import Runner  # noqa: E402


def test_every_operation_matches_the_stored_reference(tmp_path):
    ops = [op for w in workloads.WORKLOADS for op in workloads.build(w, 1)]
    runner = Runner(ops, tmp_path, json.loads((PERFBENCH / "reference.json").read_text()))
    runner.prepare()
    runner.run_pass(0)
    assert runner.attempted == len(ops) == 28
    assert runner.failures == []
