"""Demos: each script in demos/ runs to the end in-process.

A smoke test only -- the demos print their results; this keeps a change
to the library's public surface from breaking one unnoticed."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_condition_demo_catches_the_corrupted_estimator_on_both_bundles(capsys):
    """Demo 06's off-by-one estimator fails both cell checks on Poisson and
    on the binomial, whose statistic (the count over n) is not the sample."""
    path = next(p for p in DEMOS if p.stem == "06_condition_checks")
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out.split("corrupted estimator detection:")[1]
    for bundle_id in ("poisson", "binomial(n=64)"):
        for check in ("cell_sandwich", "cell_bound"):
            assert re.search(rf"{re.escape(bundle_id)}\s+{check}\s+FAIL", out), (bundle_id, check)
