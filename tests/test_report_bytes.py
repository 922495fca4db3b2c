"""``tools/report_bytes.py --against``: which report moves it accepts."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_bytes.py"


@pytest.fixture(scope="module")
def report_bytes():
    spec = importlib.util.spec_from_file_location("report_bytes", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(rows):
    return {"verdict": "PASS", "worst_value": max(r[1] for r in rows) if rows else 0.0,
            "rows": [{"theta": t, "estimate": e, "error_bound": b, "method": "quadrature"}
                     for t, e, b in rows]}


def test_every_row_is_checked_against_its_own_bound(report_bytes):
    old = _report([(0.0, 0.5, 1e-3), (1.0, 0.6, 1e-12)])
    # the larger move (1e-6) is within its loose bound, the smaller (1e-9)
    # exceeds its tight one
    new = _report([(0.0, 0.5 + 1e-6, 1e-3), (1.0, 0.6 + 1e-9, 1e-12)])
    delta, row, over = report_bytes.compare(new, old)
    assert delta == pytest.approx(1e-6) and row["theta"] == 0.0
    assert over == [1.0]
    within = _report([(0.0, 0.5 + 1e-6, 1e-3), (1.0, 0.6 + 1e-13, 1e-12)])
    assert report_bytes.compare(within, old)[2] == []


def test_reports_without_rows_and_other_changes(report_bytes):
    assert report_bytes.compare(_report([]), _report([])) == (0.0, None, [])
    old = _report([(0.0, 0.5, 1e-3)])
    changed = _report([(0.0, 0.5, 1e-3)])
    changed["verdict"] = "FAIL"
    assert report_bytes.compare(changed, old) is None
    assert report_bytes.compare(_report([(0.5, 0.5, 1e-3)]), old) is None
    assert report_bytes.compare(_report([(0.0, 0.5, 1e-3), (1.0, 0.5, 1e-3)]), old) is None
    assert report_bytes.compare({"checks": {}}, {"checks": {}}) is None
