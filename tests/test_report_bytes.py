"""``tools/report_bytes.py --against``: which report moves it accepts."""

import importlib.util
import json
import math
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
    """A certify report of rows (theta, estimate, error bound), its worst
    row picked as ``sweep`` picks it."""
    worst = max(rows, key=lambda r: (r[1], r[0])) if rows else (0.0, 0.0, 0.0)
    return {"verdict": "PASS", **dict(zip(("worst_theta", "worst_value", "worst_error_bound"),
                                          worst)),
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


def test_near_tied_rows_may_swap_the_worst(report_bytes, tmp_path, capsys):
    """Two rows within their bounds of each other swap which is the worst:
    accepted (exit 0) when the new report's worst fields are its own worst
    row, refused when they disagree with its rows."""
    name = "interpolated.cauchy.eps0.2"
    old = _report([(-500.0, 0.9, 3e-5), (1001.0, 0.9 + 1e-10, 3e-5), (0.3, 0.5, 3e-5)])
    new = _report([(-500.0, 0.9 + 2e-10, 3e-5), (1001.0, 0.9 + 1e-10, 3e-5), (0.3, 0.5, 3e-5)])
    assert (old["worst_theta"], new["worst_theta"]) == (1001.0, -500.0)
    delta, row, over = report_bytes.compare(new, old)
    assert delta == pytest.approx(2e-10) and row["theta"] == -500.0 and over == []
    for where, doc in ((tmp_path / "other", old), (tmp_path / "out", new)):
        where.mkdir()
        (where / f"{name}.json").write_text(json.dumps(doc))
    assert report_bytes._moves(tmp_path / "out", tmp_path / "other") == 0
    assert capsys.readouterr().out.startswith(f"{name}: max |delta estimate| = 2e-10")
    for key, value in (("worst_theta", 1001.0), ("worst_value", 0.9 + 1e-10),
                       ("worst_error_bound", 1e-5)):
        wrong = {**new, key: value}
        assert report_bytes.compare(wrong, old) is None, key
    # a tie in the estimate goes to the larger theta, as in sweep
    tied = _report([(-500.0, 0.9, 3e-5), (1001.0, 0.9, 3e-5)])
    assert tied["worst_theta"] == 1001.0
    assert report_bytes.compare(tied, tied) == (0.0, tied["rows"][0], [])
    assert report_bytes.compare({**tied, "worst_theta": -500.0}, tied) is None


def test_reports_without_rows_and_other_changes(report_bytes):
    assert report_bytes.compare(_report([]), _report([])) == (0.0, None, [])
    old = _report([(0.0, 0.5, 1e-3)])
    changed = _report([(0.0, 0.5, 1e-3)])
    changed["verdict"] = "FAIL"
    assert report_bytes.compare(changed, old) is None
    assert report_bytes.compare(_report([(0.5, 0.5, 1e-3)]), old) is None
    assert report_bytes.compare(_report([(0.0, 0.5, 1e-3), (1.0, 0.5, 1e-3)]), old) is None
    assert report_bytes.compare({"checks": {}}, {"checks": {}}) is None


def test_a_certify_report_whose_thetas_moved_names_the_move(report_bytes, tmp_path, capsys):
    """Rows whose thetas moved are still refused (exit 1), and the runner
    prints how many rows moved and the largest relative move."""
    name = "spikes.normal_variance.n64"
    old = _report([(1.0, 0.5, 1e-3), (2.0, 0.6, 1e-3), (4.0, 0.7, 1e-3)])
    new = _report([(1.0, 0.5, 1e-3), (2.0 + 2**-51, 0.6, 1e-3), (4.0 + 2**-49, 0.7, 1e-3)])
    assert report_bytes.compare(new, old) is None
    assert report_bytes.theta_moves(new, old) == (2, 2**-51)  # 2**-52 and 2**-51
    assert report_bytes.theta_moves(old, old) is None
    assert report_bytes.theta_moves(_report([(1.0, 0.5, 1e-3)]), old) is None
    for where, doc in ((tmp_path / "other", old), (tmp_path / "out", new)):
        where.mkdir()
        (where / f"{name}.json").write_text(json.dumps(doc))
    assert report_bytes._moves(tmp_path / "out", tmp_path / "other") == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: differs beyond row estimates and error bounds",
        f"{name}: theta moved on 2 of 3 rows, by at most 4.44e-16 relative"]


def _conditions(**checks):
    doc = {"bundle_id": "poisson", "seed": 1, "overall": "pass", "checks": {}}
    for name, (constant, violation) in checks.items():
        doc["checks"][name] = {"condition": name, "estimated_constant": constant,
                               "max_violation": violation, "n_evaluated": 10,
                               "n_skipped": 0, "passing": True, "tolerance": 1e-7,
                               "witnesses": []}
    return doc


def test_check_constants_and_violations_may_move(report_bytes):
    old = _conditions(cell_bound=(1.0, 0.0), reverse_triangle=(None, 0.0))
    new = _conditions(cell_bound=(1.0 + 5e-8, 0.0), reverse_triangle=(None, 1e-12))
    assert report_bytes.compare_checks(new, old) == [
        ("cell_bound", "estimated_constant", 1.0, 1.0 + 5e-8),
        ("reverse_triangle", "max_violation", 0.0, 1e-12)]
    assert report_bytes.compare_checks(old, old) == []
    nan = _conditions(cell_bound=(math.nan, 0.0), reverse_triangle=(None, 0.0))
    assert report_bytes.compare_checks(nan, nan) == []


def test_check_reports_that_differ_otherwise(report_bytes):
    old = _conditions(cell_bound=(1.0, 0.0))
    assert report_bytes.compare_checks(_conditions(cell_bound=(None, 0.0)), old) is None
    assert report_bytes.compare_checks(_conditions(step_lower_bound=(1.0, 0.0)), old) is None
    for key, value in (("passing", False), ("n_evaluated", 11), ("witnesses", [[1.0]])):
        changed = _conditions(cell_bound=(1.0, 0.0))
        changed["checks"]["cell_bound"][key] = value
        assert report_bytes.compare_checks(changed, old) is None, key
    changed = _conditions(cell_bound=(1.0, 0.0))
    changed["overall"] = "fail"
    assert report_bytes.compare_checks(changed, old) is None
    assert report_bytes.compare_checks(_report([]), old) is None


def test_verdict_lines_and_exit_code(report_bytes):
    old = "cell_bound: pass  estimate=1\nreverse_triangle: pass\nexit code 0\n"
    assert report_bytes.same_verdicts(
        "cell_bound: pass  estimate=1.00000001\nreverse_triangle: pass\nexit code 0\n", old)
    assert not report_bytes.same_verdicts(
        "cell_bound: pass  estimate=1\nreverse_triangle: FAIL\nexit code 0\n", old)
    assert not report_bytes.same_verdicts(
        "cell_bound: pass  estimate=1\nreverse_triangle: pass\nexit code 1\n", old)
    line = "cauchy(epsilon=0.2) [discrete] worst E = {} (+/- {}) at theta = {} -> {}\nexit code 0\n"
    assert report_bytes.same_verdicts(line.format(0.19, "1e-11", 0.3, "pass"),
                                      line.format(0.2, "2.5e-15", -4, "pass"))
    assert not report_bytes.same_verdicts(line.format(0.19, "1e-11", 0.3, "FAIL"),
                                          line.format(0.19, "1e-11", 0.3, "pass"))


def test_against_exit_status(report_bytes, tmp_path, capsys):
    """Two OUT_DIRs holding one run: a constant moved within CHECK_TOL
    passes; beyond it, or a changed verdict line, exits with 1."""
    name = "conditions.poisson"
    out, other = tmp_path / "out", tmp_path / "other"

    def write(where, constant, verdict="pass"):
        where.mkdir(exist_ok=True)
        (where / f"{name}.json").write_text(json.dumps(_conditions(cell_bound=(constant, 0.0))))
        (where / f"{name}.stdout").write_text(
            f"cell_bound: {verdict}  estimate={constant:.6g}\nexit code 0\n")

    write(other, 1.0)
    write(out, 1.0 + 5e-8)
    assert report_bytes._moves(out, other) == 0
    assert "cell_bound estimated_constant moved by 5e-08" in capsys.readouterr().out
    write(out, 1.0 + 2e-7)
    assert report_bytes._moves(out, other) == 1
    assert "EXCEEDS" in capsys.readouterr().out
    write(out, 1.0, verdict="FAIL")
    assert report_bytes._moves(out, other) == 1
    assert "verdict line or the exit code" in capsys.readouterr().out


def test_a_csv_report_may_move_only_with_its_json_twin(report_bytes, tmp_path, capsys):
    """A differing CSV report passes only where its JSON report moved and
    that move is accepted."""
    name = "conditions.poisson"
    out, other = tmp_path / "out", tmp_path / "other"

    def write(where, constant, csv_constant):
        where.mkdir(exist_ok=True)
        (where / f"{name}.json").write_text(json.dumps(_conditions(cell_bound=(constant, 0.0))))
        (where / f"{name}.csv").write_text(
            f"condition,estimated_constant\ncell_bound,{csv_constant!r}\n")
        (where / f"{name}.stdout").write_text("cell_bound: pass\nexit code 0\n")

    write(other, 1.0, 1.0)
    write(out, 1.0, 1.0)
    assert report_bytes._moves(out, other) == 0
    write(out, 1.0, 1.0 + 5e-8)
    assert report_bytes._moves(out, other) == 1
    assert "csv differs" in capsys.readouterr().out
    write(out, 1.0 + 5e-8, 1.0 + 5e-8)
    assert report_bytes._moves(out, other) == 0
    write(out, 1.0 + 2e-7, 1.0 + 2e-7)
    assert report_bytes._moves(out, other) == 1
    assert "csv differs" in capsys.readouterr().out
    (out / f"{name}.csv").unlink()
    assert report_bytes._moves(out, other) == 1
    assert "csv missing on one side" in capsys.readouterr().out


def test_a_check_report_that_differs_otherwise_names_each_field(report_bytes, tmp_path,
                                                               capsys):
    """Beyond constants and violations the check report is still refused
    (exit 1), and each differing field is printed with its old and new
    value: a check's own, the report's, and one a side lacks."""
    name = "conditions.poisson"
    out, other = tmp_path / "out", tmp_path / "other"
    old = _conditions(cell_sandwich=(None, 0.0), cell_bound=(1.0, 0.0))
    new = _conditions(cell_sandwich=(None, 0.0), cell_bound=(1.0, 0.0))
    new["checks"]["cell_sandwich"]["n_evaluated"] = 240
    new["seed"] = 2
    del new["checks"]["cell_bound"]["tolerance"]
    assert report_bytes.compare_checks(new, old) is None
    assert report_bytes.check_differences(new, old) == [
        ("seed", 1, 2), ("cell_sandwich n_evaluated", 10, 240),
        ("cell_bound tolerance", 1e-7, "absent")]
    for where, doc in ((other, old), (out, new)):
        where.mkdir()
        (where / f"{name}.json").write_text(json.dumps(doc))
    assert report_bytes._moves(out, other) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: differs beyond check constants and max violations",
        f"{name}: seed 1 -> 2",
        f"{name}: cell_sandwich n_evaluated 10 -> 240",
        f"{name}: cell_bound tolerance 1e-07 -> absent"]


def test_the_runs_cover_the_benchmark_and_the_bundles_it_never_builds(report_bytes):
    """The benchmark's 33 runs and 20 more, each under its own name; one
    of those takes Monte Carlo's per-draw read of a discrete law."""
    names = [name for name, *_ in report_bytes.runs()]
    assert len(names) == len(set(names)) == 53
    assert sum(name.startswith("extra.") for name in names) == 20
    assert "extra.mc.poisson.wide" in names


def test_every_report_is_the_bytes_of_json_dumps(report_bytes, tmp_path, capsys):
    """Each JSON report the runs write (the certify rows come from a
    per-row template) is ``json.dumps(sort_keys=True, indent=2)`` of its
    own content."""
    assert report_bytes.main([str(tmp_path)]) == 0
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) >= 40
    for path in reports:
        blob = path.read_bytes()
        assert blob == json.dumps(json.loads(blob), sort_keys=True, indent=2).encode(), path.name
