"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_KERNEL_S, Runner, _measured, _tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics the traced run must print (besides each layer's
#: self time).
NAMED_LAYER_METRICS = [
    "import.evarify.s", "import.scipy_stats.s", "cli.self_s",
    "families.make_bundle.s",
    "verifier.default_theta_grid.s", "verifier.spike_composite.self_s",
    "verifier.spike_suite.s", "verifier.spike_suite.cells", "verifier.spike_suite.us_per_cell",
    "verifier.sweep.self_s", "verifier.sweep.thetas",
    "verifier.sweep.rows.exact_sum", "verifier.sweep.rows.quadrature",
    "verifier.sweep.rows.monte_carlo",
    "verifier.expectation.calls", "verifier.expectation.monte_carlo.self_s",
    "verifier.expectation.quadrature.s", "verifier.expectation.exact_sum.s",
    "verifier.certify_interpolated_factor.s",
    "combinator.eval_many.s", "combinator.eval_many.samples",
    "combinator.eval_many.us_per_sample", "combinator.composite_call.calls",
    "combinator.components_from_specs.s", "combinator.combine_discrete.s",
    *[f"checker.{name}.{what}" for name in (
        "log_ratio_identity", "cell_sandwich", "cell_bound", "divergence_growth",
        "reverse_triangle", "step_lower_bound") for what in ("s", "n_evaluated")],
    "checker.default_cell_samples.s",
    "core.Estimator.index.calls",
    "mc_samples_per_s", "trace.overhead_s",
]


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)
    assert set(NAMED_LAYER_METRICS) <= {name for name, _ in tracing.LAYER_METRICS}


def test_op_lists():
    discrete = ["binomial.n64", "binomial.n10000", "discrete_uniform", "poisson",
                "continuous_uniform", "normal_mean.n1", "normal_mean.n16",
                "normal_variance.n64", "cauchy.eps0.2"]
    spikes = workloads.build("certify_spikes", 0)
    assert [op.name for op in spikes] == (
        [f"spikes.{name}" for name in discrete]
        + ["interpolated.cauchy.eps0.2", "interpolated.normal_mean.eps0.2"])
    assert all(op.argv[0] == "certify" and op.config is None for op in spikes)
    assert [op.argv[-2:] for op in spikes[-2:]] == [("--mode", "interpolated")] * 2

    conditions = workloads.build("check_conditions", 0)
    assert [op.name for op in conditions] == [f"conditions.{name}" for name in discrete]
    assert [op.argv[1:] for op in conditions] == [op.argv[1:-2] for op in spikes[:9]]

    sample = workloads.build("sample_eval", 0)
    mc = [op for op in sample if op.kind == "monte_carlo"]
    assert [op.name for op in mc] == [
        "mc.poisson", "mc.binomial.n64", "mc.normal_mean.n16", "mc.normal_variance.n64",
        "mc.interpolated.cauchy.eps0.2"]
    for op in mc:
        assert op.config["plan"] == {"method": "monte_carlo", "samples": 50_000}
        assert len(op.config["theta_grid"]["values"]) == 3
    generic = {op.name: op.config for op in sample if op.kind == "generic"}
    assert list(generic) == ["generic.poisson.lr_calibrated_p", "generic.normal_mean.n1.lr",
                             "generic.cauchy.eps0.2.lr"]
    poisson_types = {c["type"] for c in generic["generic.poisson.lr_calibrated_p"]["components"]}
    assert poisson_types == {"likelihood_ratio", "calibrated_p"}
    assert len(generic["generic.normal_mean.n1.lr"]["theta_grid"]["values"]) == 3
    assert len(generic["generic.cauchy.eps0.2.lr"]["theta_grid"]["values"]) == 1
    assert len(sample) == 8


def test_seed_feeds_every_op_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 1), workloads.build(workload, 2)
        assert a == workloads.build(workload, 1)
        assert [op.seed for op in a] != [op.seed for op in b]
        assert [op.config for op in a] == [op.config for op in b]


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(44)]
    percentile, value = _tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 34 / 44)


@pytest.fixture
def runner(tmp_path):
    def make(workload, names):
        ops = [op for op in workloads.build(workload, 0) if op.name in names]
        return Runner(ops, tmp_path, checks.load_reference())
    return make


def _report(runner, op):
    out = runner.workdir / f"{op.name}.json"
    rc, _ = runner.call(runner.argv(op, out))
    assert rc == 0
    return json.loads(out.read_bytes())


def test_corrupted_certify_report_fails(runner):
    r = runner("certify_spikes", {"spikes.discrete_uniform"})
    op = r.ops[0]
    report = _report(r, op)
    assert r.check(op, report) == []

    flipped = dict(report, verdict="fail")
    assert r.check(op, flipped)
    perturbed = dict(report, worst_value=report["worst_value"] * (1 + 1e-6))
    assert r.check(op, perturbed)


def test_corrupted_conditions_report_fails(runner):
    r = runner("check_conditions", {"conditions.poisson"})
    op = r.ops[0]
    report = _report(r, op)
    assert r.check(op, report) == []

    assert r.check(op, dict(report, overall="fail"))
    perturbed = copy.deepcopy(report)
    perturbed["checks"]["step_lower_bound"]["estimated_constant"] *= 1 + 1e-6
    assert r.check(op, perturbed)


def test_monte_carlo_check_against_exact(runner):
    r = runner("sample_eval", {"mc.binomial.n64"})
    r.prepare()
    op = r.ops[0]
    report = _report(r, op)
    assert r.check(op, report) == []

    off = copy.deepcopy(report)
    row = off["rows"][1]
    row["estimate"] += 10 * checks.MC_MULTIPLE * row["error_bound"] + 1e-3
    assert r.check(op, off)
    assert r.check(op, dict(report, verdict="fail"))


def test_run_pass_counts_corrupt_output_as_failure(runner, monkeypatch):
    r = runner("certify_spikes", {"spikes.discrete_uniform", "spikes.continuous_uniform"})
    r.run_pass(0)
    assert r.failures == [] and r.attempted == 2

    real = r.cli.run

    def lying(argv):
        rc = real(argv)
        out = Path(argv[argv.index("--out") + 1])
        report = json.loads(out.read_bytes())
        report["verdict"] = "fail"
        out.write_text(json.dumps(report))
        return rc
    monkeypatch.setattr(r.cli, "run", lying)
    r.run_pass(1)
    assert {f["op"] for f in r.failures} == {op.name for op in r.ops}
    problems = [p for f in r.failures for p in f["problems"]]
    assert any("differ from the first pass" in p for p in problems)
    assert any("verdict" in p for p in problems)


def test_measured_scales_wall_to_reference_speed(runner):
    r = runner("certify_spikes", {"spikes.discrete_uniform", "spikes.continuous_uniform"})
    # a deadline already past: one whole pass, no more
    result = _measured(r, r.ops, 0.0)
    assert result["passes"] == 1 and r.attempted == 2 and r.failures == []
    assert result["reference_kernel_samples"] == 3 and r.kernel_s is None
    assert result["wall_raw_s"] == pytest.approx(sum(result["pass_wall_s"]))
    assert result["metrics"]["wall_s"] == pytest.approx(
        result["wall_raw_s"] * REFERENCE_KERNEL_S / result["reference_kernel_s"])


def _traced_metrics(r) -> tuple[dict, tracing.Tracer]:
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        _, reports = r.run_pass(0, tracer)
    finally:
        restore()
    return tracing.layer_metrics(tracer, reports), tracer


def test_traced_pass_emits_every_layer_metric_and_repeats_counts(runner):
    from evarify import cli, combinator, core, verifier

    names = {"spikes.binomial.n64", "interpolated.normal_mean.eps0.2",
             "generic.normal_mean.n1.lr", "generic.poisson.lr_calibrated_p",
             "conditions.poisson", "conditions.binomial.n64"}
    ops = [op for w in ("certify_spikes", "sample_eval", "check_conditions")
           for op in workloads.build(w, 0) if op.name in names]
    r = runner("certify_spikes", set())
    r.ops = ops
    before = (cli.sweep, verifier.expectation, combinator.CompositeEVariable.__call__,
              core.RoundToNet.index)

    first, tracer = _traced_metrics(r)
    second, _ = _traced_metrics(r)

    assert (cli.sweep, verifier.expectation, combinator.CompositeEVariable.__call__,
            core.RoundToNet.index) == before
    computed_elsewhere = {"import.evarify.s", "import.scipy_stats.s",
                          "mc_samples_per_s", "trace.overhead_s"}
    assert set(first) == {name for name, _ in tracing.LAYER_METRICS} - computed_elsewhere
    counts = [name for name, unit in tracing.LAYER_METRICS if unit == "count" and name in first]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    for name in ("verifier.spike_suite.cells", "verifier.sweep.thetas",
                 "verifier.sweep.rows.exact_sum", "verifier.sweep.rows.quadrature",
                 "verifier.expectation.calls", "combinator.composite_call.calls",
                 "core.Estimator.index.calls", "checker.log_ratio_identity.n_evaluated",
                 "checker.cell_bound.n_evaluated", "checker.step_lower_bound.n_evaluated",
                 "verifier.certify_interpolated_factor.s", "checker.self_s", "cli.self_s"):
        assert first[name] > 0, name
    assert all(span.op is not None and span.end >= span.start for span in tracer.spans)
    assert {s.name for s in tracer.spans} >= {"cli.run", "verifier.sweep",
                                               "verifier.expectation.exact_sum",
                                               "verifier.expectation.quadrature"}


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.stats._a",
        "import time:       200 |        500 |       scipy.stats._b",
        "import time:        50 |        650 |     evarify.verifier",
        "import time:        10 |        700 |   evarify",
    ])
    assert tracing.parse_importtime(text) == pytest.approx(
        {"import.evarify.s": 700e-6, "import.scipy_stats.s": 600e-6})


def test_run_refuses_a_tree_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify_spikes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
