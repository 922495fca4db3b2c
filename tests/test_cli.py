"""CLI: exit codes, report files, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from evarify.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, _build_parser, run


class TestExitCodes:
    def test_list_families(self, capsys):
        assert run(["list-families"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "poisson" in out and "cauchy" in out

    def test_certify_pass(self):
        assert run(["certify", "--family", "discrete_uniform",
                    "--suite", "spikes", "--seed", "7"]) == EXIT_PASS

    def test_certify_ones(self):
        assert run(["certify", "--family", "discrete_uniform",
                    "--suite", "ones"]) == EXIT_PASS

    def test_counterexample_demonstrates_violation(self, capsys):
        code = run(["counterexample", "--family", "poisson", "--lambda", "100"])
        assert code == EXIT_FAIL
        out = capsys.readouterr().out
        assert "25.0" in out  # approx sqrt(200 pi)

    def test_check_conditions_pass(self):
        assert run(["check-conditions", "--family", "poisson"]) == EXIT_PASS

    def test_unknown_family_is_config_error(self, capsys):
        assert run(["certify", "--family", "gamma"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "poisson" in err  # the message names the valid ids

    def test_missing_family_is_config_error(self):
        assert run(["certify"]) == EXIT_CONFIG

    def test_bad_subcommand_is_config_error(self):
        assert run(["frobnicate"]) == EXIT_CONFIG

    def test_counterexample_other_family_rejected(self):
        assert run(["counterexample", "--family", "cauchy",
                    "--lambda", "3"]) == EXIT_CONFIG

    def test_bad_epsilon_rejected(self):
        assert run(["certify", "--family", "cauchy",
                    "--epsilon", "0.4"]) == EXIT_CONFIG

    def test_epsilon_rejected_for_a_family_without_one(self, capsys):
        assert run(["certify", "--family", "poisson",
                    "--epsilon", "0.1"]) == EXIT_CONFIG
        assert "epsilon" in capsys.readouterr().err

    def test_binomial_without_n_rejected(self):
        assert run(["check-conditions", "--family", "binomial"]) == EXIT_CONFIG

    def test_non_numeric_flag_rejected(self):
        assert run(["certify", "--family", "binomial", "--n", "many"]) == EXIT_CONFIG


#: runs in one process that share its parser: a certify, a check with
#: other flags, a flag the subcommand does not take, the first again
_ONE_PROCESS_CALLS = [
    ["certify", "--family", "discrete_uniform", "--suite", "spikes", "--seed", "7",
     "--out", "report"],
    ["check-conditions", "--family", "cauchy", "--epsilon", "0.2", "--format", "csv",
     "--out", "report"],
    ["check-conditions", "--family", "poisson", "--lambda", "3", "--out", "report"],
    ["certify", "--family", "discrete_uniform", "--suite", "spikes", "--seed", "7",
     "--out", "report"],
]

#: each call of argv lists read from stdin, in one process: its standard
#: output and error, exit code and report (then removed), as JSON
_RUN_EACH = """
import contextlib, io, json, os, sys
from evarify.cli import run
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    report = open("report").read() if os.path.exists("report") else None
    if report is not None:
        os.remove("report")
    results.append([out.getvalue(), err.getvalue(), code, report])
print(json.dumps(results))
"""


class TestOneParserPerProcess:
    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_in_one_process_equal_separate_processes(self, tmp_path):
        """Outputs, exit codes and reports of calls sharing one process
        (and so one parser) equal those of each call in a process of its
        own."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}

        def in_one_process(calls):
            done = subprocess.run([sys.executable, "-c", _RUN_EACH], input=json.dumps(calls),
                                  capture_output=True, text=True, check=True, cwd=tmp_path,
                                  env=env)
            return json.loads(done.stdout)

        shared = in_one_process(_ONE_PROCESS_CALLS)
        separate = [in_one_process([argv])[0] for argv in _ONE_PROCESS_CALLS]
        assert [code for *_, code, _ in shared] == [EXIT_PASS, EXIT_PASS, EXIT_CONFIG, EXIT_PASS]
        assert "--lambda" in shared[2][1] and shared[2][3] is None
        assert shared == separate
        assert shared[0] == shared[3]


class TestReports:
    def test_json_report_written_and_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["certify", "--family", "discrete_uniform", "--suite", "spikes",
                "--seed", "42"]
        assert run(args + ["--out", str(out1)]) == EXIT_PASS
        assert run(args + ["--out", str(out2)]) == EXIT_PASS
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["verdict"] == "pass"
        assert doc["rng_seed"] == 42
        assert doc["rows"]

    def test_different_seed_recorded(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = ["certify", "--family", "discrete_uniform", "--suite", "spikes"]
        run(base + ["--seed", "1", "--out", str(out1)])
        run(base + ["--seed", "2", "--out", str(out2)])
        assert json.loads(out1.read_text())["rng_seed"] == 1
        assert json.loads(out2.read_text())["rng_seed"] == 2

    def test_csv_report(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["certify", "--family", "discrete_uniform", "--suite",
                    "spikes", "--out", str(out), "--format", "csv"]) == EXIT_PASS
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,estimate,error_bound,method"
        assert len(lines) > 10

    def test_check_conditions_report(self, tmp_path):
        out = tmp_path / "checks.json"
        assert run(["check-conditions", "--family", "cauchy", "--epsilon",
                    "0.2", "--out", str(out)]) == EXIT_PASS
        doc = json.loads(out.read_text())
        assert doc["overall"] == "pass"
        assert doc["checks"]["cell_bound"]["estimated_constant"] <= 0.694

    def test_counterexample_report(self, tmp_path):
        out = tmp_path / "ce.json"
        assert run(["counterexample", "--family", "poisson", "--lambda",
                    "100", "--out", str(out)]) == EXIT_FAIL
        doc = json.loads(out.read_text())
        assert doc["violates"] is True
        assert doc["expectation"] == pytest.approx(25.0557877, rel=1e-6)


class TestConfigFile:
    def test_config_supplies_values_with_decimal_strings(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": {"name": "cauchy", "params": {"epsilon": "0.2"}},
            "suite": "spikes",
            "seed": 3,
            "theta_grid": {"values": ["0.0", "0.5", "10.0"]},
        }))
        out = tmp_path / "rep.json"
        assert run(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        doc = json.loads(out.read_text())
        assert [r["theta"] for r in doc["rows"]] == [0.0, 0.5, 10.0]
        assert doc["rng_seed"] == 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": {"name": "discrete_uniform"}, "seed": 3,
        }))
        out = tmp_path / "rep.json"
        assert run(["certify", "--config", str(cfg), "--seed", "9",
                    "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["rng_seed"] == 9

    def test_missing_config_file(self):
        assert run(["certify", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG

    def test_interpolated_mode(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": {"name": "cauchy", "params": {"epsilon": "0.1"}},
            "mode": {"kind": "interpolated"},
            "theta_grid": {"values": [0.0, 0.25, 0.5]},
        }))
        assert run(["certify", "--config", str(cfg)]) == EXIT_PASS

    def test_interpolated_mode_rejects_poisson(self):
        assert run(["certify", "--family", "poisson", "--mode",
                    "interpolated"]) == EXIT_CONFIG

    def test_interpolated_mode_rejects_components(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": {"name": "cauchy", "params": {"epsilon": "0.2"}},
            "mode": {"kind": "interpolated"},
            "components": [{"index": 0, "type": "constant", "value": "50"}],
            "theta_grid": {"values": [0.0]},
        }))
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        assert "components" in capsys.readouterr().err

    def test_interpolated_mode_rejects_the_ones_suite(self, capsys):
        assert run(["certify", "--family", "cauchy", "--epsilon", "0.2",
                    "--mode", "interpolated", "--suite", "ones"]) == EXIT_CONFIG
        assert "spikes" in capsys.readouterr().err


class TestWideScaleGrids:
    """On a scale grid from 1e-10 to 1e300 the statistic over the scale
    overflows to inf, a CDF of 1: certify warns nothing, with warnings
    raised as errors, and its rows are those it gave while it warned,
    with the bounds of one piece per run of a level; normal_variance's
    rows read the band of pieces their windows meet (both rows lie within
    their bounds of mpmath: ``test_verifier.TestRunsOfOneLevelAgainstMpmath``)."""

    @pytest.mark.parametrize("family,rows", [
        ({"name": "continuous_uniform"},
         [(1e-10, 0.6666666666666555, 1.5000000000000001e-15),
          (1e300, 0.6666666666666666, 1.5000000000000001e-15)]),
        ({"name": "normal_variance", "params": {"n": 4}},
         [(1e-10, 0.04122037850977029, 2.4967116979749933e-14),
          (1e300, 0.04122037850976495, 2.6749104482807802e-14)]),
    ])
    def test_no_overflow_warning(self, tmp_path, family, rows):
        import warnings

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": family,
                                   "theta_grid": {"values": [1e-10, 1e300]}}))
        out = tmp_path / "rep.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        doc = json.loads(out.read_text())
        assert [(r["theta"], r["estimate"], r["error_bound"]) for r in doc["rows"]] == rows


class TestMalformedPlanAndGrid:
    @pytest.mark.parametrize("config,field", [
        ({"plan": {"method": "monte_carlo", "samples": 0}}, "mc_samples"),
        ({"plan": {"method": "monte_carlo", "samples": -5}}, "mc_samples"),
        ({"plan": {"method": "monte_carlo", "samples": 1}}, "mc_samples"),
        ({"plan": {"abs_tol": "-1"}}, "abs_tol"),
        ({"mode": {"kind": "interpolated", "epsilon": "0.1"}}, "mode.epsilon"),
        ({"plan": {"bogus": 1}}, "plan.bogus"),
        ({"mode": {"kind": "discrete", "bogus": 1}}, "mode.bogus"),
        ({"theta_grid": {"values": []}}, "theta_grid"),
        ({"theta_grid": {"values": []}, "mode": {"kind": "interpolated"}}, "theta_grid"),
        ({"theta_grid": {"values": [-1.0]}}, "theta_grid values"),
        ({"theta_grid": [4.0]}, "theta_grid"),
        ({"theta_grid": {"kind": "other"}}, "theta_grid"),
        ({"theta_grid": {"kind": "other", "values": [4.0]}}, "theta_grid"),
        ({"theta_grid": {"values": [None]}}, "theta_grid values"),
        ({"plan": {"tail_mass": None}}, "plan.tail_mass"),
        ({"plan": {"abs_tol": None}}, "plan.abs_tol"),
        ({"plan": {"samples": None}}, "plan.samples"),
        ({"family": {"name": "normal_mean", "params": {"n": None}}}, "family.params.n"),
        ({"plan": None}, "plan must be a JSON object"),
        ({"mode": None}, "mode must be a JSON object"),
        ({"output": None}, "output must be a JSON object"),
        ({"family": {"name": "poisson", "params": None}}, "family.params must be"),
        ({"seed": None}, "seed"),
        ({"components": None}, "components must be a list"),
        ({"components": [3]}, "components[0] needs"),
        ({"components": [{"index": None, "type": "spike"}]}, "components[0].index"),
        ({"components": [{"index": 2, "type": "constant", "value": None}]},
         "components[0].value"),
        ({"components": [{"index": 2, "type": "likelihood_ratio"}]},
         "components[0].alternative"),
        ({"components": [{"index": 2, "type": "spike"}, {"index": 3, "type": "calibrated_p"}]},
         "components[1].kappa"),
        ({"components": [{"index": 2.7, "type": "spike"}]}, "components[0].index"),
        ({"components": [{"index": float("inf"), "type": "spike"}]}, "components[0].index"),
        ({"components": [{"index": 2, "type": "constant", "value": "inf"}]},
         "components[0].value"),
        ({"components": [{"index": 2, "type": "constant", "value": "nan"}]},
         "components[0].value"),
        ({"family": {"name": "binomial", "params": {"n": 64.5}}}, "family.params.n"),
        ({"plan": {"samples": 1000.7}}, "plan.samples"),
        ({"seed": 7.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"plan": {"tail_mass": "inf"}}, "plan.tail_mass"),
        ({"plan": {"tail_mass": "1e-17"}}, "tail_mass"),
        ({"family": {"name": ["poisson"]}}, "family.name"),
        ({"family": {"name": {"a": 1}}}, "family.name"),
        ({"components": [{"index": True, "type": "spike"}]}, "components[0].index"),
        ({"family": {"name": "normal_mean", "n": 16}}, "family.n"),
        ({"theta_gird": {"values": [1.0]}}, "theta_gird"),
        ({"family": {"name": "poisson", "params": {"bogus": 1}}}, "family.params.bogus"),
        ({"command": "check-conditions"}, "command"),
        ({"components": [{"index": 10**20, "type": "spike"}]}, "components[0].index"),
        ({"components": [{"index": -2**53, "type": "constant"}]}, "components[0].index"),
        ({"family": {"name": "normal_mean", "params": {"alpha": 1e160}}},
         "family.params.alpha"),
        ({"family": {"name": "normal_mean", "params": {"alpha": 1e-300}}},
         "family.params.alpha"),
        # one theta: a tree without the limit draws 2**24 + 1 values once
        ({"plan": {"method": "monte_carlo", "samples": 2**24 + 1},
          "theta_grid": {"values": [1.0]}}, "mc_samples"),
    ], ids=["no_samples", "negative_samples", "one_sample", "negative_abs_tol",
            "epsilon_is_no_mode_key", "unknown_plan_key", "unknown_mode_key",
            "empty_grid", "empty_grid_interpolated", "theta_outside_the_space",
            "grid_as_a_list", "unknown_grid_kind", "grid_kind_beside_values",
            "null_theta", "null_tail_mass", "null_abs_tol", "null_samples", "null_n",
            "null_plan", "null_mode",
            "null_output", "null_params", "null_seed", "null_components",
            "component_not_an_object", "null_component_index", "null_constant_value",
            "ratio_without_alternative", "calibrated_p_without_kappa",
            "non_integral_index", "infinite_index", "infinite_constant", "nan_constant",
            "non_integral_n", "non_integral_samples", "non_integral_seed", "bool_seed",
            "infinite_tail_mass", "bool_index", "tail_mass_below_2_51",
            "family_name_a_list", "family_name_an_object", "n_outside_params",
            "misspelt_theta_grid", "unknown_param", "command_of_another_subcommand",
            "index_beyond_int64", "index_at_the_net_limit", "alpha_squared_overflows",
            "alpha_squared_underflows", "samples_above_2_24"])
    def test_exits_3_naming_the_field(self, tmp_path, capsys, config, field):
        """Each malformed plan, grid or component spec, and each null where
        a number or an object belongs, and each key outside the schema, is
        a configuration error with a message that names it, before the
        verdict line; a malformed grid is caught before any composite is
        built from it."""
        family = ({"name": "cauchy", "params": {"epsilon": "0.2"}}
                  if config.get("mode") else {"name": "poisson"})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": family, "suite": "spikes", **config}))
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and field in err and "Traceback" not in err
        assert "2**53" not in err

    @pytest.mark.parametrize("argv,config,field", [
        (["check-conditions"], {"family": {"name": "poisson"}, "theta_grid": 5}, "theta_grid"),
        (["check-conditions", "--n", "3"], {"family": {"name": "normal_mean", "params": 5}},
         "family.params"),
        (["counterexample", "--lambda", "5"], {"family": {"name": "poisson"}, "plan": []},
         "plan"),
    ], ids=["grid_not_an_object", "flag_over_params_not_an_object", "plan_a_list"])
    def test_the_whole_file_is_read_before_any_work(self, tmp_path, capsys, argv, config,
                                                    field):
        """Every subcommand walks the whole file against one schema when it
        loads, keys it does not read included, before any flag is laid
        over it: each of these exits 3 with no output, naming the key."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert run([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and field in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,code", [
        (["certify"], EXIT_PASS), (["check-conditions"], EXIT_PASS),
        (["counterexample", "--lambda", "5"], EXIT_FAIL)])
    def test_keys_of_other_subcommands_are_accepted(self, tmp_path, argv, code):
        """One file serves every subcommand; ``command`` may name the one
        that runs."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "family": {"name": "poisson"}, "suite": "spikes", "mode": {"kind": "discrete"},
            "theta_grid": {"values": [4.0]}, "plan": {"method": "auto"}, "seed": 3,
            "lambda": "5", "output": {"format": "json"}, "components": [],
            "command": argv[0]}))
        assert run([*argv, "--config", str(cfg)]) == code

    def test_the_readme_schema_is_the_config_schema(self, tmp_path):
        """The README's schema block passes the config reader and holds
        each of its keys (``theta_grid.values``, the alternative to
        ``kind``, in the text below it), so the two cannot drift apart."""
        import re
        from pathlib import Path

        from evarify.cli import _SCHEMA, _load_config

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"Schema \(.*?\n```json\n(.*?)\n```", readme, re.S).group(1)
        cfg = tmp_path / "run.json"
        cfg.write_text(block)
        doc = json.loads(block)
        assert _load_config(str(cfg)) == doc

        def keys(node):
            return {k: keys(v) if isinstance(v, dict) else None for k, v in node.items()}
        assert keys(doc) == {**_SCHEMA, "theta_grid": {"kind": None}}
        assert '`theta_grid` is `{"kind": "default"}`' in readme
        assert '`{"values": [...]}`' in readme

    @pytest.mark.parametrize("flag,value", [
        ("--suite", "other"), ("--mode", "other"), ("--format", "xml"), ("--seed", "x")])
    def test_a_flag_is_checked_as_its_key(self, tmp_path, capsys, flag, value):
        """A flag's value and its key's give the same configuration error."""
        path = {"--suite": ("suite",), "--mode": ("mode", "kind"),
                "--format": ("output", "format"), "--seed": ("seed",)}[flag]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(_set({"family": {"name": "poisson"}}, path, value)))
        errors = []
        for argv in (["--config", str(cfg)], ["--family", "poisson", flag, value]):
            assert run(["certify", *argv]) == EXIT_CONFIG
            out, err = capsys.readouterr()
            errors.append(err)
            assert out == "" and "Traceback" not in err
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("lam", ["inf", "nan", "1e400"])
    def test_a_rate_that_is_not_finite_exits_3(self, capsys, lam):
        """The counterexample's rate goes through the same number parser
        as every config field: not finite is a configuration error."""
        assert run(["counterexample", "--family", "poisson", "--lambda", lam]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "lambda" in err and "Traceback" not in err

    @pytest.mark.parametrize("values,field", [
        ([], "theta_grid holds no value"), ([None], "theta_grid values"),
        ([0.5, "x"], "theta_grid values")])
    def test_interpolated_grid_checked_before_the_factor(
            self, tmp_path, capsys, monkeypatch, values, field):
        """The interpolated factor takes no grid, so the CLI checks the
        grid itself, before it computes the factor."""
        from evarify import cli

        def no_factor(*args, **kwargs):
            raise AssertionError("the factor was computed")
        monkeypatch.setattr(cli, "certify_interpolated_factor", no_factor)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": {"name": "cauchy", "params": {"epsilon": "0.2"}},
                                   "mode": {"kind": "interpolated"},
                                   "theta_grid": {"values": values}}))
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_a_rate_beyond_the_window_limit_exits_3(self, capsys):
        """lambda = 1e18 once asked numpy for 6.9 EiB and exited 1."""
        assert run(["counterexample", "--family", "poisson", "--lambda", "1e18"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "lambda" in err and "Traceback" not in err

    def test_null_epsilon_means_no_epsilon(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": {"name": "cauchy", "params": {"epsilon": None}},
                                   "theta_grid": {"values": [0.5]}}))
        out = tmp_path / "rep.json"
        assert run(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["bundle_id"] == "cauchy"


    def test_an_integral_float_index_is_that_index(self, tmp_path):
        """"index": 2.0 selects net index 2, as "index": 2 does."""
        reports = []
        for index in (2, 2.0, "2"):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({
                "family": {"name": "poisson"}, "theta_grid": {"values": [4.0]},
                "components": [{"index": index, "type": "spike"}]}))
            out = tmp_path / "rep.json"
            assert run(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]


class TestOutputReadFirst:
    @pytest.mark.parametrize("output", [None, {"format": "xml"}, {"path": 3}],
                             ids=["null", "unknown_format", "path_not_a_string"])
    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "poisson"], ["check-conditions", "--family", "poisson"],
        ["counterexample", "--family", "poisson", "--lambda", "5"]],
        ids=["certify", "check_conditions", "counterexample"])
    def test_bad_output_exits_3_before_any_work(self, tmp_path, capsys, argv, output):
        """The output section is read with the rest of the config: a bad
        one exits 3 naming it, before a sweep, a check or the verdict line
        runs (stdout stays empty)."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta_grid": {"values": [1.0]}, "output": output}))
        assert run([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "output" in err and "Traceback" not in err


class TestSeedDomain:
    @pytest.mark.parametrize("command", ["certify", "check-conditions"])
    @pytest.mark.parametrize("seed,code", [("-1", EXIT_CONFIG), (str(2**64), EXIT_CONFIG),
                                           (str(2**64 - 1), EXIT_PASS)],
                             ids=["minus_1", "2_64", "2_64_minus_1"])
    def test_seeds_in_0_to_2_64_run_and_no_other(self, capsys, command, seed, code):
        """Both commands take the seeds in [0, 2**64) and exit 3 naming the
        seed for any other, where check-conditions once raised numpy's
        ValueError at -1 and certify ran -1 as 2**64 - 1."""
        assert run([command, "--family", "poisson", f"--seed={seed}"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and (code == EXIT_PASS or "seed" in err)

    def test_a_seed_of_2_64_minus_1_draws_its_own_monte_carlo_stream(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": {"name": "poisson"},
                                   "theta_grid": {"values": [4.0]},
                                   "plan": {"method": "monte_carlo", "samples": 1000}}))
        rows = []
        for seed in (2**64 - 1, 0):
            out = tmp_path / f"{seed}.json"
            assert run(["certify", "--config", str(cfg), "--seed", str(seed),
                        "--out", str(out)]) == EXIT_PASS
            rows.append(json.loads(out.read_text())["rows"])
        assert rows[0] != rows[1]


class TestOutputPath:
    def test_a_missing_directory_exits_3_before_any_work(self, tmp_path, capsys):
        """The directory is checked with the rest of the config: no sweep
        runs (stdout stays empty), where a whole sweep once ran before a
        FileNotFoundError traceback."""
        out = tmp_path / "no_such_dir" / "x.json"
        assert run(["certify", "--family", "poisson", "--out", str(out)]) == EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == "" and "output.path" in err and "Traceback" not in err

    def test_a_failed_write_exits_3_naming_the_path(self, tmp_path, capsys):
        """A path that is a directory passes the check and fails the write:
        exit 3 naming output.path, not an OSError traceback."""
        assert run(["check-conditions", "--family", "poisson",
                    "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output.path" in err and "Traceback" not in err


class TestIndicesBeyondFloatResolution:
    @pytest.mark.parametrize("family,theta", [
        ({"name": "normal_mean", "params": {"n": 16}}, 1e25),
        ({"name": "cauchy"}, 1e19),
    ])
    def test_theta_whose_net_index_reaches_2_53_is_a_config_error(
            self, tmp_path, capsys, family, theta):
        """Net points this far out are no longer distinct floats: the run
        exits 3 at once, naming the limit, where the net's index search
        once stepped through about ulp(theta) / spacing indices."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": family, "theta_grid": {"values": [theta]}}))
        start = time.perf_counter()
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 5.0
        assert "2**53" in capsys.readouterr().err

    @pytest.mark.parametrize("family,theta", [
        ({"name": "normal_mean", "params": {"epsilon": 0.2}}, 9e15),
        ({"name": "cauchy", "params": {"epsilon": 0.2}}, 2e16),
        ({"name": "cauchy", "params": {"epsilon": 0.2}}, 1e20),
    ])
    def test_interpolated_row_past_float_resolution_is_a_config_error(
            self, tmp_path, capsys, family, theta):
        """The periodic composite's copies there are no longer distinct
        floats: the run exits 3 naming theta, where it once passed at
        worst E = -2 (9e15) or ended in a traceback."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": family, "theta_grid": {"values": [theta]}}))
        assert run(["certify", "--mode", "interpolated", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"theta = {theta!r}" in capsys.readouterr().err


class TestScaleFamiliesAtTheBottomOfTheFloats:
    """Where a scale family's window or net points underflow, the spike
    envelope keeps to the open support and to points in the parameter
    space: each theta passes or exits 3 naming theta, with warnings
    raised as errors."""

    def _certify(self, tmp_path, family, theta, plan=None):
        import warnings

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": family, "theta_grid": {"values": [theta]},
                                   **({"plan": plan} if plan else {})}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(["certify", "--config", str(cfg)])

    @pytest.mark.parametrize("family,theta", [
        ({"name": "normal_variance", "params": {"n": 1}}, 1e-300),
        ({"name": "continuous_uniform"}, 5e-324),
    ])
    def test_passes_where_the_window_or_the_points_underflow(self, tmp_path, capsys,
                                                             family, theta):
        """The window's lower end underflows to the support's end 0, and
        the envelope's lowest points to 0.0: once an exit 3 about the
        geometric net's domain, or a zero-probability cell after a
        divide warning."""
        assert self._certify(tmp_path, family, theta) == EXIT_PASS
        assert "-> pass" in capsys.readouterr().out

    @pytest.mark.parametrize("family,theta,plan", [
        ({"name": "normal_variance", "params": {"n": 4}}, 5e-324, None),
        ({"name": "normal_variance", "params": {"n": 64}}, 5e-324, None),
        ({"name": "normal_variance", "params": {"n": 4}}, 1e-320,
         {"method": "monte_carlo", "samples": 1000, "tail_mass": 1e-6}),
    ])
    def test_points_that_are_not_distinct_floats_exit_3_naming_theta(
            self, tmp_path, capsys, family, theta, plan):
        """Below the normal floats consecutive points round to one value,
        so a cell between them is empty: exit 3 naming theta."""
        assert self._certify(tmp_path, family, theta, plan) == EXIT_CONFIG
        assert f"theta = {theta!r}" in capsys.readouterr().err


def _set(cfg: dict, path: tuple, value) -> dict:
    """A copy of ``cfg`` with ``value`` at the key ``path`` names."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return cfg


#: (subcommand, flag, value, the config key it sets, the rest of the config)
_FLAG_CASES = [
    (command, flag, value, path, base)
    for command in ("certify", "check-conditions")
    for flag, value, path, base in [
        ("--family", "poisson", ("family", "name"), {}),
        ("--n", "16", ("family", "params", "n"), {"family": {"name": "normal_mean"}}),
        ("--alpha", "2.0", ("family", "params", "alpha"), {"family": {"name": "normal_mean"}}),
        ("--epsilon", "0.1", ("family", "params", "epsilon"), {"family": {"name": "cauchy"}}),
        ("--seed", "5", ("seed",), {"family": {"name": "poisson"}}),
        ("--format", "csv", ("output", "format"), {"family": {"name": "poisson"}}),
    ]
] + [
    ("certify", "--suite", "ones", ("suite",), {"family": {"name": "poisson"}}),
    ("certify", "--mode", "interpolated", ("mode", "kind"),
     {"family": {"name": "cauchy", "params": {"epsilon": "0.2"}}}),
]


class TestEachFlagIsOneConfigKey:
    @pytest.mark.parametrize("command,flag,value,path,base", _FLAG_CASES,
                             ids=[f"{c[0]}{c[1]}" for c in _FLAG_CASES])
    def test_flag_and_config_key_give_the_same_report(
            self, tmp_path, capsys, command, flag, value, path, base):
        base = {**base, "theta_grid": {"values": [0.5, 1.0, 4.0]}}
        runs = []
        for name, cfg, argv in [("flag", base, [flag, value]),
                                ("key", _set(base, path, value), [])]:
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
            out = tmp_path / f"{name}.report"
            code = run([command, "--config", str(tmp_path / f"{name}.json"),
                        "--out", str(out), *argv])
            runs.append((code, capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_PASS

    @pytest.mark.parametrize("command", ["certify", "check-conditions", "counterexample"])
    def test_out_flag_and_output_path_write_the_same_report(self, tmp_path, command):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": {"name": "poisson"}, "lambda": "5",
                                   "output": {"path": str(tmp_path / "key.json")}}))
        run([command, "--config", str(cfg)])
        run([command, "--config", str(cfg), "--out", str(tmp_path / "flag.json")])
        assert (tmp_path / "flag.json").read_bytes() == (tmp_path / "key.json").read_bytes()

    def test_an_empty_out_path_exits_3(self, capsys):
        assert run(["certify", "--family", "poisson", "--out", ""]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "output" in err

    def test_interpolated_epsilon_from_config_as_from_flags(self, tmp_path, capsys):
        """The interpolated composite's epsilon is the family's when the
        mode gives none, from a config file as from flags (a config once
        certified the epsilon = 0.2 composite under an epsilon = 0.05
        header)."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": {"name": "cauchy", "params": {"epsilon": "0.05"}},
                                   "mode": {"kind": "interpolated"}}))
        runs = []
        for argv in (["--config", str(cfg)],
                     ["--family", "cauchy", "--epsilon", "0.05", "--mode", "interpolated"]):
            out = tmp_path / "rep.json"
            code = run(["certify", *argv, "--out", str(out)])
            runs.append((code, capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]
        assert "cauchy(epsilon=0.05) [interpolated] worst E = 1.00000163" in runs[0][1]

    def test_the_family_epsilon_sets_the_composite(self, tmp_path):
        """The family's epsilon is the interpolated composite's: the rows
        follow it (a mode.epsilon once set the composite apart from the
        family's, and is now a configuration error)."""
        reports = []
        for eps in ("0.05", "0.2"):
            out = tmp_path / f"{eps}.json"
            assert run(["certify", "--family", "cauchy", "--epsilon", eps, "--mode",
                        "interpolated", "--out", str(out)]) == EXIT_PASS
            reports.append(json.loads(out.read_text()))
        assert reports[0]["rows"] != reports[1]["rows"]
        assert reports[0]["factor_C"] == reports[1]["factor_C"]

    @pytest.mark.parametrize("family", ["cauchy", "normal_mean"])
    def test_the_factor_covers_an_epsilon_outside_the_default_set(self, tmp_path, family):
        """At epsilon = 0.01 the factor is at least that composite's own
        sup over every theta plus its bound, and the default grid passes;
        the factor once came from 0.05, 0.1 and 0.2 alone, and the run
        exited 2 at worst E = 1.0204."""
        from evarify import make_bundle
        from evarify.fourier import periodic_sup
        from evarify.combinator import interpolated_spike_composite
        from evarify.verifier import certify_interpolated_factor

        out = tmp_path / "rep.json"
        assert run(["certify", "--family", family, "--epsilon", "0.01", "--mode",
                    "interpolated", "--out", str(out)]) == EXIT_PASS
        b = make_bundle(family, epsilon=0.01)
        sup, bound = periodic_sup(interpolated_spike_composite(b, 0.01, 1.0).piecewise,
                                  b.family.law)
        factor = json.loads(out.read_text())["factor_C"]
        assert factor >= sup + bound > certify_interpolated_factor(b)[0]

    @pytest.mark.parametrize("argv", [
        ["list-families", "--seed", "3"], ["list-families", "--config", "run.json"],
        ["counterexample", "--family", "poisson", "--lambda", "5", "--n", "5"],
        ["counterexample", "--family", "poisson", "--lambda", "5", "--seed", "1"],
        ["counterexample", "--family", "poisson", "--lambda", "5", "--epsilon", "0.1"],
        ["counterexample", "--family", "poisson", "--lambda", "5", "--alpha", "1"],
        ["check-conditions", "--family", "poisson", "--mode", "discrete"],
        ["certify", "--family", "poisson", "--lambda", "5"]])
    def test_a_flag_the_subcommand_does_not_read_exits_3(self, capsys, argv):
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err

    def test_a_partial_plan_takes_the_other_defaults(self):
        from evarify.cli import _plan_from
        from evarify.verifier import ExpectationPlan

        assert _plan_from({}) == ExpectationPlan()
        assert _plan_from({"plan": {"tail_mass": "1e-13"}}) == ExpectationPlan(tail_mass=1e-13)
        assert _plan_from({"plan": {"method": "monte_carlo", "samples": 500}, "seed": 4}) == \
            ExpectationPlan(method="monte_carlo", mc_samples=500, seed=4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSizesBeyondTheLimits:
    @pytest.mark.parametrize("family", ["binomial", "normal_mean", "normal_variance"])
    def test_an_n_that_sizes_an_array_exits_3_naming_it(self, capsys, family):
        """n = 10**12 once ended in numpy's MemoryError traceback (exit
        1): the binomial's maker holds all n + 1 counts (at most 2**22
        trials), the checker lifts statistics to n-vectors (at most 2**24
        values), and the normal bundles themselves still build."""
        assert run(["check-conditions", "--family", family, "--n", str(10**12)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "family.params.n: 1000000000000" in err and "Traceback" not in err

    @pytest.mark.parametrize("family,theta,what", [
        ({"name": "poisson"}, 1e12, "NaN"),
        *(({"name": "normal_variance", "params": {"n": n}}, theta, "past the largest float")
          for n, theta in [(4, 3e306), (4, 1e307), (4, 1e308), (4, 1.7e308), (10**4, 1.7e308)])])
    def test_a_theta_whose_quantile_is_not_finite_exits_3_naming_it(self, tmp_path, capsys,
                                                                    family, theta, what):
        """The Poisson's quantile is NaN at lambda = 1e12, where the run
        once blamed a net index beyond 2**53; normal_variance's upper
        quantile overflows to inf near the top of the floats, where the
        run once warned of overflows in the quantile and the cell edges,
        then blamed cell 1748's zero probability."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": family, "theta_grid": {"values": [theta]}}))
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"theta = {theta!r}" in err and f"quantile is {what}" in err
        assert "2**53" not in err and "zero probability" not in err

    @pytest.mark.parametrize("theta", [2e306, 2.5e306])
    def test_a_theta_whose_top_cells_reach_past_half_the_largest_float_certifies(
            self, tmp_path, capsys, theta):
        """normal_variance n = 4 just below the refused band: the window
        is finite, but the spikes reach net points whose sum overflows.
        The midpoints between them once overflowed to inf (a warning at
        2.5e306), and n v / theta overflowed in the chi-square CDF, so
        the run exited 3 blaming cell 1748's zero probability.  Now
        every row is finite and the run passes."""
        cfg, out = tmp_path / "run.json", tmp_path / "rep.json"
        cfg.write_text(json.dumps({"family": {"name": "normal_variance", "params": {"n": 4}},
                                   "theta_grid": {"values": [theta]}}))
        assert run(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        assert "zero probability" not in capsys.readouterr().err
        rows = json.loads(out.read_text())["rows"]
        assert [r["theta"] for r in rows] == [theta]
        assert all(math.isfinite(r[k]) for r in rows for k in ("estimate", "error_bound"))


class TestNetIndicesBeyondTheFloats:
    @pytest.mark.parametrize("n", [64, 5])
    @pytest.mark.parametrize("component", [
        {"index": 100000, "type": "spike"},
        {"index": 100000, "type": "likelihood_ratio", "alternative": "2.0"}],
        ids=["spike", "likelihood_ratio"])
    def test_a_component_past_the_largest_float_exits_3(self, tmp_path, capsys, n, component):
        """Its net point is inf: a spike names the index before any CDF
        call (inf / inf once warned and blamed a zero-probability cell), a
        likelihood ratio a parameter outside the space, where the exact
        power once overflowed."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": {"name": "normal_variance", "params": {"n": n}},
                                   "components": [component]}))
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if component["type"] == "spike":
            assert "net index 100000" in err and "zero probability" not in err
