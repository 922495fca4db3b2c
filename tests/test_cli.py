"""CLI: exit codes, report files, determinism."""

import json
import time

import pytest

from evarify.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, run


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
            "family": {"name": "cauchy", "params": {"epsilon": "0.2"}},
            "mode": {"kind": "interpolated", "epsilon": "0.1"},
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
            "mode": {"kind": "interpolated", "epsilon": "0.1"},
            "components": [{"index": 0, "type": "constant", "value": "50"}],
            "theta_grid": {"values": [0.0]},
        }))
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        assert "components" in capsys.readouterr().err

    def test_interpolated_mode_rejects_the_ones_suite(self, capsys):
        assert run(["certify", "--family", "cauchy", "--epsilon", "0.2",
                    "--mode", "interpolated", "--suite", "ones"]) == EXIT_CONFIG
        assert "spikes" in capsys.readouterr().err


class TestMalformedPlanAndGrid:
    @pytest.mark.parametrize("config,field", [
        ({"plan": {"method": "monte_carlo", "samples": 0}}, "mc_samples"),
        ({"plan": {"method": "monte_carlo", "samples": -5}}, "mc_samples"),
        ({"plan": {"method": "monte_carlo", "samples": 1}}, "mc_samples"),
        ({"plan": {"abs_tol": "-1"}}, "abs_tol"),
        ({"theta_grid": {"values": []}}, "theta_grid"),
        ({"theta_grid": {"values": []}, "mode": {"kind": "interpolated"}}, "theta_grid"),
        ({"theta_grid": {"values": [-1.0]}}, "theta_grid values"),
        ({"theta_grid": [4.0]}, "theta_grid"),
        ({"theta_grid": {"kind": "other"}}, "theta_grid"),
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
    ], ids=["no_samples", "negative_samples", "one_sample", "negative_abs_tol",
            "empty_grid", "empty_grid_interpolated", "theta_outside_the_space",
            "grid_as_a_list", "unknown_grid_kind", "null_theta", "null_tail_mass",
            "null_abs_tol", "null_samples", "null_n", "null_plan", "null_mode",
            "null_output", "null_params", "null_seed", "null_components",
            "component_not_an_object", "null_component_index", "null_constant_value",
            "ratio_without_alternative", "calibrated_p_without_kappa"])
    def test_exits_3_naming_the_field(self, tmp_path, capsys, config, field):
        """Each malformed plan, grid or component spec, and each null where
        a number or an object belongs, is a configuration error with a
        message that names it; a malformed grid is caught before any
        composite is built from it."""
        family = ({"name": "cauchy", "params": {"epsilon": "0.2"}}
                  if config.get("mode") else {"name": "poisson"})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": family, "suite": "spikes", **config}))
        assert run(["certify", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert "2**53" not in err

    def test_null_epsilon_means_no_epsilon(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"family": {"name": "cauchy", "params": {"epsilon": None}},
                                   "theta_grid": {"values": [0.5]}}))
        out = tmp_path / "rep.json"
        assert run(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        assert json.loads(out.read_text())["bundle_id"] == "cauchy"


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
