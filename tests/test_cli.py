"""CLI: exit codes, report files, determinism."""

import json

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
