"""Batch front-end: build bundles, run checks and sweeps, emit reports.

Subcommands
-----------
``list-families``
    Print the known family ids.
``check-conditions --family X [--n N] [--alpha A] [--epsilon E]``
    Run every condition check applicable to the bundle and report the
    estimated constants.
``certify --family X --suite spikes [--mode interpolated] [--seed S]``
    Build the adversarial component suite, sweep the composite over the
    family's adversarial parameter grid, and report the worst case.
``counterexample --family poisson --lambda L``
    Evaluate the maximum-likelihood selection rule's expectation, which
    demonstrably exceeds 1 (exit code 2: the property fails by design).

Exit codes: 0 every certified property passed; 2 a certified property
failed (including the demonstrated counterexample); 3 configuration
error.  Reports are written as JSON (machine) or CSV (tables) and are
byte-identical across runs with the same configuration and seed.

Configuration files are JSON; every numeric field also accepts an exact
decimal string (e.g. ``"epsilon": "0.2"``).  A null, or another value,
where a number or an object belongs is a configuration error that names
the field, except ``"epsilon": null``, which means no epsilon is given.
Command-line flags override config-file values.  Schema::

    {
      "command": "certify",
      "family": {"name": "poisson", "params": {"n": 64, "alpha": "1.0",
                                               "epsilon": "0.2"}},
      "suite": "spikes",
      "mode": {"kind": "discrete"},
      "theta_grid": {"kind": "default"},        # or {"values": [...]}
      "plan": {"method": "auto", "tail_mass": "1e-12",
               "abs_tol": "1e-9", "samples": 1000000},
      "seed": 7,
      "output": {"path": "report.json", "format": "json"}
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checker import run_all_checks
from .combinator import combine_discrete, components_from_specs
from .core import ConfigError, EvarifyError
from .families import FAMILY_IDS, make_bundle
from .verifier import (
    ExpectationPlan,
    certify_interpolated_factor,
    default_theta_grid,
    interpolated_spike_composite,
    mle_counterexample_poisson_with_bound,
    spike_composite,
    sweep,
)

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for failed certifications, so
    # argparse's default usage-error exit (2) becomes a ConfigError (3)
    def error(self, message: str):
        raise ConfigError(message)


def _num(value, field: str, kind=float):
    """A number, or an exact decimal string, as ``kind``; a ConfigError
    naming ``field`` for anything else, null included."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: bad numeric value {value!r}") from exc


def _object(cfg: dict, key: str, field: str | None = None) -> dict:
    """The JSON object under ``key`` ({} when absent); a ConfigError
    naming the field for any other value, null included."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{field or key} must be a JSON object, got {value!r}")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _bundle_from(args, cfg: dict):
    fam_cfg = _object(cfg, "family")
    name = args.family or fam_cfg.get("name")
    if not name:
        raise ConfigError("no family given (use --family or the config file)")
    params = dict(_object(fam_cfg, "params", "family.params"))
    if args.n is not None:
        params["n"] = args.n
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    clean = {}
    for key, value in params.items():  # a null epsilon is no epsilon
        clean[key] = (None if key == "epsilon" and value is None
                      else _num(value, f"family.params.{key}", int if key == "n" else float))
    return make_bundle(name, **clean)


def _plan_from(args, cfg: dict) -> ExpectationPlan:
    plan_cfg = _object(cfg, "plan")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    return ExpectationPlan(
        method=plan_cfg.get("method", "auto"),
        tail_mass=_num(plan_cfg.get("tail_mass", 1e-12), "plan.tail_mass"),
        abs_tol=_num(plan_cfg.get("abs_tol", 1e-9), "plan.abs_tol"),
        mc_samples=_num(plan_cfg.get("samples", 1_000_000), "plan.samples", int),
        seed=_num(seed, "seed", int),
    )


def _grid_from(cfg: dict, bundle):
    """The default theta grid, or the given values (the verifier checks
    them before building anything from them)."""
    grid_cfg = cfg.get("theta_grid", {"kind": "default"})
    values = grid_cfg.get("values") if isinstance(grid_cfg, dict) else None
    if values is None and isinstance(grid_cfg, dict) and grid_cfg.get("kind") == "default":
        return default_theta_grid(bundle)
    if not isinstance(values, list):
        raise ConfigError("theta_grid must be {'kind': 'default'} or {'values': [...]}, "
                          f"got {grid_cfg!r}")
    return [_num(v, "theta_grid values") for v in values]


def _output(args, cfg: dict):
    """The report writer, its ``output`` read and checked before any work."""
    out_cfg = _object(cfg, "output")
    path = args.out or out_cfg.get("path")
    fmt = args.format or out_cfg.get("format", "json")
    if fmt not in ("json", "csv") or not isinstance(path, (str, type(None))):
        raise ConfigError(f"output: unknown report format {fmt!r} or bad path {path!r}")

    def write(payload: dict, csv_text: str) -> None:
        if path is not None:
            text = json.dumps(payload, sort_keys=True, indent=2) if fmt == "json" else csv_text
            Path(path).write_bytes(text.encode())
    return write


def _cmd_list_families(args, cfg) -> int:
    for name in FAMILY_IDS:
        print(name)
    return EXIT_PASS


def _cmd_check_conditions(args, cfg) -> int:
    write_report = _output(args, cfg)
    bundle = _bundle_from(args, cfg)
    plan = _plan_from(args, cfg)
    reports = run_all_checks(bundle, seed=plan.seed)
    overall = all(r.passing for r in reports.values())
    for name, rep in sorted(reports.items()):
        extra = ""
        if rep.estimated_constant is not None:
            extra = f"  estimate={rep.estimated_constant:.6g}"
        print(f"{name}: {'pass' if rep.passing else 'FAIL'}{extra}")
    payload = {
        "bundle_id": bundle.bundle_id,
        "seed": plan.seed,
        "overall": "pass" if overall else "fail",
        "checks": {name: rep.to_dict() for name, rep in reports.items()},
    }
    lines = ["condition,passing,max_violation,tolerance,estimated_constant"]
    for name, rep in sorted(reports.items()):
        lines.append(
            f"{name},{rep.passing},{rep.max_violation!r},"
            f"{rep.tolerance!r},{rep.estimated_constant!r}"
        )
    write_report(payload, "\n".join(lines) + "\n")
    return EXIT_PASS if overall else EXIT_FAIL


def _cmd_certify(args, cfg) -> int:
    write_report = _output(args, cfg)
    bundle = _bundle_from(args, cfg)
    plan = _plan_from(args, cfg)
    grid = _grid_from(cfg, bundle)
    mode_cfg = _object(cfg, "mode")
    mode = args.mode or mode_cfg.get("kind", "discrete")
    suite = args.suite or cfg.get("suite", "spikes")
    if suite not in ("spikes", "ones"):
        raise ConfigError(f"unknown suite {suite!r} (spikes | ones)")
    if mode == "interpolated":
        # the interpolated combiner certifies its own unit-cell spikes only
        if "components" in cfg:
            raise ConfigError("interpolated mode takes no 'components'")
        if suite == "ones":
            raise ConfigError("interpolated mode supports the spikes suite only")
        eps = args.epsilon if args.epsilon is not None else mode_cfg.get("epsilon")
        eps = _num(eps, "epsilon") if eps is not None else 0.2
        factor, _ = certify_interpolated_factor(bundle, theta_grid=grid)
        composite = interpolated_spike_composite(bundle, eps, factor)
    elif mode == "discrete":
        if "components" in cfg:
            comps = components_from_specs(cfg["components"], bundle)
            composite = combine_discrete(bundle, comps)
        elif suite == "spikes":
            composite = spike_composite(bundle, grid, plan=plan)
        else:
            composite = combine_discrete(bundle, {})
    else:
        raise ConfigError(f"unknown mode {mode!r} (discrete | interpolated)")
    report = sweep(composite, grid, plan)
    print(
        f"{bundle.bundle_id} [{report.mode}] worst E = {report.worst_value:.9g} "
        f"(+/- {report.worst_error_bound:.3g}) at theta = {report.worst_theta:.6g} "
        f"-> {report.verdict}"
    )
    write_report(report.to_dict(), report.to_csv())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_counterexample(args, cfg) -> int:
    write_report = _output(args, cfg)
    name = args.family or _object(cfg, "family").get("name")
    if name != "poisson":
        raise ConfigError(
            "the maximum-likelihood counterexample is implemented for the "
            "poisson family only"
        )
    lam = args.lam if args.lam is not None else cfg.get("lambda")
    if lam is None:
        raise ConfigError("no rate given (use --lambda)")
    lam = _num(lam, "lambda")
    res = mle_counterexample_poisson_with_bound(lam)
    print(
        f"E_lambda[own-probability spike at the MLE] = {res.estimate:.9g} "
        f"(+/- {res.error_bound:.3g}) at lambda = {lam:.6g} -> exceeds 1"
    )
    payload = {
        "family": "poisson",
        "lambda": lam,
        "expectation": res.estimate,
        "error_bound": res.error_bound,
        "threshold": 1.0,
        "violates": res.estimate > 1.0,
    }
    csv_text = "lambda,expectation,error_bound\n" + \
        f"{lam!r},{res.estimate!r},{res.error_bound!r}\n"
    write_report(payload, csv_text)
    # the demonstrated violation is the point: report it as a failure
    return EXIT_FAIL if res.estimate > 1.0 else EXIT_PASS


def _build_parser() -> _Parser:
    parser = _Parser(prog="evarify",
                     description="composite e-variable certification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--family", help=f"one of: {', '.join(FAMILY_IDS)}")
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--epsilon", default=None,
                       help="rounding slack / interpolation half-width (<= 0.2)")
        p.add_argument("--alpha", default=None, help="normal-mean net scale")
        p.add_argument("--n", default=None, help="sample size / binomial trials")
        p.add_argument("--out", help="report file path")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    p_list = sub.add_parser("list-families", help="print known family ids")
    p_list.set_defaults(fn=_cmd_list_families)
    add_common(p_list)

    p_check = sub.add_parser("check-conditions",
                             help="verify the factor-formula preconditions")
    p_check.set_defaults(fn=_cmd_check_conditions)
    add_common(p_check)

    p_cert = sub.add_parser("certify",
                            help="sweep a composite over adversarial parameters")
    p_cert.set_defaults(fn=_cmd_certify)
    add_common(p_cert)
    p_cert.add_argument("--suite", choices=("spikes", "ones"), default=None)
    p_cert.add_argument("--mode", choices=("discrete", "interpolated"),
                        default=None)

    p_ctr = sub.add_parser("counterexample",
                           help="demonstrate the MLE selection-rule failure")
    p_ctr.set_defaults(fn=_cmd_counterexample)
    add_common(p_ctr)
    p_ctr.add_argument("--lambda", dest="lam", default=None,
                       help="poisson rate")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        return args.fn(args, cfg)
    except EvarifyError as exc:  # a ConfigError, or a DomainError from the config's values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
