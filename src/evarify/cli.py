"""Batch front-end: build bundles, run checks and sweeps, emit reports.

Subcommands
-----------
``list-families``
    Print the known family ids; takes no flags.
``check-conditions --family X [--n N] [--alpha A] [--epsilon E] [--seed S]``
    Run every condition check applicable to the bundle and report the
    estimated constants.
``certify --family X [same as check-conditions] [--suite S] [--mode M]``
    Build the adversarial component suite, sweep the composite over the
    family's adversarial parameter grid, and report the worst case.
``counterexample --family poisson --lambda L``
    Evaluate the maximum-likelihood selection rule's expectation, which
    demonstrably exceeds 1 (exit code 2: the property fails by design).

The last three also take ``--config FILE``, ``--out PATH`` and
``--format json|csv``; a flag a subcommand does not take exits 3.

Exit codes: 0 every certified property passed; 2 a certified property
failed (including the demonstrated counterexample); 3 configuration
error.  Reports are written as JSON (machine) or CSV (tables) and are
byte-identical across runs with the same configuration and seed.

Configuration files are JSON; a numeric field also takes an exact decimal
string (``"epsilon": "0.2"``).  A null (save ``"epsilon": null``: no
epsilon), a bool, a value that is not finite or, in ``n``, ``samples`` or
``seed``, not integral, or another value where a number or an object
belongs is a configuration error that names the field.
Each flag sets one config key, over the file's value: ``--family`` the
family's ``name``; ``--n``, ``--alpha`` and ``--epsilon`` its ``params``;
``--seed``, ``--suite`` and ``--lambda`` the keys of their names;
``--mode`` ``mode.kind``; ``--out`` and ``--format`` ``output.path`` and
``output.format``.  The interpolated half-width is the family's
``epsilon``, else 0.2; its factor covers it and 0.05, 0.1 and 0.2.
``plan`` and ``mode`` take only the keys below (another exits 3, naming
it), unset plan keys :class:`ExpectationPlan`'s defaults (``tail_mass`` in
[2**-51, 1e-12], ``seed`` in [0, 2**64)).  Schema::

    {
      "command": "certify",
      "family": {"name": "poisson", "params": {"n": 64, "alpha": "1.0",
                                               "epsilon": "0.2"}},
      "suite": "spikes",
      "mode": {"kind": "discrete"},
      "theta_grid": {"kind": "default"},        # or {"values": [...]}
      "plan": {"method": "auto", "tail_mass": "1e-12",   # or "monte_carlo"
               "samples": 1000000},
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
from .core import ConfigError, EvarifyError, _number
from .families import FAMILY_IDS, make_bundle
from .verifier import (
    ExpectationPlan,
    _FACTOR_EPSILONS,
    _json_bytes,
    _theta_grid,
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


def _object(cfg: dict, key: str, field: str | None = None, keys=None) -> dict:
    """The JSON object under ``key`` ({} when absent); a ConfigError
    naming the field for any other value, null included, or naming a key
    of it outside ``keys`` when they are given."""
    field, value = field or key, cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{field} must be a JSON object, got {value!r}")
    unknown = [name for name in value if keys is not None and name not in keys]
    if unknown:
        raise ConfigError(f"unknown key {field}.{unknown[0]} (allowed: {', '.join(keys)})")
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


#: each flag, the config key it sets and its argparse options
_FLAGS = {
    "--family": (("family", "name"), {"help": f"one of: {', '.join(FAMILY_IDS)}"}),
    "--n": (("family", "params", "n"), {"help": "sample size / binomial trials"}),
    "--alpha": (("family", "params", "alpha"), {"help": "normal-mean net scale"}),
    "--epsilon": (("family", "params", "epsilon"),
                  {"help": "rounding slack / interpolation half-width (<= 0.2)"}),
    "--seed": (("seed",), {"type": int}),
    "--suite": (("suite",), {"choices": ("spikes", "ones")}),
    "--mode": (("mode", "kind"), {"choices": ("discrete", "interpolated")}),
    "--lambda": (("lambda",), {"help": "poisson rate"}),
    "--out": (("output", "path"), {"help": "report file path"}),
    "--format": (("output", "format"), {"choices": ("json", "csv")}),
}


def _with_flags(cfg: dict, args) -> dict:
    """The config with each given flag laid over the key it names."""
    for flag, (path, _) in _FLAGS.items():
        value = getattr(args, flag[2:], None)
        if value is None:
            continue
        node = cfg
        for depth, key in enumerate(path[:-1]):
            _object(node, key, ".".join(path[:depth + 1]))
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return cfg


def _bundle_from(cfg: dict):
    fam_cfg = _object(cfg, "family")
    name = fam_cfg.get("name")
    if not isinstance(name, str) or not name:  # named as the --family flag names it
        raise ConfigError(f"{'.'.join(_FLAGS['--family'][0])} must name a family "
                          f"(use --family), got {name!r}")
    clean = {}
    for key, value in _object(fam_cfg, "params", "family.params").items():
        clean[key] = (None if key == "epsilon" and value is None else  # no epsilon
                      _number(value, f"family.params.{key}", int if key == "n" else float))
    return make_bundle(name, **clean)


#: the plan keys a config may give besides ``method``, each with its
#: ExpectationPlan field and number type
_PLAN_KEYS = {"tail_mass": ("tail_mass", float), "samples": ("mc_samples", int)}


def _plan_from(cfg: dict) -> ExpectationPlan:
    """The plan of the keys the config gives, ``ExpectationPlan``'s
    defaults for the others."""
    plan_cfg = _object(cfg, "plan", keys=("method", *_PLAN_KEYS))
    given = {field: _number(plan_cfg[key], f"plan.{key}", kind)
             for key, (field, kind) in _PLAN_KEYS.items() if key in plan_cfg}
    if "method" in plan_cfg:
        given["method"] = plan_cfg["method"]
    if "seed" in cfg:
        given["seed"] = _number(cfg["seed"], "seed", int)
    return ExpectationPlan(**given)


def _grid_from(cfg: dict, bundle):
    """The default theta grid, or the given values, checked against the
    family's parameter space before any work."""
    grid_cfg = cfg.get("theta_grid", {"kind": "default"})
    values = grid_cfg.get("values") if isinstance(grid_cfg, dict) else None
    if values is None and isinstance(grid_cfg, dict) and grid_cfg.get("kind") == "default":
        return default_theta_grid(bundle)
    if not isinstance(values, list):
        raise ConfigError("theta_grid must be {'kind': 'default'} or {'values': [...]}, "
                          f"got {grid_cfg!r}")
    return _theta_grid(bundle, [_number(v, "theta_grid values") for v in values])


def _output(cfg: dict):
    """The report writer, its ``output`` (the path's directory included)
    checked before any work; a write that fails is a ConfigError."""
    out_cfg = _object(cfg, "output")
    path = out_cfg.get("path")
    fmt = out_cfg.get("format", "json")
    if fmt not in ("json", "csv") or not (path is None or isinstance(path, str) and path):
        raise ConfigError(f"output: unknown report format {fmt!r} or bad path {path!r}")
    if path is not None and not Path(path).parent.is_dir():
        raise ConfigError(f"output.path {path!r}: no directory {str(Path(path).parent)!r}")

    def write(payload: dict, csv_text: str) -> None:
        try:
            if path is not None:
                Path(path).write_bytes(_json_bytes(payload) if fmt == "json" else csv_text.encode())
        except OSError as exc:
            raise ConfigError(f"output.path {path!r}: {exc}") from exc
    return write


def _cmd_list_families(cfg) -> int:
    for name in FAMILY_IDS:
        print(name)
    return EXIT_PASS


def _cmd_check_conditions(cfg) -> int:
    write_report = _output(cfg)
    bundle = _bundle_from(cfg)
    plan = _plan_from(cfg)
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


def _cmd_certify(cfg) -> int:
    write_report = _output(cfg)
    bundle = _bundle_from(cfg)
    plan = _plan_from(cfg)
    grid = _grid_from(cfg, bundle)
    mode = _object(cfg, "mode", keys=("kind",)).get("kind", "discrete")
    suite = cfg.get("suite", "spikes")
    if suite not in ("spikes", "ones"):
        raise ConfigError(f"unknown suite {suite!r} (spikes | ones)")
    if mode == "interpolated":
        # the interpolated combiner certifies its own unit-cell spikes only
        if "components" in cfg:
            raise ConfigError("interpolated mode takes no 'components'")
        if suite == "ones":
            raise ConfigError("interpolated mode supports the spikes suite only")
        # the composite's half-width is the bundle's; its factor covers it
        eps = bundle.params.get("epsilon", 0.2)
        factor, _ = certify_interpolated_factor(bundle, (*_FACTOR_EPSILONS, eps))
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


def _cmd_counterexample(cfg) -> int:
    write_report = _output(cfg)
    if _object(cfg, "family").get("name") != "poisson":
        raise ConfigError(
            "the maximum-likelihood counterexample is implemented for the "
            "poisson family only"
        )
    lam = cfg.get("lambda")
    if lam is None:
        raise ConfigError("no rate given (use --lambda)")
    lam = _number(lam, "lambda")
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


_CHECK_FLAGS = ("--family", "--n", "--alpha", "--epsilon", "--seed", "--out", "--format")

#: each subcommand: its function, help and flags (all but list-families
#: also take --config)
_COMMANDS = {
    "list-families": (_cmd_list_families, "print known family ids", ()),
    "check-conditions": (_cmd_check_conditions, "verify the factor-formula preconditions",
                         _CHECK_FLAGS),
    "certify": (_cmd_certify, "sweep a composite over adversarial parameters",
                _CHECK_FLAGS + ("--suite", "--mode")),
    "counterexample": (_cmd_counterexample, "demonstrate the MLE selection-rule failure",
                       ("--family", "--lambda", "--out", "--format")),
}

def _build_parser() -> _Parser:
    parser = _Parser(prog="evarify",
                     description="composite e-variable certification")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(fn=fn)
        if flags:
            p.add_argument("--config", help="JSON run configuration")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag][1])
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(getattr(args, "config", None))
        return args.fn(_with_flags(cfg, args))
    except EvarifyError as exc:  # a ConfigError, or a DomainError from the config's values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
