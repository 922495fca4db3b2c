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
The file is walked once, when it loads, against ``_SCHEMA``: a key outside
it, at any level, exits 3 naming its dotted path, and each section
(``params`` included) must be an object.  A key another subcommand reads
is accepted; ``command``, when given, must name the running subcommand.
A flag's value is checked where its key's is.  Unset plan keys take
:class:`ExpectationPlan`'s defaults (``tail_mass`` in [2**-51, 1e-12],
``seed`` in [0, 2**64)).  README "Command line" shows a whole file.
"""

from __future__ import annotations

import argparse
import functools
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
    _csv_text,
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


#: the config keys the commands read: a section's keys as a dict of its
#: own, None for a value
_SCHEMA = {
    "command": None, "suite": None, "components": None, "seed": None, "lambda": None,
    "family": {"name": None, "params": {"n": None, "alpha": None, "epsilon": None}},
    "mode": {"kind": None}, "theta_grid": {"kind": None, "values": None},
    "plan": {"method": None, "tail_mass": None, "samples": None},
    "output": {"path": None, "format": None},
}


def _load_config(path: str | None) -> dict:
    """The config file's object ({} without a file), walked once against
    ``_SCHEMA`` (see the module docstring)."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    sections = [("config root", cfg, _SCHEMA)]
    while sections:
        field, section, schema = sections.pop()
        if not isinstance(section, dict):
            raise ConfigError(f"{field} must be a JSON object, got {section!r}")
        for key, value in section.items():
            name = key if section is cfg else f"{field}.{key}"
            if key not in schema:
                raise ConfigError(f"unknown key {name} (allowed: {', '.join(schema)})")
            if schema[key] is not None:
                sections.append((name, value, schema[key]))
    return cfg


#: each flag, the config key it sets and its argparse options
_FLAGS = {
    "--family": (("family", "name"), {"help": f"one of: {', '.join(FAMILY_IDS)}"}),
    "--n": (("family", "params", "n"), {"help": "sample size / binomial trials"}),
    "--alpha": (("family", "params", "alpha"), {"help": "normal-mean net scale"}),
    "--epsilon": (("family", "params", "epsilon"),
                  {"help": "rounding slack / interpolation half-width (<= 0.2)"}),
    "--seed": (("seed",), {"help": "integer in [0, 2**64)"}),
    "--suite": (("suite",), {"help": "spikes | ones"}),
    "--mode": (("mode", "kind"), {"help": "discrete | interpolated"}),
    "--lambda": (("lambda",), {"help": "poisson rate"}),
    "--out": (("output", "path"), {"help": "report file path"}),
    "--format": (("output", "format"), {"help": "json | csv"}),
}


def _with_flags(cfg: dict, args) -> dict:
    """The config with each given flag laid over the key it names (its
    sections are objects: the config was walked when it loaded)."""
    for flag, (path, _) in _FLAGS.items():
        value = getattr(args, flag[2:], None)
        if value is not None:
            node = cfg
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
    return cfg


def _bundle_from(cfg: dict):
    fam_cfg = cfg.get("family", {})
    name = fam_cfg.get("name")
    if not isinstance(name, str) or not name:  # named as the --family flag names it
        raise ConfigError(f"{'.'.join(_FLAGS['--family'][0])} must name a family "
                          f"(use --family), got {name!r}")
    clean = {key: (None if key == "epsilon" and value is None else  # no epsilon
                   _number(value, f"family.params.{key}", int if key == "n" else float))
             for key, value in fam_cfg.get("params", {}).items()}
    return make_bundle(name, **clean)


#: the plan keys a config may give besides ``method``, each with its
#: ExpectationPlan field and number type
_PLAN_KEYS = {"tail_mass": ("tail_mass", float), "samples": ("mc_samples", int)}


def _plan_from(cfg: dict) -> ExpectationPlan:
    """The plan of the keys the config gives, ``ExpectationPlan``'s
    defaults for the others."""
    plan_cfg = cfg.get("plan", {})
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
    if grid_cfg == {"kind": "default"}:
        return default_theta_grid(bundle)
    values = grid_cfg.get("values") if list(grid_cfg) == ["values"] else None
    if not isinstance(values, list):
        raise ConfigError("theta_grid must be {'kind': 'default'} or {'values': [...]}, "
                          f"got {grid_cfg!r}")
    return _theta_grid(bundle, [_number(v, "theta_grid values") for v in values])


def _output(cfg: dict):
    """The report writer, its ``output`` (the path's directory included)
    checked before any work; a write that fails is a ConfigError.  The
    CSV text is built, by the function given for it, only for a CSV
    report."""
    out_cfg = cfg.get("output", {})
    path = out_cfg.get("path")
    fmt = out_cfg.get("format", "json")
    if fmt not in ("json", "csv") or not (path is None or isinstance(path, str) and path):
        raise ConfigError(f"output: unknown report format {fmt!r} or bad path {path!r}")
    if path is not None and not Path(path).parent.is_dir():
        raise ConfigError(f"output.path {path!r}: no directory {str(Path(path).parent)!r}")

    def write(payload: dict, csv_text) -> None:
        try:
            if path is not None:
                Path(path).write_bytes(_json_bytes(payload) if fmt == "json"
                                       else csv_text().encode())
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
    rows = [(name, rep.passing, rep.max_violation, rep.tolerance, rep.estimated_constant)
            for name, rep in sorted(reports.items())]
    write_report(payload, lambda: _csv_text(
        ("condition", "passing", "max_violation", "tolerance", "estimated_constant"), rows))
    return EXIT_PASS if overall else EXIT_FAIL


def _cmd_certify(cfg) -> int:
    write_report = _output(cfg)
    bundle = _bundle_from(cfg)
    plan = _plan_from(cfg)
    grid = _grid_from(cfg, bundle)
    mode = cfg.get("mode", {}).get("kind", "discrete")
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
    write_report(report.to_dict(), report.to_csv)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_counterexample(cfg) -> int:
    write_report = _output(cfg)
    if cfg.get("family", {}).get("name") != "poisson":
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
    write_report(payload, lambda: _csv_text(("lambda", "expectation", "error_bound"),
                                            [(lam, res.estimate, res.error_bound)]))
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

@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: ``parse_args`` leaves no state on
    it, so runs in one process share it."""
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
        if cfg.get("command", args.command) != args.command:
            raise ConfigError(f"command {cfg['command']!r} is not the running "
                              f"subcommand {args.command!r}")
        return args.fn(_with_flags(cfg, args))
    except EvarifyError as exc:  # a ConfigError, or a DomainError from the config's values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
