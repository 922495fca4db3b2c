"""The benchmark's workloads: named lists of `evarify` CLI operations.

Every operation is one `evarify.cli.run(argv)` call.  The workload seed
feeds each operation's `--seed`; the amount of work (families, grids,
sample counts) does not depend on it, so runs at different seeds measure
the same work with different Monte Carlo streams and checker draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Monte Carlo samples per theta in the `sample_eval` workload.
MC_SAMPLES = 50_000

#: The nine discrete-mode configurations shared by `certify_spikes` and
#: `check_conditions`: (operation suffix, CLI family flags).
DISCRETE_FAMILIES = (
    ("binomial.n64", ("--family", "binomial", "--n", "64")),
    ("binomial.n10000", ("--family", "binomial", "--n", "10000")),
    ("discrete_uniform", ("--family", "discrete_uniform")),
    ("poisson", ("--family", "poisson")),
    ("continuous_uniform", ("--family", "continuous_uniform")),
    ("normal_mean.n1", ("--family", "normal_mean", "--n", "1")),
    ("normal_mean.n16", ("--family", "normal_mean", "--n", "16")),
    ("normal_variance.n64", ("--family", "normal_variance", "--n", "64")),
    ("cauchy.eps0.2", ("--family", "cauchy", "--epsilon", "0.2")),
)


@dataclass(frozen=True)
class Op:
    """One CLI operation.

    ``kind`` selects the output check: "spikes" (verdict plus stored
    unnormalised worst value), "monte_carlo" (agreement with the exact
    expectation of the same composite), "generic" (like "spikes") or
    "conditions" (overall pass plus stored estimated constants).
    ``config`` is written to a file and passed with ``--config``.
    """

    name: str
    kind: str
    argv: tuple
    config: dict | None = None
    seed: int = 0


def _mc_config(family: str, params: dict, thetas: list, mode: str = "discrete") -> dict:
    return {
        "command": "certify",
        "family": {"name": family, "params": params},
        "suite": "spikes",
        "mode": {"kind": mode},
        "theta_grid": {"values": thetas},
        "plan": {"method": "monte_carlo", "samples": MC_SAMPLES},
    }


def _generic_config(family: str, params: dict, thetas: list, components: list) -> dict:
    return {
        "command": "certify",
        "family": {"name": family, "params": params},
        "mode": {"kind": "discrete"},
        "theta_grid": {"values": thetas},
        "components": components,
    }


def _lr(indices, alternative) -> list:
    return [{"index": k, "type": "likelihood_ratio", "alternative": alternative(k)}
            for k in indices]


def _certify_spikes() -> list[Op]:
    ops = [Op(f"spikes.{name}", "spikes", ("certify", *flags, "--suite", "spikes"))
           for name, flags in DISCRETE_FAMILIES]
    for name, family in (("cauchy.eps0.2", "cauchy"), ("normal_mean.eps0.2", "normal_mean")):
        ops.append(Op(f"interpolated.{name}", "spikes",
                      ("certify", "--family", family, "--epsilon", "0.2",
                       "--mode", "interpolated")))
    return ops


def _sample_eval() -> list[Op]:
    mc = [
        ("poisson", _mc_config("poisson", {}, [4.0, 30.25, 200.0])),
        ("binomial.n64", _mc_config("binomial", {"n": 64}, [0.1, 0.5, 0.93])),
        ("normal_mean.n16", _mc_config("normal_mean", {"n": 16}, [0.0, 0.3, 10.1])),
        ("normal_variance.n64", _mc_config("normal_variance", {"n": 64}, [0.5, 1.0, 3.7])),
        ("interpolated.cauchy.eps0.2",
         _mc_config("cauchy", {"epsilon": "0.2"}, [0.5, 1.3, 10.7], mode="interpolated")),
    ]
    generic = [
        ("poisson.lr_calibrated_p", _generic_config(
            "poisson", {}, [0.5, 4.0, 30.25, 200.0, 1000.0],
            _lr(range(1, 8), lambda k: 1.2 * k * k + 0.5)
            + [{"index": k, "type": "calibrated_p", "kappa": 0.5} for k in range(8, 14)])),
        ("normal_mean.n1.lr", _generic_config(
            "normal_mean", {"n": 1}, [0.0, 0.5, 2.25],
            _lr(range(-3, 4), lambda k: k + 0.4))),
        ("cauchy.eps0.2.lr", _generic_config(
            "cauchy", {"epsilon": "0.2"}, [0.5],
            _lr(range(-3, 4), lambda k: k + 0.3))),
    ]
    return ([Op(f"mc.{name}", "monte_carlo", ("certify",), cfg) for name, cfg in mc]
            + [Op(f"generic.{name}", "generic", ("certify",), cfg) for name, cfg in generic])


def _check_conditions() -> list[Op]:
    return [Op(f"conditions.{name}", "conditions", ("check-conditions", *flags))
            for name, flags in DISCRETE_FAMILIES]


_BUILDERS = {
    "certify_spikes": _certify_spikes,
    "sample_eval": _sample_eval,
    "check_conditions": _check_conditions,
}

WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations, each with its own seed drawn from
    ``seed``."""
    rng = random.Random(seed)
    ops = _BUILDERS[workload]()
    return [Op(op.name, op.kind, op.argv, op.config, rng.randrange(2**31)) for op in ops]


def exact_config(config: dict) -> dict:
    """The same certify configuration with the default (exact) plan: the
    composite is unchanged, only the expectation engine differs."""
    out = dict(config)
    out.pop("plan", None)
    return out
