"""evarify: composite-hypothesis e-variables from parameter nets, with
numerical certification.

Build a :class:`~evarify.families.FamilyBundle` with
:func:`~evarify.families.make_bundle`, attach per-net-point e-variables
with :mod:`evarify.combinator`, and certify the e-variable property with
:mod:`evarify.verifier`.  :mod:`evarify.checker` verifies the conditions
behind the closed-form normalizing factors.
"""

from .core import (
    ConfigError,
    ContractViolationError,
    DomainError,
    EvarifyError,
    FactorInputs,
    calibrate_p_to_e,
    divergence,
    factor_from_growth,
    factor_from_steps,
    net_neighbors,
)
from .families import FAMILY_IDS, FamilyBundle, make_bundle
from .combinator import (
    EVariable,
    CompositeEVariable,
    bump_weight,
    combine_discrete,
    combine_interpolated,
    constant_evar,
    even_odd_reconstruction,
    even_odd_split,
    likelihood_ratio_evar,
)
from .checker import (
    ConditionReport,
    check_cell_sandwich,
    check_divergence_growth,
    check_log_ratio_identity,
    check_reverse_triangle,
    estimate_cell_bound,
    estimate_step_lower_bound,
    run_all_checks,
)
from .verifier import (
    ExpectationPlan,
    VerificationReport,
    certify_interpolated_factor,
    expectation,
    interpolated_spike_composite,
    mle_counterexample_poisson,
    spike_composite,
    spike_evar,
    spike_suite,
    sweep,
    uniform_ceiling_budget,
    uniform_ceiling_budget_max,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractViolationError",
    "DomainError",
    "EvarifyError",
    "FactorInputs",
    "calibrate_p_to_e",
    "divergence",
    "factor_from_growth",
    "factor_from_steps",
    "net_neighbors",
    "FAMILY_IDS",
    "FamilyBundle",
    "make_bundle",
    "EVariable",
    "CompositeEVariable",
    "bump_weight",
    "combine_discrete",
    "combine_interpolated",
    "constant_evar",
    "even_odd_reconstruction",
    "even_odd_split",
    "likelihood_ratio_evar",
    "ConditionReport",
    "check_cell_sandwich",
    "check_divergence_growth",
    "check_log_ratio_identity",
    "check_reverse_triangle",
    "estimate_cell_bound",
    "estimate_step_lower_bound",
    "run_all_checks",
    "ExpectationPlan",
    "VerificationReport",
    "certify_interpolated_factor",
    "expectation",
    "interpolated_spike_composite",
    "mle_counterexample_poisson",
    "spike_composite",
    "spike_evar",
    "spike_suite",
    "sweep",
    "uniform_ceiling_budget",
    "uniform_ceiling_budget_max",
    "__version__",
]
