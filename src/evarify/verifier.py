"""Numerical certification of the e-variable property.

The central claim about a composite test e is that sup over the family of
E_theta[e(X)] is at most 1.  This module estimates those expectations with
explicit error bounds and sweeps them over adversarial parameter grids:

* exact truncated summation for the discrete families (binomial, discrete
  uniform, Poisson), with the discarded tail mass times the composite's
  sup charged to the error bound;
* closed-form cellwise integration for continuous families when the
  composite is piecewise constant on estimator cells (which covers spike
  suites and constant components) -- this is the sharp form of
  piecewise-aware quadrature, splitting exactly at cell boundaries;
* closed-form partial-moment integration for interpolated composites with
  equal-height cell-indicator components (the trapezoid weights make the
  integrand piecewise linear);
* adaptive quadrature (split at cell boundaries and ramp knots) and
  Monte Carlo with a 99% CI half-width as the error bound for generic
  components.

Every engine reads the statistic's distribution from the family's law
(``bundle.family.law``, built in :mod:`evarify.families`): cell
probabilities come from one array of cell bounds and one vectorized CDF
call, truncation windows from ``law.window`` and Monte Carlo draws from
``law.sample``.  Monte Carlo uses a counter-based generator keyed by
(master seed, theta index), so sweeps are reproducible and
order-independent.

Adversarial generators include the spike suite (each component is the
reciprocal cell probability on its own cell, the tightest component the
e-variable constraint allows) and the Poisson maximum-likelihood
counterexample E_lambda[exp(X) X! / X^X], which exceeds every fixed
normalizing constant for large enough lambda.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .combinator import (
    EVariable,
    CellwiseProfile,
    CompositeEVariable,
    PeriodicTrapezoidProfile,
    calibrated_p_evar,
    combine_discrete,
    combine_interpolated,
)
from .core import DomainError
from .families import FamilyBundle

__all__ = [
    "ExpectationPlan",
    "ExpectationResult",
    "VerificationReport",
    "expectation",
    "spike_evar",
    "spike_suite",
    "spike_composite",
    "upper_tail_calibrated_evar",
    "default_theta_grid",
    "sweep",
    "mle_counterexample_poisson",
    "mle_counterexample_poisson_with_bound",
    "uniform_ceiling_budget",
    "uniform_ceiling_budget_max",
    "unit_cell_spikes",
    "interpolated_spike_composite",
    "certify_interpolated_factor",
]

#: Error attributed to closed-form CDF evaluations per cell.
_CDF_EPS = 5e-16


def _rng_for(seed: int, theta_index: int) -> np.random.Generator:
    # counter-based: independent streams per (seed, theta index), merge
    # order cannot matter
    return np.random.Generator(
        np.random.Philox(key=[seed & (2**64 - 1), theta_index & (2**64 - 1)])
    )


# ---------------------------------------------------------------------------
# Plans and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectationPlan:
    """How to estimate E_theta[e(X)].

    "auto" picks exact summation for discrete families and cellwise /
    piecewise quadrature for continuous ones.  ``tail_mass`` is the
    probability mass allowed outside the truncation window (charged to
    the error bound against the composite's sup).  Monte Carlo reports a
    99% CI half-width as its error bound.
    """

    method: str = "auto"  # auto | exact_sum | quadrature | monte_carlo
    tail_mass: float = 1e-12
    abs_tol: float = 1e-9
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("auto", "exact_sum", "quadrature", "monte_carlo"):
            raise DomainError(f"unknown expectation method {self.method!r}")
        cap = 1e-12 if self.method in ("auto", "exact_sum") else 1e-6
        if not 0.0 < self.tail_mass <= cap:
            raise DomainError(
                f"tail_mass must lie in (0, {cap:g}] for method {self.method!r}"
            )


@dataclass(frozen=True)
class ExpectationResult:
    estimate: float
    error_bound: float
    method: str


# ---------------------------------------------------------------------------
# Spike components
# ---------------------------------------------------------------------------


def _cell_bounds(bundle: FamilyBundle, ks: Sequence[int]) -> np.ndarray:
    """Per-cell (lo, hi), shape (len(ks), 2), with P_theta(cell k) =
    law.cdf(theta, hi) - law.cdf(theta, lo).

    Continuous laws: the cell's statistic interval clipped to the support.
    Discrete laws: the support points just before the cell and at its
    end, found by applying the estimator to support points (the bundle's
    table, where the support is finite) or from the cell's integer range.
    """
    law = bundle.family.law
    table = bundle.support_index
    if table is not None:
        ends = [np.searchsorted(table, ks, side) for side in ("left", "right")]
        return np.stack(ends, axis=1) - 1.0
    cells = [bundle.estimator.cell(int(k)) for k in ks]
    if law.discrete:
        top = min(law.hi, 2.0**62)
        ranges = [c.clip(law.lo, top).integer_range() for c in cells]
        return np.array([(a - 1, b) for a, b in ranges], dtype=float).reshape(-1, 2)
    return np.clip(np.array([(c.lo, c.hi) for c in cells]).reshape(-1, 2), law.lo, law.hi)


def _cell_probs(bundle: FamilyBundle, theta, ks: Sequence[int]) -> np.ndarray:
    """P_theta(statistic lands in cell k) for each k, from one CDF call;
    ``theta`` is a scalar or a column aligned with ``ks``."""
    F = bundle.family.law.cdf(theta, _cell_bounds(bundle, ks))
    return F[:, 1] - F[:, 0]


def _spike(bundle: FamilyBundle, k: int, p: float) -> EVariable:
    if not p > 0.0:
        raise DomainError(
            f"cell {k} of {bundle.bundle_id} has zero probability under its own point"
        )
    level = 1.0 / p
    est = bundle.estimator

    def fn(x) -> float:
        return level if est.index(x) == k else 0.0

    return EVariable(
        fn=fn,
        valid_for=bundle.net.point(k),
        sup_bound=level,
        kind="cell_indicator",
        level=level,
        cell_index=k,
    )


def spike_evar(bundle: FamilyBundle, k: int) -> EVariable:
    """The spike at net index k: the indicator of the cell shat^{-1}(s_k)
    divided by its probability under P_{s_k}.

    By construction E_{P_s}[spike_s] = 1 exactly: it is the tightest
    component the e-variable constraint allows concentrated on its own
    cell.  Raises :class:`DomainError` for a zero-probability cell.
    """
    return _spike(bundle, k, float(_cell_probs(bundle, bundle.net.point(k), [k])[0]))


def spike_suite(bundle: FamilyBundle, indices: Sequence[int]) -> dict[int, EVariable]:
    """Spikes for every index in ``indices``, each cell under its own net
    point."""
    ks = [int(k) for k in indices]
    points = np.array([bundle.net.point(k) for k in ks])
    probs = _cell_probs(bundle, points[:, None], ks)
    return {k: _spike(bundle, k, float(p)) for k, p in zip(ks, probs)}


def _index_at(bundle: FamilyBundle, v: float) -> int:
    """Net index selected at a window end: a support point for discrete
    laws, a statistic value otherwise."""
    est = bundle.estimator
    return est.index(v) if bundle.family.law.discrete else est.statistic_index(v)


def _grid_index_envelope(
    bundle: FamilyBundle, theta_grid: Sequence[float], tail: float
) -> tuple[int, int]:
    """Net-index range whose cells carry all but ``tail`` of the mass for
    every theta in the grid (heavy-tailed statistics are capped and the
    remainder charged to the error bound)."""
    law = bundle.family.law
    ends = [_index_at(bundle, v) for t in theta_grid for v in law.window(t, tail / 2.0)]
    k_lo, k_hi = min(ends) - 2, max(ends) + 2
    net = bundle.net
    if net.k_min is not None:
        k_lo = max(k_lo, net.k_min)
    if net.k_max is not None:
        k_hi = min(k_hi, net.k_max)
    return int(k_lo), int(k_hi)


def spike_composite(
    bundle: FamilyBundle,
    theta_grid: Sequence[float] | None = None,
    factor_C: float | None = None,
    plan: ExpectationPlan | None = None,
) -> CompositeEVariable:
    """The full-spike-suite composite covering every cell the given grid
    can reach (constant-1 defaults beyond, which only lowers it)."""
    plan = plan or ExpectationPlan()
    grid = default_theta_grid(bundle) if theta_grid is None else theta_grid
    k_lo, k_hi = _grid_index_envelope(bundle, grid, plan.tail_mass)
    suite = spike_suite(bundle, range(k_lo, k_hi + 1))
    return combine_discrete(bundle, suite, factor_C=factor_C)


def upper_tail_calibrated_evar(
    bundle: FamilyBundle, k: int, kappa: float
) -> EVariable:
    """kappa * P**(kappa-1) with the upper-tail p-variable
    P(x) = P_{s_k}(stat(X) >= stat(x))."""
    law = bundle.family.law
    s = bundle.net.point(k)
    est = bundle.estimator

    def p_fn(x) -> float:
        # a discrete law is indexed by support point: P(X >= x) = sf(x - 1)
        edge = float(x) - 1.0 if law.discrete else est.statistic(x)
        return float(law.sf(s, np.array([edge]))[0])

    return calibrated_p_evar(kappa, p_fn, valid_for=s)


# ---------------------------------------------------------------------------
# Cellwise engine: exact expectation of piecewise-constant composites
# ---------------------------------------------------------------------------


class _CellwiseEngine:
    """Exact expectation of a composite that is constant on estimator
    cells, over a fixed index range; mass outside the range is charged at
    the composite's default level (exact, because missing components are
    the constant-1 e-variable)."""

    def __init__(self, composite: CompositeEVariable, k_lo: int, k_hi: int):
        bundle = composite.bundle
        profile: CellwiseProfile = composite.profile
        ks = range(k_lo, k_hi + 1)
        self.law = bundle.family.law
        self.bounds = _cell_bounds(bundle, ks)
        self.levels = np.array([profile.level(k) for k in ks])
        self.default = profile.default_level
        self.sup = profile.sup_level

    def expectation(self, theta: float) -> ExpectationResult:
        # the cells are contiguous: the mass outside them lies below the
        # first one and above the last
        F = self.law.cdf(theta, self.bounds)
        probs = F[:, 1] - F[:, 0]
        outside = max(0.0, 1.0 - float(F[-1, 1] - F[0, 0]))
        estimate = float(np.dot(self.levels, probs)) + outside * self.default
        eb = _CDF_EPS * (len(self.levels) + 2.0) * max(1.0, self.sup)
        method = "exact_sum" if self.law.discrete else "quadrature"
        return ExpectationResult(estimate, eb, method)


class _PeriodicTrapezoidEngine:
    """Closed-form expectation of the interpolated composite with
    equal-height unit-cell spikes: height * (1 - deficit) / C with the
    deficit integrated exactly over half-integer neighbourhoods."""

    def __init__(self, composite: CompositeEVariable):
        profile: PeriodicTrapezoidProfile = composite.profile
        law = composite.bundle.family.law
        self.moment = law.moment
        self.R = law.moment_reach
        self.h = profile.height
        self.eps = profile.epsilon
        self.C = profile.factor_C

    def expectation(self, theta: float) -> ExpectationResult:
        m = np.arange(math.floor(theta) - self.R, math.floor(theta) + self.R + 1)
        a = m + (0.5 - self.eps)
        c = m + 0.5
        b = m + (0.5 + self.eps)
        Fa, Ga = self.moment(theta, a)
        Fc, Gc = self.moment(theta, c)
        Fb, Gb = self.moment(theta, b)
        rising = (Gc - Ga) - a * (Fc - Fa)
        falling = b * (Fb - Fc) - (Gb - Gc)
        deficit = float(np.sum(rising + falling)) / (2.0 * self.eps)
        tail = max(0.0, 1.0 - float(Fb[-1] - Fa[0]))
        estimate = self.h * (1.0 - deficit) / self.C
        eb = (self.h * 0.5 * tail) / self.C + _CDF_EPS * len(m)
        return ExpectationResult(estimate, eb, "quadrature")


# ---------------------------------------------------------------------------
# Generic expectation
# ---------------------------------------------------------------------------


def _as_callable(e) -> Callable[[object], float]:
    if callable(e):
        return e
    raise DomainError("e must be callable")


def _generic_discrete(e, theta, bundle, plan) -> ExpectationResult:
    law = bundle.family.law
    _, top = law.window(theta, plan.tail_mass)
    xs = np.arange(law.lo, min(law.hi, top + 8.0) + 1.0)
    pmf = np.exp(np.asarray(bundle.family.log_density(theta, xs), dtype=float))
    fn = _as_callable(e)
    values = np.array([fn(float(x)) for x in xs])
    charged = values[pmf > 0]
    if np.any(np.isinf(charged)):
        return ExpectationResult(math.inf, 0.0, "exact_sum")
    estimate = float(np.dot(np.where(pmf > 0, values, 0.0), pmf))
    tail = max(0.0, 1.0 - float(np.sum(pmf)))
    sup = getattr(e, "sup_bound", None)
    if sup is None:
        sup = 10.0 * max(1.0, float(np.max(charged, initial=0.0)))
    return ExpectationResult(estimate, tail * sup + 1e-12, "exact_sum")


def _generic_quadrature(e, theta, bundle, plan) -> ExpectationResult:
    law = bundle.family.law
    if not law.statistic_is_sample:
        # the window lives in statistic space; integrating samples over it
        # would miss mass (x < 0 when the statistic is x^2)
        raise DomainError(
            "generic quadrature needs a statistic equal to the scalar sample; "
            "use monte_carlo or give the composite a cellwise profile"
        )
    lo, hi = law.window(theta, plan.tail_mass)
    fn = _as_callable(e)

    def integrand(x: float) -> float:
        return fn(x) * math.exp(float(bundle.family.log_density(theta, x)))

    knots = _statistic_knots(bundle, lo, hi, getattr(e, "epsilon", None))
    pieces = [lo, *[k for k in knots if lo < k < hi], hi]
    total, err = 0.0, 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        val, abserr = integrate.quad(integrand, a, b, limit=200,
                                     epsabs=plan.abs_tol, epsrel=1e-10)
        total += val
        err += abserr
    coverage = law.cdf(theta, np.array([lo, hi]))
    tail = max(0.0, 1.0 - float(coverage[1] - coverage[0]))
    sup = getattr(e, "sup_bound", None)
    if sup is None:
        sup = 10.0 * max(1.0, abs(total))
    return ExpectationResult(total, err + tail * sup, "quadrature")


def _statistic_knots(bundle, lo, hi, epsilon) -> list[float]:
    """Cell boundaries (and ramp knots) between lo and hi."""
    est = bundle.estimator
    net = bundle.net
    knots: list[float] = []
    k = net.round_index(lo)
    k_hi = net.round_index(hi)
    while k <= k_hi:
        cell = est.cell(k)
        if math.isfinite(cell.lo):
            knots.append(cell.lo)
        if math.isfinite(cell.hi):
            knots.append(cell.hi)
        if epsilon is not None:
            center = net.point(k)
            for d in (-0.5 - epsilon, -0.5 + epsilon, 0.5 - epsilon, 0.5 + epsilon):
                knots.append(center + d)
        k += 1
    return sorted(set(knots))


def _monte_carlo(e, theta, bundle, plan, theta_index) -> ExpectationResult:
    rng = _rng_for(plan.seed, theta_index)
    xs = bundle.family.law.sample(theta, plan.mc_samples, rng)
    if isinstance(e, CompositeEVariable):
        values = e.eval_many(xs)
    else:
        fn = _as_callable(e)
        if xs.ndim == 2:
            values = np.array([fn(row) for row in xs])
        else:
            values = np.array([fn(float(v)) for v in xs])
    estimate = float(np.mean(values))
    half_width = 2.576 * float(np.std(values, ddof=1)) / math.sqrt(len(values))
    return ExpectationResult(estimate, half_width, "monte_carlo")


def expectation(
    e,
    theta: float,
    bundle: FamilyBundle | None = None,
    plan: ExpectationPlan | None = None,
    theta_index: int = 0,
) -> ExpectationResult:
    """Estimate E_theta[e(X)] with an explicit error bound.

    ``e`` may be a :class:`CompositeEVariable` (its bundle supplies the
    family) or any callable together with an explicit ``bundle``.
    Deterministic given the plan's seed.
    """
    if bundle is None:
        if not isinstance(e, CompositeEVariable):
            raise DomainError("a bundle is required for non-composite tests")
        bundle = e.bundle
    plan = plan or ExpectationPlan()
    theta = bundle.family.validate_param(theta)
    engine = _closed_form_engine(e, bundle, [theta], plan)
    if engine is not None:
        return engine(theta)
    if plan.method == "monte_carlo":
        return _monte_carlo(e, theta, bundle, plan, theta_index)
    if bundle.family.law.discrete:
        return _generic_discrete(e, theta, bundle, plan)
    return _generic_quadrature(e, theta, bundle, plan)


def _closed_form_engine(
    e, bundle: FamilyBundle, theta_grid: Sequence[float], plan: ExpectationPlan
) -> Callable[[float], ExpectationResult] | None:
    """The engine giving E_theta[e] in closed form over the grid, or None
    when e must be evaluated pointwise (Monte Carlo, generic sum or
    quadrature).  :func:`expectation` and :func:`sweep` both dispatch here."""
    discrete = bundle.family.law.discrete
    if plan.method == "exact_sum" and not discrete:
        raise DomainError("exact_sum is only valid for discrete families")
    if plan.method == "monte_carlo":
        return None
    method = "exact_sum" if discrete else "quadrature"
    if isinstance(e, EVariable) and e.kind == "constant":
        return lambda theta: ExpectationResult(e.level, _CDF_EPS, method)
    if isinstance(e, EVariable) and e.kind == "cell_indicator":
        # exact: level times the cell probability (valid for product
        # families too -- the indicator is a function of the statistic)
        return lambda theta: ExpectationResult(
            e.level * float(_cell_probs(bundle, theta, [e.cell_index])[0]),
            _CDF_EPS * max(1.0, e.level), method)
    if isinstance(e, CompositeEVariable) and isinstance(e.profile, CellwiseProfile):
        k_lo, k_hi = _grid_index_envelope(bundle, theta_grid, plan.tail_mass)
        keys = list(e.components.keys())
        if keys:
            k_lo, k_hi = min(k_lo, min(keys)), max(k_hi, max(keys))
        return _CellwiseEngine(e, k_lo, k_hi).expectation
    if isinstance(e, CompositeEVariable) and isinstance(
        e.profile, PeriodicTrapezoidProfile
    ):
        return _PeriodicTrapezoidEngine(e).expectation
    return None


# ---------------------------------------------------------------------------
# Parameter grids
# ---------------------------------------------------------------------------


def default_theta_grid(bundle: FamilyBundle) -> list[float]:
    """Adversarial parameter grid for a bundle: its family's own points
    (``FamilyBundle.theta_grid``, written in :mod:`evarify.families`)
    that lie in the parameter space, sorted and without repeats."""
    space = bundle.family.param_space
    return sorted({float(v) for v in bundle.theta_grid(bundle) if space.contains(float(v))})


# ---------------------------------------------------------------------------
# Sweeps and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Per-parameter expectation estimates with the worst case and a
    pass/fail verdict (pass iff worst <= 1 + 3 * its error bound)."""

    bundle_id: str
    mode: str
    factor_C: float
    rng_seed: int
    plan_method: str
    rows: tuple  # (theta, estimate, error_bound, method) tuples
    worst_theta: float
    worst_value: float
    worst_error_bound: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "mode": self.mode,
            "factor_C": self.factor_C,
            "rng_seed": self.rng_seed,
            "plan_method": self.plan_method,
            "worst_theta": self.worst_theta,
            "worst_value": self.worst_value,
            "worst_error_bound": self.worst_error_bound,
            "verdict": self.verdict,
            "rows": [
                {"theta": t, "estimate": est, "error_bound": eb, "method": m}
                for (t, est, eb, m) in self.rows
            ],
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2).encode()

    def to_csv(self) -> str:
        lines = ["theta,estimate,error_bound,method"]
        for t, est, eb, m in self.rows:
            lines.append(f"{t!r},{est!r},{eb!r},{m}")
        return "\n".join(lines) + "\n"


def sweep(
    composite: CompositeEVariable,
    theta_grid: Sequence[float] | None = None,
    plan: ExpectationPlan | None = None,
) -> VerificationReport:
    """Certify E_theta[composite] <= 1 across a parameter grid."""
    plan = plan or ExpectationPlan()
    bundle = composite.bundle
    grid = default_theta_grid(bundle) if theta_grid is None else [
        bundle.family.validate_param(t) for t in theta_grid
    ]
    engine = _closed_form_engine(composite, bundle, grid, plan)
    rows = []
    for i, theta in enumerate(grid):
        if engine is not None:
            res = engine(theta)
        else:
            res = expectation(composite, theta, plan=plan, theta_index=i)
        rows.append((float(theta), res.estimate, res.error_bound, res.method))
    worst = max(rows, key=lambda r: (r[1], r[0]))
    verdict = "pass" if worst[1] <= 1.0 + 3.0 * worst[2] else "fail"
    return VerificationReport(
        bundle_id=composite.bundle.bundle_id,
        mode=composite.mode,
        factor_C=composite.factor_C,
        rng_seed=plan.seed,
        plan_method=plan.method,
        rows=tuple(rows),
        worst_theta=worst[0],
        worst_value=worst[1],
        worst_error_bound=worst[2],
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Poisson maximum-likelihood counterexample
# ---------------------------------------------------------------------------


def mle_counterexample_poisson_with_bound(
    lam: float, plan: ExpectationPlan | None = None
) -> ExpectationResult:
    """E_lambda[exp(X) X! / X^X] by exact truncated summation in log space.

    The integrand is the inverse own-probability spike selected by the
    maximum-likelihood "estimator" shat(x) = x; because it grows like
    sqrt(2 pi x), no fixed normalizing constant can make this selection
    rule a valid e-variable over all lambda.
    """
    if lam <= 0:
        raise DomainError("lambda must be > 0")
    plan = plan or ExpectationPlan()
    n_max = int(lam + 20.0 * math.sqrt(lam) + 60.0)
    n = np.arange(1, n_max + 1, dtype=float)
    # pmf(n) * e^n n! / n^n  ==  exp(-lam + n (1 + log lam - log n))
    log_terms = -lam + n * (1.0 + math.log(lam) - np.log(n))
    total = math.exp(-lam) + float(np.sum(np.exp(log_terms)))
    t_last = math.exp(-lam + (n_max + 1.0) * (1.0 + math.log(lam) - math.log(n_max + 1.0)))
    ratio = lam * math.e / (n_max + 2.0)  # term ratio bound beyond n_max + 1
    tail = t_last / (1.0 - ratio) if ratio < 1.0 else math.inf
    return ExpectationResult(total, tail, "exact_sum")


def mle_counterexample_poisson(
    lam: float, plan: ExpectationPlan | None = None
) -> float:
    return mle_counterexample_poisson_with_bound(lam, plan).estimate


# ---------------------------------------------------------------------------
# Discrete-uniform budget certificate
# ---------------------------------------------------------------------------


def uniform_ceiling_budget(N: int) -> Fraction:
    """The exact per-cell budget certificate sum_s (s + 1) / (N + 1) over
    every net point s = 2^j reachable from the support {0..N} of the
    discrete uniform family.

    This is the tight upper bound on E_N[e_{shat(X)}(X)] over all valid
    component choices: each component can concentrate its whole budget
    (s + 1 under the uniform on [0:s]) on its cell's intersection with
    [0:N].
    """
    if N < 0:
        raise DomainError("N must be a non-negative integer")
    total = Fraction(2, N + 1)  # s = 1 with cell {0, 1}
    j = 1
    while 2 ** (j - 1) < N:
        total += Fraction(2**j + 1, N + 1)
        j += 1
    return total


def uniform_ceiling_budget_max(n_max: int = 2**20) -> tuple[float, int]:
    """Max of the budget certificate over 1 <= N <= n_max, by a full
    vectorized sweep; returns (max value, argmax N)."""
    N = np.arange(1, n_max + 1, dtype=float)
    m = np.ceil(np.log2(N))
    m[0] = 0.0  # N = 1: only the {0,1} cell
    B = (2.0 ** (m + 1.0) + m) / (N + 1.0)
    i = int(np.argmax(B))
    return float(B[i]), int(N[i])


# ---------------------------------------------------------------------------
# Interpolated spike suites and factor certification
# ---------------------------------------------------------------------------


class _UnitCellSpikes:
    """The unbounded family of unit-cell spikes e_n, built on demand by
    ``get(n)``: the indicator of [n - 1/2, n + 1/2) over its probability
    under P_n (the same height for every n by translation invariance).

    That interval is not an estimator cell (r^epsilon moves the cell
    edges), so the spikes are generic components with a known sup."""

    def __init__(self, height: float):
        self.height = height

    def get(self, n: int, default=None) -> EVariable:
        h = self.height
        return EVariable(
            fn=lambda x: h if n - 0.5 <= float(x) < n + 0.5 else 0.0,
            valid_for=float(n),
            sup_bound=h,
        )


def unit_cell_spikes(bundle: FamilyBundle) -> _UnitCellSpikes:
    law = bundle.family.law
    if law.moment is None:
        raise DomainError(
            "interpolation is certified for cauchy and single-observation normal_mean"
        )
    F = law.cdf(0.0, np.array([-0.5, 0.5]))
    return _UnitCellSpikes(1.0 / float(F[1] - F[0]))


def interpolated_spike_composite(
    bundle: FamilyBundle, epsilon: float, factor_C: float
) -> CompositeEVariable:
    spikes = unit_cell_spikes(bundle)
    profile = PeriodicTrapezoidProfile(
        height=spikes.height, epsilon=float(epsilon), factor_C=float(factor_C)
    )
    return combine_interpolated(bundle, spikes, epsilon, factor_C, profile=profile)


def certify_interpolated_factor(
    bundle: FamilyBundle,
    epsilons: Sequence[float] = (0.05, 0.1, 0.2),
    theta_grid: Sequence[float] | None = None,
    anchor: float = 36.0,
    tol: float = 1e-6,
) -> tuple[float, dict]:
    """Tightest factor C for which the interpolated spike sweeps pass.

    Starts from the ``anchor`` (a factor valid by the even/odd-split
    argument: twice the discrete factor) and bisects downward against the
    worst unnormalized expectation over the given epsilons and grid.
    Expectations scale exactly as 1/C, so the sweep is evaluated once at
    C = 1 and the bisection runs on the cached values.
    """
    grid = default_theta_grid(bundle) if theta_grid is None else theta_grid
    worst_u, worst_eb = 0.0, 0.0
    per_eps = {}
    for eps in epsilons:
        comp = interpolated_spike_composite(bundle, eps, 1.0)
        engine = _PeriodicTrapezoidEngine(comp)
        us = [engine.expectation(t) for t in grid]
        u = max(r.estimate for r in us)
        eb = max(r.error_bound for r in us)
        per_eps[float(eps)] = u
        if u > worst_u:
            worst_u, worst_eb = u, eb
    lo, hi = 1.0, float(anchor)
    if worst_u / hi > 1.0 + 3.0 * worst_eb / hi:  # pragma: no cover - anchor is safe
        raise DomainError("anchor factor fails; widen it")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if worst_u / mid <= 1.0 + 3.0 * (worst_eb / mid):
            hi = mid
        else:
            lo = mid
    certified = hi
    details = {
        "anchor": float(anchor),
        "worst_unnormalized": worst_u,
        "per_epsilon_unnormalized": per_eps,
        "certified_C": certified,
    }
    return certified, details
