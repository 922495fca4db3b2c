"""Composite e-variables: select-and-scale, interpolation, products.

Given per-net-point e-variables ``{e_s}`` (each valid for its own simple
hypothesis P_s), this module builds tests for the whole family:

* ``combine_discrete``  --  e(x) = e_{shat(x)}(x) / C,
* ``combine_interpolated``  --  e(x) = (1/C) * sum_n e_n(x) * w_n(x)
  with trapezoid weights w_n forming a partition of unity on an integer
  net (at most two terms are ever active),
* ``product_evar``  --  the i.i.d. product rule for n-vectors of unit-
  variance Gaussians, selecting one per-observation component and
  multiplying it across coordinates.

Components are keyed by **net index** (an int), not by the float value of
the net point; exact float keys would be fragile.  A missing component
defaults to the constant-1 e-variable, which is valid for every
hypothesis, so users may supply components only near their data.

The e-variable property of the composites (sup over the family of the
expectation is at most 1) is certified numerically by
:mod:`evarify.verifier`; nothing here asserts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .core import (
    ContractViolationError,
    DomainError,
    Family,
    IntegerLattice,
    REpsilon,
    calibrate_p_to_e,
)
from .families import FamilyBundle

__all__ = [
    "EVariable",
    "constant_evar",
    "zero_evar",
    "likelihood_ratio_evar",
    "calibrated_p_evar",
    "CellwiseProfile",
    "PeriodicTrapezoidProfile",
    "CompositeEVariable",
    "combine_discrete",
    "bump_weight",
    "combine_interpolated",
    "product_evar",
    "ParityFamily",
    "even_odd_split",
    "even_odd_reconstruction",
    "components_from_specs",
]


# ---------------------------------------------------------------------------
# Component e-variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EVariable:
    """A non-negative test function tagged with the hypothesis it is
    valid for.

    ``kind`` / ``level`` / ``cell_index`` are optional structure hints:
    "constant" components equal ``level`` everywhere; "cell_indicator"
    components equal ``level`` on estimator cell ``cell_index`` and 0
    elsewhere.  The hints let the verifier integrate composites in closed
    form; ``kind == "generic"`` disables that fast path.  ``sup_bound``
    is an optional a-priori bound on sup_x e(x) used for truncation-tail
    error accounting.
    """

    fn: Callable[[object], float]
    valid_for: object = "any"
    sup_bound: float | None = None
    kind: str = "generic"
    level: float | None = None
    cell_index: int | None = None

    def __call__(self, x) -> float:
        return float(self.fn(x))


def constant_evar(value: float = 1.0, valid_for: object = "any") -> EVariable:
    if value < 0:
        raise DomainError("an e-variable cannot be negative")
    return EVariable(
        fn=lambda x: value,
        valid_for=valid_for,
        sup_bound=value,
        kind="constant",
        level=value,
    )


ONE = constant_evar(1.0)


def zero_evar(valid_for: object = "any") -> EVariable:
    return constant_evar(0.0, valid_for)


def likelihood_ratio_evar(
    family: Family, null_theta: float, alt_theta: float
) -> EVariable:
    """The likelihood ratio p_alt / p_null, an e-variable for the simple
    null {P_null}.  Outside the null's support the ratio is +inf."""
    null_theta = family.validate_param(null_theta)
    alt_theta = family.validate_param(alt_theta)

    def fn(x) -> float:
        num = float(family.log_density(alt_theta, x))
        den = float(family.log_density(null_theta, x))
        if num == -math.inf:
            return 0.0
        if den == -math.inf:
            return math.inf
        return math.exp(num - den)

    return EVariable(fn=fn, valid_for=null_theta)


def calibrated_p_evar(
    kappa: float, p_fn: Callable[[object], float], valid_for: object = "any"
) -> EVariable:
    """kappa * P(x)**(kappa - 1) for a user-supplied p-variable P."""
    if not 0.0 < kappa < 1.0:
        raise DomainError("kappa must lie strictly inside (0, 1)")
    return EVariable(
        fn=lambda x: float(calibrate_p_to_e(kappa, p_fn(x))),
        valid_for=valid_for,
    )


# ---------------------------------------------------------------------------
# Composites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellwiseProfile:
    """Structure hint: the composite is constant on estimator cells.

    ``levels[k]`` is the composite's value (already divided by C) on cell
    k; cells without an entry take ``default_level``.  ``sup_level``
    bounds the composite everywhere.
    """

    levels: Mapping[int, float]
    default_level: float
    sup_level: float

    def level(self, k: int) -> float:
        return self.levels.get(k, self.default_level)


@dataclass(frozen=True)
class PeriodicTrapezoidProfile:
    """Structure hint for interpolated composites whose components are
    equal-height cell indicators: the composite equals
    ``height * w_round(x) / C`` with the trapezoid weight of the nearest
    integer, the same in every cell."""

    height: float
    epsilon: float
    factor_C: float

    @property
    def sup_level(self) -> float:
        return self.height / self.factor_C


@dataclass(frozen=True)
class CompositeEVariable:
    """A composite test built from per-net-point components.

    In "discrete" mode, evaluation selects the estimator's net index and
    evaluates that single component; in "interpolated" mode it sums the
    at-most-two active trapezoid-weighted components.  Negative component
    values raise :class:`ContractViolationError`.  ``factor_C`` must be
    at least 1 (all certified factors exceed 1).
    """

    bundle: FamilyBundle
    components: Mapping[int, EVariable]
    factor_C: float
    mode: str = "discrete"  # "discrete" | "interpolated"
    epsilon: float | None = None
    profile: object | None = None

    def __post_init__(self) -> None:
        if self.factor_C < 1.0:
            raise DomainError("factor_C must be >= 1")
        if self.mode == "interpolated" and not (
            self.epsilon is not None and 0.0 < self.epsilon <= 0.2
        ):
            raise DomainError("interpolated mode needs epsilon in (0, 1/5]")

    def _component(self, k: int) -> EVariable:
        comp = self.components.get(k, ONE)
        return ONE if comp is None else comp

    def __call__(self, x) -> float:
        if self.mode == "discrete":
            k = self.bundle.estimate_index(x)
            value = self._component(k)(x)
            if value < 0 or math.isnan(value):
                raise ContractViolationError(
                    f"component {k} evaluated to {value!r} at x={x!r}"
                )
            return value / self.factor_C
        v = float(x)
        m = math.floor(v + 0.5)
        total = 0.0
        for n in (m - 1, m, m + 1):
            w = bump_weight(n, self.epsilon, v)
            if w > 0.0:
                value = self._component(n)(v)
                if value < 0 or math.isnan(value):
                    raise ContractViolationError(
                        f"component {n} evaluated to {value!r} at x={v!r}"
                    )
                total += value * w
        return total / self.factor_C

    def eval_many(self, xs) -> np.ndarray:
        """Evaluate on a batch: rows of an array for product families,
        elements otherwise."""
        arr = np.asarray(xs, dtype=float)
        if self.bundle.family.sample_dim > 1 and arr.ndim == 2:
            return np.array([self(row) for row in arr])
        flat = np.ravel(arr)
        out = np.array([self(v) for v in flat])
        return out.reshape(arr.shape)

    @property
    def sup_bound(self) -> float | None:
        if self.profile is not None:
            return self.profile.sup_level
        return None


def _auto_profile(
    components: Mapping[int, EVariable], factor_C: float
) -> CellwiseProfile | None:
    """Build a cellwise profile when every component is structurally a
    constant or an own-cell indicator."""
    levels: dict[int, float] = {}
    try:
        items = components.items()
    except AttributeError:
        return None
    for k, ev in items:
        if ev.kind == "constant":
            levels[k] = ev.level / factor_C
        elif ev.kind == "cell_indicator":
            levels[k] = (ev.level / factor_C) if ev.cell_index == k else 0.0
        else:
            return None
    default = 1.0 / factor_C
    sup = max([default, *levels.values()]) if levels else default
    return CellwiseProfile(levels=levels, default_level=default, sup_level=sup)


def combine_discrete(
    bundle: FamilyBundle,
    components: Mapping[int, EVariable],
    factor_C: float | None = None,
) -> CompositeEVariable:
    """The select-and-scale composite e(x) = e_{shat(x)}(x) / C.

    Components are keyed by net index; net points the estimator can reach
    but which have no component default to the constant-1 e-variable.
    ``factor_C`` defaults to the bundle's certified factor; overriding it
    (e.g. with 1.0) builds a composite that is generally *not* a valid
    e-variable -- useful for demonstrating that the factor does real work.
    """
    C = bundle.factor_C if factor_C is None else float(factor_C)
    return CompositeEVariable(
        bundle=bundle,
        components=dict(components),
        factor_C=C,
        mode="discrete",
        profile=_auto_profile(components, C),
    )


def bump_weight(center: int, epsilon: float, x) -> float:
    """Trapezoid weight: 1 on [center - 1/2 + eps, center + 1/2 - eps],
    0 beyond the 2*eps enlargement, linear in between.

    Adjacent weights share the ramp subexpression, so the sum of the two
    active weights is exactly 1.0 in floating point.
    """
    if not 0.0 < epsilon <= 0.2:
        raise DomainError("epsilon must lie in (0, 1/5]")
    v = float(x)
    d = v - center
    ad = abs(d)
    if ad <= 0.5 - epsilon:
        return 1.0
    if ad >= 0.5 + epsilon:
        return 0.0
    half = center + 0.5 if d > 0 else center - 0.5
    t = (v - (half - epsilon)) / (2.0 * epsilon)
    t = min(max(t, 0.0), 1.0)
    return 1.0 - t if d > 0 else t


def combine_interpolated(
    bundle: FamilyBundle,
    components: Mapping[int, EVariable],
    epsilon: float,
    factor_C: float,
    profile: object | None = None,
) -> CompositeEVariable:
    """The interpolated composite (1/C) * sum_n e_n(x) * w_n(x).

    Only integer nets support this mode; the trapezoid weights are a
    partition of unity, so at most two terms are active at any x.
    """
    if not isinstance(bundle.net, IntegerLattice):
        raise DomainError(
            "unsupported mode: interpolation is defined on integer nets only"
        )
    return CompositeEVariable(
        bundle=bundle,
        components=components,
        factor_C=float(factor_C),
        mode="interpolated",
        epsilon=float(epsilon),
        profile=profile,
    )


def product_evar(
    per_obs: Mapping[int, EVariable], bundle: FamilyBundle, x
) -> float:
    """The i.i.d. product rule for unit-variance Gaussian vectors.

    Selects the component at the rounded sample mean (net spacing
    1/sqrt(n)) and multiplies its value across all n coordinates, then
    divides by the bundle's factor once.  Only normal-mean bundles carry
    ``alpha``, so the spacing check also rejects every other family.
    """
    if bundle.params.get("alpha") != 1.0:
        raise DomainError(
            "the product rule needs the normal-mean bundle with net spacing "
            "1/sqrt(n) (alpha = 1)"
        )
    arr = np.asarray(x, dtype=float)
    n = bundle.family.sample_dim
    if arr.shape != (n,):
        raise DomainError(f"expected an n-vector with n={n}, got shape {arr.shape}")
    k = bundle.estimate_index(arr)
    comp = per_obs.get(k, ONE)
    comp = ONE if comp is None else comp
    total = 1.0
    for coord in arr:
        value = comp(float(coord))
        if value < 0 or math.isnan(value):
            raise ContractViolationError(
                f"component {k} evaluated to {value!r} at coordinate {coord!r}"
            )
        total *= value
    return total / bundle.factor_C


# ---------------------------------------------------------------------------
# Even/odd split of the interpolated composite
# ---------------------------------------------------------------------------


class ParityFamily:
    """The even (or odd) half of an interpolated component family.

    Indexing with n returns e_n * w_n for n of the matching parity and
    the zero e-variable otherwise; missing components default to the
    constant-1 e-variable before weighting.
    """

    def __init__(self, components: Mapping[int, EVariable], epsilon: float,
                 parity: int):
        self._components = components
        self.epsilon = float(epsilon)
        self.parity = parity % 2

    def __getitem__(self, n: int) -> EVariable:
        if n % 2 != self.parity:
            return zero_evar(valid_for=n)
        base = self._components.get(n, ONE)
        base = ONE if base is None else base
        eps = self.epsilon
        return EVariable(
            fn=lambda x, _n=n, _b=base: _b(x) * bump_weight(_n, eps, x),
            valid_for=base.valid_for,
            sup_bound=base.sup_bound,
        )

    def get(self, n: int, default: EVariable | None = None) -> EVariable:
        return self[n]


def even_odd_split(
    components: Mapping[int, EVariable], epsilon: float
) -> tuple[ParityFamily, ParityFamily]:
    """Split an interpolated component family into its even and odd
    halves, each trapezoid-weighted on its own centers.

    The halves feed two select-and-scale composites whose estimators
    round half-integer neighbourhoods to the nearest even (respectively
    odd) integer; averaging those two composites reconstructs the
    interpolated composite exactly, pointwise.
    """
    if not 0.0 < epsilon <= 0.2:
        raise DomainError("epsilon must lie in (0, 1/5]")
    return (
        ParityFamily(components, epsilon, parity=0),
        ParityFamily(components, epsilon, parity=1),
    )


def even_odd_reconstruction(
    components: Mapping[int, EVariable], epsilon: float, factor_C: float
) -> Callable[[float], float]:
    """(even + odd) / 2 as a plain callable, scaled by ``factor_C``.

    Matches ``combine_interpolated(bundle, components, epsilon, factor_C)``
    pointwise (bit-for-bit: the two paths evaluate the same weighted terms).
    """
    even, odd = even_odd_split(components, epsilon)
    s_even = REpsilon(epsilon, tie="even")
    s_odd = REpsilon(epsilon, tie="odd")
    C = float(factor_C)

    def fn(x: float) -> float:
        xe = float(x)
        val = even[s_even.index(xe)](xe) + odd[s_odd.index(xe)](xe)
        return val / C

    return fn


# ---------------------------------------------------------------------------
# Declarative component specs
# ---------------------------------------------------------------------------


def components_from_specs(
    specs, bundle: FamilyBundle
) -> dict[int, EVariable]:
    """Build a component mapping from declarative records.

    Each record is a mapping with an ``index`` (net index) and a ``type``:

    * ``{"type": "constant", "value": v}``
    * ``{"type": "spike"}`` -- the reciprocal-cell-probability indicator
      of the component's own cell,
    * ``{"type": "likelihood_ratio", "alternative": theta}`` -- the ratio
      p_theta / p_s against the component's own net point,
    * ``{"type": "calibrated_p", "kappa": k}`` -- kappa * P**(kappa-1)
      with the upper-tail p-variable P(x) = P_s(stat(X) >= stat(x)).
    """
    from . import verifier  # local import: verifier builds on this module

    out: dict[int, EVariable] = {}
    for spec in specs:
        if "index" not in spec or "type" not in spec:
            raise DomainError("component specs need 'index' and 'type' fields")
        k = int(spec["index"])
        ctype = spec["type"]
        if ctype == "constant":
            out[k] = constant_evar(float(spec.get("value", 1.0)),
                                   valid_for=bundle.net.point(k))
        elif ctype == "spike":
            out[k] = verifier.spike_evar(bundle, k)
        elif ctype == "likelihood_ratio":
            out[k] = likelihood_ratio_evar(
                bundle.family, bundle.net.point(k), float(spec["alternative"])
            )
        elif ctype == "calibrated_p":
            out[k] = verifier.upper_tail_calibrated_evar(
                bundle, k, float(spec["kappa"])
            )
        else:
            raise DomainError(f"unknown component type {ctype!r}")
    return out
