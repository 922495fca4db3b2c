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

Constants and spikes are *structured*: each carries a
:class:`~evarify.core.Piecewise` on the line of the family's law.  A
composite of them builds its own piecewise once, reads it at the sample's
point on that line and is integrated in closed form; other components
are called one sample at a time.

The e-variable property of the composites (sup over the family of the
expectation is at most 1) is certified numerically by
:mod:`evarify.verifier`; nothing here asserts it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ContractViolationError,
    DomainError,
    Family,
    IntegerLattice,
    Piecewise,
    REpsilon,
    calibrate_p_to_e,
)
from .families import FamilyBundle

__all__ = [
    "EVariable",
    "SpikeSuite",
    "constant_evar",
    "zero_evar",
    "likelihood_ratio_evar",
    "calibrated_p_evar",
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

    A structured component carries ``piecewise``, its values on the line
    of the family's law (``FamilyBundle.locate`` maps a sample there): a
    constant has no pieces, a spike one.  ``sup_bound`` is an optional
    a-priori bound on sup_x e(x) used for truncation-tail error accounting.
    """

    fn: Callable[[object], float]
    valid_for: object = "any"
    sup_bound: float | None = None
    piecewise: Piecewise | None = None

    def __call__(self, x) -> float:
        return float(self.fn(x))

    @property
    def level(self) -> float | None:
        """A structured component's largest value (a spike's height)."""
        return None if self.piecewise is None else self.piecewise.sup


class _PieceTable(NamedTuple):
    """Components as arrays: component keys[i] equals level[i] on the piece
    [lo[i], hi[i]) of the law's line and out[i] elsewhere (a constant has
    lo = hi = inf).  ``cells``: each piece is its key's estimator cell."""

    keys: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    out: np.ndarray
    cells: bool = False


class SpikeSuite(Mapping):
    """Spikes keyed by net index, spike k valid for net point k, held as
    the arrays of their piece ``table``: tens of thousands are built and
    combined without an object per spike; ``suite[k]`` builds one."""

    def __init__(self, bundle: FamilyBundle, keys: Sequence[int], edges: np.ndarray,
                 levels: np.ndarray, right_closed: bool, cells: bool):
        self.bundle, self.right_closed = bundle, right_closed
        lo, hi = np.reshape(edges, (-1, 2)).T
        self.table = _PieceTable(np.asarray(keys, dtype=int), lo, hi,
                                 np.asarray(levels, dtype=float), np.zeros(len(lo)), cells)
        self._row = {int(k): i for i, k in enumerate(self.table.keys)}

    def __getitem__(self, k: int) -> EVariable:
        i, t, locate = self._row[k], self.table, self.bundle.locate
        pw = Piecewise(np.array([t.lo[i], t.hi[i]]), t.level[i:i + 1], np.zeros(1), 0.0,
                       self.right_closed)
        return EVariable(lambda x: pw(locate(x)), self.bundle.net.point(k),
                         float(t.level[i]), pw)

    def __iter__(self):
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)


def constant_evar(value: float = 1.0, valid_for: object = "any") -> EVariable:
    if value < 0:
        raise DomainError("an e-variable cannot be negative")
    return EVariable(
        fn=lambda x: value,
        valid_for=valid_for,
        sup_bound=value,
        piecewise=Piecewise.constant(value),
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


def _component_value(components: Mapping[int, EVariable], k: int, x) -> float:
    """Component k (the constant 1 when missing) at x, checked to be an
    e-value."""
    comp = components.get(k, ONE)
    value = (ONE if comp is None else comp)(x)
    if value < 0 or math.isnan(value):
        raise ContractViolationError(f"component {k} evaluated to {value!r} at x={x!r}")
    return value


@dataclass(frozen=True)
class CompositeEVariable:
    """A composite test built from per-net-point components.

    In "discrete" mode the estimator's net index selects one component; in
    "interpolated" mode the at-most-two active trapezoid-weighted
    components are summed.  With structured components it is its
    ``piecewise``, read at the sample's point on the law's line; otherwise
    it calls its components, and negative values raise
    :class:`ContractViolationError`.  ``factor_C`` must be at least 1.
    """

    bundle: FamilyBundle
    components: Mapping[int, EVariable]
    factor_C: float
    mode: str = "discrete"  # "discrete" | "interpolated"
    epsilon: float | None = None
    piecewise: Piecewise | None = None

    def __post_init__(self) -> None:
        if self.factor_C < 1.0:
            raise DomainError("factor_C must be >= 1")
        if self.mode == "interpolated" and not (
            self.epsilon is not None and 0.0 < self.epsilon <= 0.2
        ):
            raise DomainError("interpolated mode needs epsilon in (0, 1/5]")

    def __call__(self, x) -> float:
        if self.piecewise is not None:
            return self.piecewise(self.bundle.locate(x))
        if self.mode == "discrete":
            k = self.bundle.estimate_index(x)
            return _component_value(self.components, k, x) / self.factor_C
        v = float(x)
        m = math.floor(v + 0.5)
        total = 0.0
        for n in (m - 1, m, m + 1):
            w = bump_weight(n, self.epsilon, v)
            if w > 0.0:
                total += _component_value(self.components, n, v) * w
        return total / self.factor_C

    def eval_many(self, xs) -> np.ndarray:
        """Evaluate on a batch: the rows of an (m, n) array for product
        families of n-vectors, the elements otherwise."""
        arr = np.asarray(xs, dtype=float)
        n = self.bundle.family.sample_dim
        if n > 1 and (arr.ndim != 2 or arr.shape[1] != n):
            raise DomainError(f"expected an (m, {n}) batch of samples, got shape {arr.shape}")
        out = np.array([self(v) for v in (arr if n > 1 else np.ravel(arr))])
        return out if n > 1 else out.reshape(arr.shape)


def _frozen(components: Mapping[int, EVariable]):
    """The components as a composite keeps them (a suite as it is, any
    other mapping copied) and their piece table: None unless each is
    structured with at most one constant piece."""
    if isinstance(components, SpikeSuite):
        return components, components.table
    components = dict(components)
    pws = [getattr(ev, "piecewise", None) for ev in components.values()]
    if any(pw is None or pw.period or len(pw.a) > 1 or np.any(pw.b != 0.0) for pw in pws):
        return components, None
    rows = [(*pw.edges, pw.a[0], pw.outside) if len(pw.a) else
            (math.inf, math.inf, 0.0, pw.outside) for pw in pws]
    return components, _PieceTable(np.fromiter(components, int, len(pws)),
                                   *np.array(rows, dtype=float).reshape(-1, 4).T)


def _cellwise_piecewise(
    bundle: FamilyBundle, table: _PieceTable | None, C: float
) -> Piecewise | None:
    """The select-and-scale composite as a piecewise: the cells of the
    indices from the smallest key to the largest (a table of cells on a
    run of indices is its own edges), each at its component's value over
    C, and 1/C beyond.  None unless every component is structured and
    constant on its own cell."""
    if table is None or not len(table.keys):
        return None if table is None else Piecewise.constant(1.0 / C)
    keys, lo, hi, level, out, cells = table
    k0 = int(keys.min())
    ks = range(k0, int(keys.max()) + 1)
    run = cells and np.array_equal(keys, np.arange(k0, k0 + len(keys)))
    bounds = np.column_stack([lo, hi]) if run else bundle.cell_bounds(ks)
    cell = bounds[keys - k0]
    own = (lo == cell[:, 0]) & (hi == cell[:, 1])
    if not np.all(own | (hi <= cell[:, 0]) | (lo >= cell[:, 1])):
        return None
    levels = np.ones(len(ks))
    levels[keys - k0] = np.where(own, level, out)
    edges = np.append(bounds[:, 0], bounds[-1, 1])
    return Piecewise(edges, levels / C, np.zeros(len(ks)), 1.0 / C, bundle.right_closed)


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
    components, table = _frozen(components)
    return CompositeEVariable(bundle, components, C, "discrete",
                              piecewise=_cellwise_piecewise(bundle, table, C))


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


def _trapezoid_piecewise(table: _PieceTable | None, epsilon: float, C: float) -> Piecewise | None:
    """The interpolated composite as a piecewise over the keys and the
    ramps to the missing (constant-1) neighbours, 1/C beyond: each ramp
    [c - eps, c + eps) around a half-integer c, split at c, blends the
    two neighbours' levels linearly.  None unless every component is
    structured with edges on half-integers, so constant on each piece."""
    if table is None or not len(table.keys):
        return None if table is None else Piecewise.constant(1.0 / C)
    finite = np.concatenate([table.lo, table.hi])
    if np.any(finite[finite < math.inf] % 1.0 != 0.5):
        return None
    first = int(table.keys.min()) - 1
    size = int(table.keys.max()) - first + 2
    lo, hi, level, out = slots = [np.full(size, v) for v in (math.inf, math.inf, 0.0, 1.0)]
    for slot, values in zip(slots, table[1:5]):
        slot[table.keys - first] = values
    eps = float(epsilon)
    centers = np.arange(first, first + size - 1) + 0.5
    knots = np.column_stack([centers - eps, centers, centers + eps]).ravel()
    mids = 0.5 * (knots[:-1] + knots[1:])
    j = np.arange(len(mids)) // 3  # the half-integer each piece follows

    def at(i):
        return np.where((lo[i] <= mids) & (mids < hi[i]), level[i], out[i])

    L, R, c = at(j), at(j + 1), centers[j]  # the integers either side
    ramp = np.arange(len(mids)) % 3 != 2
    a = np.where(ramp, (L * (c + eps) - R * (c - eps)) / (2.0 * eps), R) / C
    b = np.where(ramp, (R - L) / (2.0 * eps), 0.0) / C
    return Piecewise(knots, a, b, 1.0 / C)


def combine_interpolated(
    bundle: FamilyBundle,
    components: Mapping[int, EVariable],
    epsilon: float,
    factor_C: float,
) -> CompositeEVariable:
    """The interpolated composite (1/C) * sum_n e_n(x) * w_n(x).

    Only integer nets support this mode; the trapezoid weights are a
    partition of unity, so at most two terms are active at any x.
    """
    if not isinstance(bundle.net, IntegerLattice):
        raise DomainError(
            "unsupported mode: interpolation is defined on integer nets only"
        )
    C = float(factor_C)
    components, table = _frozen(components)
    return CompositeEVariable(bundle, components, C, "interpolated", float(epsilon),
                              _trapezoid_piecewise(table, epsilon, C))


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
    total = 1.0
    for coord in arr:
        total *= _component_value(per_obs, k, float(coord))
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
