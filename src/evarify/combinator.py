"""Composite e-variables: select-and-scale and interpolation.

Given per-net-point e-variables ``{e_s}`` (each valid for its own simple
hypothesis P_s), this module builds tests for the whole family:

* ``combine_discrete``  --  e(x) = e_{shat(x)}(x) / C,
* ``combine_interpolated``  --  e(x) = (1/C) * sum_n e_n(x) * w_n(x)
  with trapezoid weights w_n forming a partition of unity on an integer
  net (at most two terms are ever active).

Components are keyed by **net index** (an int), not by the float value of
the net point; exact float keys would be fragile.  A missing component
defaults to the constant-1 e-variable, which is valid for every
hypothesis, so users may supply components only near their data.

The components built here are constants, likelihood ratios, calibrated
upper-tail p-values and spikes (the reciprocal cell probability on a
cell: ``spike_suite`` on the estimator's cells, ``unit_cell_spikes`` on
the unit cells of the interpolated composite, which
``interpolated_spike_composite`` builds on all integers at once).

Constants and spikes are *structured*: each carries a
:class:`~evarify.core.Piecewise` on the line of the family's law.  A
composite of them builds its own piecewise once, reads it at a batch's
points on that line in one call and is integrated in closed form.  Any
other (generic) component is a callable: a composite holding one locates
its batch once, reads each sample's key from a piecewise over its keys'
cells (one search for the batch), and calls each selected component once
on its own samples (a ``vectorized`` component, such as a likelihood
ratio, in one call on that sub-batch; a plain callable sample by
sample); samples whose cell has no component take the constant 1
without a call.

The e-variable property of the composites (sup over the family of the
expectation is at most 1) is certified numerically by
:mod:`evarify.verifier`; nothing here asserts it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ContractViolationError,
    DomainError,
    Family,
    IntegerLattice,
    Piecewise,
    REpsilon,
    _INDEX_LIMIT,
    _epsilon,
    _index_array,
    _number,
    calibrate_p_to_e,
)
from .families import FamilyBundle

__all__ = [
    "EVariable",
    "SpikeSuite",
    "constant_evar",
    "zero_evar",
    "likelihood_ratio_evar",
    "spike_evar",
    "spike_suite",
    "unit_cell_spikes",
    "upper_tail_calibrated_evar",
    "CompositeEVariable",
    "combine_discrete",
    "bump_weight",
    "combine_interpolated",
    "interpolated_spike_composite",
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
    """A non-negative test function of one sample.

    A structured component carries ``piecewise``, its values on the line
    of the family's law (``FamilyBundle.locate`` maps a sample there): a
    constant has no pieces, a spike one.  ``sup_bound`` is an optional
    a-priori bound on sup_x e(x) used for truncation-tail error accounting.
    ``vectorized``: ``fn`` also takes a batch of samples (``log_density``'s
    convention) and returns one value per sample, or one value for all.
    """

    fn: Callable[[object], float]
    sup_bound: float | None = None
    piecewise: Piecewise | None = None
    vectorized: bool = False

    def __call__(self, x) -> float:
        return float(self.fn(x))

    @property
    def level(self) -> float | None:
        """A structured component's largest value (a spike's height)."""
        return None if self.piecewise is None else self.piecewise.sup


class _PieceTable(NamedTuple):
    """Components as arrays: component keys[i] equals level[i] on the piece
    [lo[i], hi[i]) of the law's line and out[i] elsewhere (a constant has
    lo = hi = inf)."""

    keys: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    out: np.ndarray


class SpikeSuite(Mapping):
    """Spikes keyed by net index, spike k valid for net point k, held as
    the arrays of their piece ``table``: tens of thousands are built and
    combined without an object per spike; ``suite[k]`` builds one.  The
    keys are distinct."""

    #: each spike's piece is its key's estimator cell, ``bundle.cell_bounds``
    #: of its key (set by :func:`spike_suite` alone)
    _own_cells = False

    def __init__(self, bundle: FamilyBundle, keys: Sequence[int], edges: np.ndarray,
                 levels: np.ndarray):
        self.bundle = bundle
        lo, hi = np.reshape(edges, (-1, 2)).T
        self.table = _PieceTable(np.asarray(keys, dtype=int), lo, hi,
                                 np.asarray(levels, dtype=float), np.zeros(len(lo)))

    def __getitem__(self, k: int) -> EVariable:
        t, locate = self.table, self.bundle.locate
        rows = np.flatnonzero(t.keys == k)
        if not len(rows):
            raise KeyError(k)
        i = rows[0]
        pw = Piecewise(np.array([t.lo[i], t.hi[i]]), t.level[i:i + 1], np.zeros(1), 0.0,
                       self.bundle.right_closed)
        return EVariable(lambda x: pw(locate(x)), float(t.level[i]), pw, vectorized=True)

    def __iter__(self):
        return iter(self.table.keys.tolist())

    def __len__(self) -> int:
        return len(self.table.keys)


def constant_evar(value: float = 1.0) -> EVariable:
    if not value >= 0:
        raise DomainError(f"an e-variable cannot be negative or NaN (got {value!r})")
    return EVariable(fn=lambda x: value, sup_bound=value, piecewise=Piecewise.constant(value),
                     vectorized=True)


ONE = constant_evar(1.0)


def zero_evar() -> EVariable:
    return constant_evar(0.0)


def likelihood_ratio_evar(
    family: Family, null_theta: float, alt_theta: float
) -> EVariable:
    """The likelihood ratio p_alt / p_null, an e-variable for the simple
    null {P_null}, on one sample or a batch.  Outside the null's support
    the ratio is +inf (0 where the alternative's density vanishes too)."""
    null_theta = family.validate_param(null_theta)
    alt_theta = family.validate_param(alt_theta)

    def fn(x):
        num = family.log_density(alt_theta, x)
        den = family.log_density(null_theta, x)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = np.exp(num - den)
        return np.where(num == -np.inf, 0.0, np.where(den == -np.inf, np.inf, ratio))

    return EVariable(fn=fn, vectorized=True)


def spike_evar(bundle: FamilyBundle, k: int) -> EVariable:
    """The spike at net index k: the indicator of the cell shat^{-1}(s_k)
    divided by its probability under P_{s_k}.

    By construction E_{P_s}[spike_s] = 1 exactly: it is the tightest
    component the e-variable constraint allows concentrated on its own
    cell.  Raises :class:`DomainError` for a zero-probability cell.
    """
    return spike_suite(bundle, [k])[int(k)]


def spike_suite(bundle: FamilyBundle, indices: Sequence[int]) -> SpikeSuite:
    """Spikes for every index in ``indices``, each cell under its own net
    point; the cell probabilities come from one CDF call."""
    ks = _index_array(indices).reshape(-1)
    points = bundle.net.points(ks)
    if not np.all(np.isfinite(points)):  # beyond the largest float
        raise DomainError(f"net index {ks[~np.isfinite(points)][0]} of {bundle.bundle_id} "
                          "has no finite point")
    bounds = bundle.cell_bounds(ks)
    F = bundle.family.law.cdf(points[:, None], bounds)
    probs = F[:, 1] - F[:, 0]
    if not np.all(probs > 0.0):
        k = ks[int(np.argmin(probs > 0.0))]
        raise DomainError(
            f"cell {k} of {bundle.bundle_id} has zero probability under its own point")
    suite = SpikeSuite(bundle, ks, bounds, 1.0 / probs)
    suite._own_cells = True
    return suite


def unit_cell_spikes(bundle: FamilyBundle, indices: Sequence[int]) -> SpikeSuite:
    """The unit-cell spikes e_n, n in ``indices``: the indicator of the
    piece [n - 1/2, n + 1/2) (not an r^epsilon cell) over its probability
    under P_n, the same for every n by translation invariance."""
    law = bundle.family.law
    if law.moment is None:
        raise DomainError(
            "interpolation is certified for cauchy and single-observation normal_mean"
        )
    F = law.cdf(0.0, np.array([-0.5, 0.5]))
    ns = [int(n) for n in indices]
    edges = np.array(ns, dtype=float)[:, None] + [-0.5, 0.5]
    return SpikeSuite(bundle, ns, edges, np.full(len(ns), 1.0 / float(F[1] - F[0])))


def upper_tail_calibrated_evar(
    bundle: FamilyBundle, k: int, kappa: float
) -> EVariable:
    """kappa * P**(kappa-1) with the upper-tail p-variable
    P(x) = P_{s_k}(stat(X) >= stat(x))."""
    law = bundle.family.law
    s = bundle.net.points(k)
    g = bundle.family.estimator_g

    def p_fn(x):
        # a discrete law is indexed by support point: P(X >= x) = sf(x - 1)
        return law.sf(s, np.asarray(x, dtype=float) - 1.0 if law.discrete else g(x))

    if not 0.0 < kappa < 1.0:
        raise DomainError("kappa must lie strictly inside (0, 1)")
    return EVariable(fn=lambda x: calibrate_p_to_e(kappa, p_fn(x)), vectorized=True)


def _many(e, xs) -> np.ndarray:
    """e on a batch of samples (elements, or the rows of an (m, n) array):
    a composite or a ``vectorized`` component in one call, any other
    callable sample by sample."""
    if isinstance(e, CompositeEVariable):
        return e.eval_many(xs)
    if getattr(e, "vectorized", False):
        out = np.asarray(e.fn(xs), dtype=float)
        return out if out.shape == (len(xs),) else np.full(len(xs), out)
    return np.array([e(x) for x in xs], dtype=float)


def _e_values(out: np.ndarray, keys, xs) -> np.ndarray:
    """out, checked to hold e-values: the first negative or NaN value in
    batch order raises :class:`ContractViolationError` naming its
    component keys[j] and its sample xs[j]."""
    bad = ~(out >= 0.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise ContractViolationError(
            f"component {int(keys[j])} evaluated to {float(out[j])!r} at x={xs[j].tolist()!r}")
    return out


# ---------------------------------------------------------------------------
# Composites
# ---------------------------------------------------------------------------


def _groups(keys: np.ndarray):
    """(key, positions) for each distinct key, the positions in order."""
    if not len(keys):
        return
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist(), len(ks)]
    for start, end in zip(cuts, cuts[1:]):
        yield int(ks[start]), order[start:end]


@dataclass(frozen=True)
class CompositeEVariable:
    """A composite test built from per-net-point components.

    In "discrete" mode the estimator's net index selects one component; in
    "interpolated" mode the at-most-two active trapezoid-weighted
    components are summed.  Samples go through ``bundle.locate``, which
    rejects any off the law's support with :class:`DomainError`.  With
    structured components the composite is its ``piecewise``, read at the
    located points of a whole batch at once.  Otherwise a discrete-mode
    composite reads each sample's key from ``_keys``, a piecewise over its
    keys' own cells made with the composite, and each selected component
    is called once on its own samples; negative or NaN values raise
    :class:`ContractViolationError`.  ``factor_C`` must be at least 1.
    """

    bundle: FamilyBundle
    components: Mapping[int, EVariable]
    factor_C: float
    epsilon: float | None = None
    piecewise: Piecewise | None = None
    #: generic discrete mode: the key each point of the law's line selects
    _keys: Piecewise | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.factor_C >= 1.0:
            raise DomainError(f"factor_C must be >= 1 (got {self.factor_C!r})")
        if self.epsilon is not None:
            _epsilon(self.epsilon)
        elif self.piecewise is None:
            object.__setattr__(self, "_keys", _key_piecewise(self.bundle, self.components))

    @property
    def mode(self) -> str:  # a half-width epsilon makes it interpolated
        return "discrete" if self.epsilon is None else "interpolated"

    def __call__(self, x):
        """The composite at one sample, a float, or at a batch, one value
        per sample (``log_density``'s convention: a batch holds elements,
        or the rows of an (m, n) array for product families of
        n-vectors).  One sample is evaluated as a batch of one."""
        arr = np.asarray(x, dtype=float)
        n = self.bundle.family.sample_dim
        one = arr.ndim == (n > 1)
        batch = arr[None] if one else arr
        if n > 1 and (batch.ndim != 2 or batch.shape[1] != n):
            raise DomainError(f"expected an (m, {n}) batch of samples, got shape {arr.shape}")
        v = self.bundle.locate(batch)
        if self.piecewise is not None:
            out = self.piecewise(v)
        else:
            out = self._generic(batch if n > 1 else batch.ravel(), np.ravel(v))
            out = out if n > 1 else out.reshape(batch.shape)
        return out.item() if one else out

    def eval_many(self, xs) -> np.ndarray:
        """The composite on a batch (see ``__call__``)."""
        arr = np.asarray(xs, dtype=float)
        n = self.bundle.family.sample_dim
        if n > 1 and arr.ndim != 2:
            raise DomainError(f"expected an (m, {n}) batch of samples, got shape {arr.shape}")
        return np.asarray(self(arr))

    def _generic(self, batch: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The composite of generic components at the samples of a batch,
        located at v."""
        if self.mode == "discrete":
            keys = self._keys(v)
            return self._values(keys, ~np.isnan(keys), batch) / self.factor_C
        m = np.floor(v + 0.5)
        total = np.zeros(len(v))
        for n in (m - 1.0, m, m + 1.0):  # in bump_weight's order, adding 0 where inactive
            w = _bump_weights(n, self.epsilon, v)
            active = w > 0.0
            total = total + np.where(active, self._values(n, active, v) * w, 0.0)
        return total / self.factor_C

    def _values(self, keys: np.ndarray, active: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Component keys[j] at at[j] for each active j, each component
        called once on its own points, then checked to give e-values; 1
        where inactive or where the key has no component."""
        out = np.ones(len(keys))
        rows = np.flatnonzero(active)
        for k, idx in _groups(keys[rows]):
            comp = self.components.get(k)
            if comp is not None:
                out[rows[idx]] = _many(comp, at[rows[idx]])
        return _e_values(out, keys, at)


def _key_piecewise(bundle: FamilyBundle, components: Mapping) -> Piecewise:
    """``CompositeEVariable._keys`` for these components: each key on its
    estimator cell, NaN between the cells and beyond them."""
    keys = np.fromiter(components, int, len(components))
    keys = keys[_in_net(bundle, keys)]
    return _cells_piecewise(bundle, bundle.cell_bounds(keys), keys.astype(float), math.nan)


def _in_net(bundle: FamilyBundle, keys: np.ndarray) -> np.ndarray:
    """The positions of the keys the net holds (the estimator never
    selects the others), in increasing order of key."""
    held = np.flatnonzero(bundle.net._clip(keys) == keys)
    return held[np.argsort(keys[held], kind="stable")]


def _cells_piecewise(bundle: FamilyBundle, bounds: np.ndarray, values: np.ndarray,
                     between: float) -> Piecewise:
    """values[i] on the cell bounds[i] (cells of increasing indices, so
    disjoint and in order) and ``between`` between the cells and beyond
    them: only the given cells are built, and adjacent cells share an
    edge with no piece between them.  Adjacent pieces whose levels have
    the same bits are one piece (a -0.0 level never joins a +0.0 one), so
    every point reads the same bits with one piece per run of a level."""
    if not len(bounds):
        return Piecewise.constant(between)
    gap = np.append(bounds[1:, 0] != bounds[:-1, 1], False)  # after each cell
    keep = np.column_stack([np.ones(len(gap), dtype=bool), gap]).ravel()
    ends = np.column_stack([bounds[:, 1], np.append(bounds[1:, 0], math.nan)]).ravel()
    a = np.column_stack([values, np.full(len(gap), between)]).ravel()[keep]
    bits = a.view(np.int64)
    run = np.append(bits[1:] != bits[:-1], True)  # the last piece of each run
    return Piecewise(np.append(bounds[0, 0], ends[keep][run]), a[run], np.zeros(run.sum()),
                     between, bundle.right_closed)


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
    bundle: FamilyBundle, table: _PieceTable | None, C: float, own_cells: bool = False
) -> Piecewise | None:
    """The select-and-scale composite as a piecewise: each key's cell at
    its component's value over C, and 1/C between the cells and beyond.
    None unless every component is structured and constant on its own
    cell.  With ``own_cells`` the table's pieces are those cells (a
    :func:`spike_suite`'s on this bundle), and they are not computed again."""
    if table is None:
        return None
    held = _in_net(bundle, table.keys)
    keys, lo, hi, level, out = (column[held] for column in table)
    cell = np.column_stack([lo, hi]) if own_cells else bundle.cell_bounds(keys)
    own = (lo == cell[:, 0]) & (hi == cell[:, 1])
    if not np.all(own | (hi <= cell[:, 0]) | (lo >= cell[:, 1])):
        return None
    return _cells_piecewise(bundle, cell, np.where(own, level, out) / C, 1.0 / C)


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
    # a spike suite's own cells on this very bundle are not computed again
    own_cells = isinstance(components, SpikeSuite) and components._own_cells and (
        components.bundle is bundle)
    return CompositeEVariable(bundle, components, C,
                              piecewise=_cellwise_piecewise(bundle, table, C, own_cells))


def bump_weight(center: int, epsilon: float, x) -> float:
    """Trapezoid weight: 1 on [center - 1/2 + eps, center + 1/2 - eps],
    0 beyond the 2*eps enlargement, linear in between.

    Adjacent weights share the ramp subexpression, so the sum of the two
    active weights is exactly 1.0 in floating point.
    """
    _epsilon(epsilon)
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


def _bump_weights(centers: np.ndarray, epsilon: float, v: np.ndarray) -> np.ndarray:
    """:func:`bump_weight` on arrays of centers and points, with its
    arithmetic (so its values, bit for bit)."""
    d = v - centers
    ad = np.abs(d)
    t = (v - (np.where(d > 0, centers + 0.5, centers - 0.5) - epsilon)) / (2.0 * epsilon)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    ramp = np.where(d > 0, 1.0 - t, t)
    return np.where(ad <= 0.5 - epsilon, 1.0, np.where(ad >= 0.5 + epsilon, 0.0, ramp))


def _trapezoid_piecewise(table: _PieceTable | None, epsilon: float, C: float) -> Piecewise | None:
    """The interpolated composite as a piecewise over the keys and the
    ramps to their missing (constant-1) neighbours, 1/C beyond: each ramp
    [c - eps, c + eps) around a half-integer c, split at c, blends the
    two neighbours' levels linearly.  Only the half-integers next to a key
    get ramps, so a run of consecutive keys is built piece by piece and
    the gap to the next run is one piece at 1/C (the missing neighbour's
    plateau).  None unless every component is structured with edges on
    half-integers, so constant on each piece."""
    if table is None or not len(table.keys):
        return None if table is None else Piecewise.constant(1.0 / C)
    finite = np.concatenate([table.lo, table.hi])
    if np.any(finite[finite < math.inf] % 1.0 != 0.5):
        return None
    # the keys and their neighbours; each half-integer between two of them
    # follows slot j (in left)
    slots = np.unique(np.concatenate([table.keys - 1, table.keys, table.keys + 1]))
    lo, hi, level, out = columns = [np.full(len(slots), v) for v in (math.inf, math.inf, 0.0, 1.0)]
    for column, values in zip(columns, table[1:]):
        column[slots.searchsorted(table.keys)] = values
    left = np.flatnonzero(np.diff(slots) == 1)
    eps = float(epsilon)
    centers = slots[left] + 0.5
    knots = np.column_stack([centers - eps, centers, centers + eps]).ravel()
    mids = 0.5 * (knots[:-1] + knots[1:])
    t = np.arange(len(mids)) // 3  # the half-integer each piece follows
    j = left[t]

    def at(i):
        return np.where((lo[i] <= mids) & (mids < hi[i]), level[i], out[i])

    L, R, c = at(j), at(j + 1), centers[t]  # the slots either side
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
    C, epsilon = float(factor_C), _epsilon(epsilon)
    components, table = _frozen(components)
    return CompositeEVariable(bundle, components, C, epsilon,
                              _trapezoid_piecewise(table, epsilon, C))


def interpolated_spike_composite(
    bundle: FamilyBundle, epsilon: float, factor_C: float
) -> CompositeEVariable:
    """The interpolated composite of the unit-cell spikes on all integers,
    h * w_round(x) / C.  It repeats with period 1, so its piecewise holds
    one period, [1/2 - eps, 3/2 - eps), and its components are the
    spikes on 0, 1 and 2 that make it up (pieces 3 to 5 of theirs)."""
    C, epsilon = float(factor_C), _epsilon(epsilon)
    spikes = unit_cell_spikes(bundle, range(3))
    pw = _trapezoid_piecewise(spikes.table, epsilon, C)
    one_period = Piecewise(pw.edges[3:7], pw.a[3:6], pw.b[3:6], 0.0, period=1.0)
    return CompositeEVariable(bundle, spikes, C, epsilon, one_period)


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
            return zero_evar()
        base = self._components.get(n, ONE)
        base = ONE if base is None else base
        eps = self.epsilon
        return EVariable(
            fn=lambda x, _n=n, _b=base: _b(x) * bump_weight(_n, eps, x),
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
    _epsilon(epsilon)
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

    Every spec is checked before any component is built, its numbers by
    :func:`~evarify.core._number`: a number that is not finite, an index
    that is not integral, or reaches 2^53 in magnitude (the net-index
    limit of :mod:`evarify.core`), or a bool is a ``DomainError`` naming
    its field.
    """
    if not isinstance(specs, list):
        raise DomainError(f"components must be a list of component specs, got {specs!r}")
    fields = {"constant": "value", "spike": None, "likelihood_ratio": "alternative",
              "calibrated_p": "kappa"}
    checked = []  # every spec, before any component is built
    for i, raw in enumerate(specs):
        at = f"components[{i}]"
        spec = {"value": 1.0, **raw} if isinstance(raw, dict) else {}  # a constant's default
        if spec.get("type") not in tuple(fields) or "index" not in spec:
            raise DomainError(f"{at} needs an index and a type in {list(fields)}, got {raw!r}")
        name = fields[spec["type"]]
        k = _number(spec["index"], f"{at}.index", int)
        if not abs(k) < _INDEX_LIMIT:
            raise DomainError(f"{at}.index: {k} reaches the net-index limit 2^53")
        checked.append((k, spec["type"],
                        name and _number(spec.get(name), f"{at}.{name}")))  # missing: None
    out: dict[int, EVariable] = {}
    for k, ctype, value in checked:
        if ctype == "constant":
            out[k] = constant_evar(value)
        elif ctype == "spike":
            out[k] = spike_evar(bundle, k)
        elif ctype == "likelihood_ratio":
            out[k] = likelihood_ratio_evar(bundle.family, bundle.net.points(k), value)
        else:
            out[k] = upper_tail_calibrated_evar(bundle, k, value)
    return out
