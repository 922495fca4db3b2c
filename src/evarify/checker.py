"""Numerical verification of the factor-formula preconditions.

The closed-form normalizing factors rest on a handful of conditions
relating the family's divergence, net, and estimator.  Each condition is
realized here as a deterministic check over its cases (grid points,
samples, parameter pairs or triples), computed as array passes over all
of them, producing a :class:`ConditionReport` with the worst violation
and witnesses:

* ``log_ratio_identity``   log(p_theta(x)/p_s(x)) = d(g(x)||s) - d(g(x)||theta)
* ``cell_bound``           sup over cells of d(g(x) || selected point), the
  constant c' (estimated, and compared against the declared value)
* ``cell_sandwich``        pred(s) <= pred(g(x)) <= succ(g(x)) <= succ(s)
* ``divergence_growth``    d >= (1 + alpha) log(k - 1) across k net points
* ``reverse_triangle``     d(t1||t3) >= d(t1||t2) + d(t2||t3) on monotone
  triples (exact for exponential families: the divergence is a Bregman
  divergence of the convex cumulant)
* ``step_lower_bound``     min divergence between consecutive net points,
  the constant c (estimated, both directions)

Checks are pure functions of their inputs plus an explicit seed, so two
runs with the same arguments produce identical reports.  The grids are
each family's own, carried by its bundle (:mod:`evarify.families`);
continuous families get cell samples from a fill of the estimator's
cells.  The log-ratio identity and the reverse triangle, exact in exact
arithmetic, allow ``IDENTITY_TOL``; the growth bound and the declared
constants c' and c, compared with measured ones, allow slack ``SLACK_TOL``
(double-precision closed forms); the sandwich allows none.  A normal
family whose n would make the checker lift more than 2**24 sample values
at once is refused with :class:`~evarify.core.DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .core import DomainError, _TILE_VALUES, _index_array
from .families import FamilyBundle

__all__ = [
    "IDENTITY_TOL",
    "SLACK_TOL",
    "ConditionReport",
    "check_log_ratio_identity",
    "estimate_cell_bound",
    "check_cell_sandwich",
    "check_divergence_growth",
    "check_reverse_triangle",
    "estimate_step_lower_bound",
    "step_bounds_directed",
    "default_cell_samples",
    "default_growth_pairs",
    "run_all_checks",
]

IDENTITY_TOL = 1e-9
SLACK_TOL = 1e-7

_WITNESS_CAP = 10
#: cells of a continuous family's cell samples and draws in each; random
#: monotone triples of the reverse-triangle check
_CELLS, _PER_CELL, _TRIPLES = 120, 25, 1000

#: sample values lifted from statistics at once at most (128 MB): the cell
#: samples lift about 3,240 statistics, so a normal family's n up to 5,178
_LIFT_VALUES_MAX = 2**24


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check.

    ``max_violation`` is 0 for a clean pass; ``witnesses`` holds up to
    ten offending (theta, s, x) triples (fields not applicable to a
    condition are None).  ``estimated_constant`` carries the measured
    c', c, or alpha where the check estimates one.
    """

    condition: str
    max_violation: float
    tolerance: float
    passing: bool
    witnesses: tuple = ()
    estimated_constant: float | None = None
    n_evaluated: int = 0
    n_skipped: int = 0

    def to_dict(self) -> dict:
        return {**vars(self), "witnesses": [list(w) for w in self.witnesses]}


# ---------------------------------------------------------------------------
# Grids and sample generators
# ---------------------------------------------------------------------------


def default_cell_samples(bundle: FamilyBundle, seed: int = 0):
    """Support samples concentrated on cell extremes plus a seeded fill;
    the divergence to the selected point is monotone towards the cell
    edges for every family here, so including exact edges makes the
    estimated cell bound sharp.  Discrete families bring their own
    (``FamilyBundle.cell_samples``); continuous ones get both edges and
    ``_PER_CELL`` draws in each of ``_CELLS`` cells (over a unit length
    next to the finite end of an unbounded cell), lifted to samples as
    one batch, cell by cell."""
    rng = np.random.default_rng(seed)
    if bundle.cell_samples is not None:
        return bundle.cell_samples(bundle, rng)
    net, est = bundle.net, bundle.estimator
    half = _CELLS // 2
    first = max(-half if net.k_min is None else net.k_min, -half)
    e = est.edges(np.arange(first, first + _CELLS))
    lo = np.where(np.isfinite(e[:, 0]), e[:, 0], e[:, 1] - 1.0)
    hi = np.where(np.isfinite(e[:, 1]), e[:, 1], e[:, 0] + 1.0)
    inner = rng.uniform(lo[:, None], hi[:, None], (_CELLS, _PER_CELL))
    # each cell's ends, the float next to an end inside where it is open
    right = est.right_closed
    v = np.column_stack([np.nextafter(lo, hi) if right else lo,
                         hi if right else np.nextafter(hi, lo), inner])
    a, b = e[:, :1], e[:, 1:]
    inside = (a < v if right else a <= v) & (v <= b if right else v < b)
    return _lift(bundle, v[inside])


def default_growth_pairs(bundle: FamilyBundle) -> list:
    """Parameter pairs straddling runs of up to 1000 net points (realizing
    each between-count near its binding infimum) plus 300 random pairs
    (seed 0), over the net's indices, from -500 to 500 where it is
    unbounded; a net of one point has no pair.  The net points come from
    one call for each kind of pair."""
    net = bundle.net
    rng = np.random.default_rng(0)
    lo_k = net.k_min if net.k_min is not None else -500
    hi_k = net.k_max if net.k_max is not None else 500
    space = bundle.family.param_space
    gaps = sorted({g for g in [2, 3, 4, 5, 8, 13, 21, 55, 144, 377, 1000]
                   if g <= hi_k - lo_k})
    anchors = sorted({a for a in (lo_k, (lo_k + hi_k) // 2, hi_k - 2)
                      if a >= lo_k})
    a, b = np.array([(a, a + gap) for gap in gaps for a in anchors if a + gap <= hi_k],
                    dtype=np.int64).reshape(-1, 2).T
    has_prev, has_next = a - 1 >= lo_k, b + 1 <= hi_k
    pa, pb, p_prev, p_next, p_inner = net.points(np.stack(
        [a, b, np.where(has_prev, a - 1, a), np.where(has_next, b + 1, b), b - 1]))
    # past the index range: the gap to the end of the parameter space, or
    # a unit gap (at least one net step, at the top) where it is unbounded
    first_gap = pa - space.lo if space.lo > -math.inf else 1.0
    last_gap = space.hi - pb if space.hi < math.inf else np.maximum(1.0, pb - p_inner)
    prev_gap = np.where(has_prev, pa - p_prev, first_gap)
    next_gap = np.where(has_next, p_next - pb, last_gap)
    # sit just outside the run of net points so the between-count is
    # b - a + 1 while the divergence stays near its infimum
    candidates = [(pa - prev_gap / 64.0, pb + next_gap / 64.0)]
    draws = []
    for _ in range(300 if hi_k > lo_k else 0):
        ka = int(rng.integers(lo_k, hi_k))
        kb = int(rng.integers(lo_k, hi_k))
        if ka != kb:
            draws.append((min(ka, kb), max(ka, kb), rng.random(), rng.random()))
    draws = np.array(draws).reshape(-1, 4)  # the indices are exact as floats
    p1, p2 = net.points(draws[:, :2].T.astype(np.int64))
    candidates.append((p1 + (draws[:, 2] - 0.5) * 1e-3, p2 + (draws[:, 3] - 0.5) * 1e-3))
    return [(t1, t2) for t1s, t2s in candidates for t1, t2 in zip(t1s.tolist(), t2s.tolist())
            if t1 < t2 and space.contains(t1) and space.contains(t2)]


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------


def _lift(bundle: FamilyBundle, gs: np.ndarray) -> np.ndarray:
    """The samples of the statistics gs, one batch (``Family.lift``); a
    batch of more than ``_LIFT_VALUES_MAX`` values raises
    :class:`DomainError` naming the family's n, before any is made."""
    n = bundle.family.sample_dim
    if len(gs) * n > _LIFT_VALUES_MAX:
        raise DomainError(f"family.params.n: {n} draws per sample would make the checker lift "
                          f"{len(gs)} statistics to {len(gs) * n} values, more than 2**24")
    return bundle.family.lift(gs)


def _statistics(bundle: FamilyBundle, xs: Sequence) -> np.ndarray:
    """Each sample's statistic g(x), from one batch call (the samples as
    one array in ``log_density``'s convention)."""
    if len(xs) == 0:
        return np.empty(0)
    return bundle.family.estimator_g(np.asarray(xs, dtype=float))


def check_log_ratio_identity(bundle: FamilyBundle, axes: tuple | None = None) -> ConditionReport:
    """|log(p_theta(x)/p_s(x)) - (d(g(x)||s) - d(g(x)||theta))| over the
    grid of ``axes``, (thetas, net indices, statistic values g(x)), the
    bundle's ``identity_axes`` by default; points where either density
    vanishes are skipped and counted (families with parameter-dependent
    support satisfy the identity on the common support only).

    The identity says that A_t(x) = log p_t(x) + d(g(x)||t) does not
    depend on t, and each pair's residual is |A_theta(x) - A_s(x)|.  Each
    side, the thetas and the net points s, is evaluated in tiles of
    parameters by statistic values, one ``log_density`` and one
    ``divergence_fn`` call per tile: a tile holds every parameter of the
    side when they fit, so a family's work on the statistics alone runs
    once per tile of statistics, and at most 2**14 values
    (``_TILE_VALUES``), so memory is bounded on both axes whatever the
    grid.  Each tile is folded into its statistics' extremes on its side.
    The worst residual is the largest gap between the two sides' extremes
    at a statistic; a NaN residual fails.  Only a failing check looks for
    witnesses: the first ten pairs beyond ``IDENTITY_TOL`` in theta-major
    order (theta by theta, s by s within a theta), each at its largest
    residual."""
    thetas, indices, gs = bundle.identity_axes(bundle) if axes is None else axes
    thetas, gs = np.asarray(thetas, dtype=float), np.asarray(gs, dtype=float)
    fam = bundle.family
    x_arr = _lift(bundle, gs)
    points = bundle.net.points(indices)
    per_value = max(1, x_arr.size // max(1, len(gs)))  # lifted values per statistic

    def tiles(params):
        """(statistic slice, A_t, p_t > 0) of each tile: the statistics
        tile by tile, and within a tile of them the parameters in as few
        tiles as fit."""
        rows = max(1, min(len(params), _TILE_VALUES // per_value))
        cols = max(1, _TILE_VALUES // (rows * per_value))
        for g0 in range(0, len(gs), cols):
            on = slice(g0, g0 + cols)
            for p0 in range(0, len(params), rows):
                col = params[p0:p0 + rows, None]
                ld = fam.log_density(col, x_arr[on])
                with np.errstate(invalid="ignore"):  # -inf + inf off the support
                    a = ld + fam.divergence_fn(gs[on], col)
                yield on, a, np.isfinite(ld)

    def row(t):
        """A_t over the whole statistic axis, and where p_t is positive."""
        parts = list(tiles(np.array([t])))
        return (np.concatenate([a[0] for _, a, _ in parts]),
                np.concatenate([positive[0] for _, _, positive in parts]))

    side_s = _fold(tiles(points), len(gs))
    side_theta = _fold(tiles(thetas), len(gs))
    worst = float(np.max(_largest_residual(side_theta, side_s), initial=0.0))
    witnesses = () if worst <= IDENTITY_TOL else tuple(islice(
        _identity_witnesses(row, thetas, points, gs, side_s), _WITNESS_CAP))
    n_eval = int(side_theta[2] @ side_s[2])
    return ConditionReport(
        condition="log_ratio_identity",
        max_violation=0.0 if worst <= IDENTITY_TOL else worst,
        tolerance=IDENTITY_TOL,
        passing=worst <= IDENTITY_TOL,
        witnesses=witnesses,
        estimated_constant=worst,
        n_evaluated=n_eval,
        n_skipped=len(thetas) * len(points) * len(gs) - n_eval,
    )


def _fold(tiles, n: int) -> tuple:
    """Per statistic, over the parameters whose density is positive there:
    the largest and smallest A_t (NaNs aside), how many parameters, and
    whether any A_t is NaN; each tile is reduced along its parameters
    into its statistics' slots (max and min are exact, in any order)."""
    hi, lo = np.full(n, -math.inf), np.full(n, math.inf)
    count, nan = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    for on, a, positive in tiles:
        is_nan = np.isnan(a)
        number = positive & ~is_nan
        top = np.max(a, axis=0, initial=-math.inf, where=number)
        bottom = np.min(a, axis=0, initial=math.inf, where=number)
        count[on] += np.count_nonzero(positive, axis=0)
        nan[on] |= np.any(positive & is_nan, axis=0)
        np.maximum(hi[on], top, out=hi[on])
        np.minimum(lo[on], bottom, out=lo[on])
    return hi, lo, count, nan


def _largest_residual(a: tuple, b: tuple) -> np.ndarray:
    """Per statistic, the largest |A_a - A_b| over the pairs of rows of
    two folds where both densities are positive: 0 where there is no such
    pair, NaN where some pair's residual is NaN (a NaN A, or the same
    infinity on both sides).  Floating-point subtraction is monotone, so the
    largest difference is that of the extremes, exactly."""
    hi_a, lo_a, n_a, nan_a = a
    hi_b, lo_b, n_b, nan_b = b
    with np.errstate(invalid="ignore"):  # inf - inf, marked NaN below
        resid = np.maximum(hi_a - lo_b, hi_b - lo_a)
    undefined = (nan_a | nan_b | ((hi_a == math.inf) & (hi_b == math.inf))
                 | ((lo_a == -math.inf) & (lo_b == -math.inf)))
    return np.where((n_a > 0) & (n_b > 0), np.where(undefined, math.nan, resid), 0.0)


def _identity_witnesses(row, thetas, points, gs, side_s):
    """(theta, s, g, residual) for each pair whose largest residual is
    beyond ``IDENTITY_TOL`` (or NaN), theta-major; the pairs of a theta
    are scanned only when its row against the net points' fold fails."""
    for theta in thetas:
        a, positive = row(theta)
        if np.max(_largest_residual(_fold([(slice(None), a[None], positive[None])], len(gs)),
                                    side_s), initial=0.0) <= IDENTITY_TOL:
            continue
        for s in points:
            b, positive_s = row(s)
            with np.errstate(invalid="ignore"):
                resid = np.where(positive & positive_s, np.abs(a - b), 0.0)
            i = int(np.argmax(resid))
            if not resid[i] <= IDENTITY_TOL:
                yield float(theta), float(s), float(gs[i]), float(resid[i])


def _report(condition: str, excess: np.ndarray, tolerance: float, cases: Sequence,
            **counts) -> ConditionReport:
    """The report of a check whose cases exceed their bound by ``excess``
    (a case holds where it is at most 0; a NaN, an undefined case, fails):
    the worst violation max(0, excess), a pass when every case is within
    ``tolerance``, and as witnesses the first ten cases beyond it in case
    order, each its values in ``cases`` (arrays, or None for a field that
    does not apply) and its violation."""
    viol = np.where((excess > 0.0) | np.isnan(excess), excess, 0.0)
    beyond = np.flatnonzero(~(viol <= tolerance))
    return ConditionReport(
        condition=condition,
        max_violation=float(np.max(viol, initial=0.0)),
        tolerance=tolerance,
        passing=not len(beyond),
        witnesses=tuple((*(None if c is None else float(c[i]) for c in cases), float(viol[i]))
                        for i in beyond[:_WITNESS_CAP]),
        **counts,
    )


def _selected(bundle: FamilyBundle, gs: np.ndarray) -> np.ndarray:
    """The net point the estimator selects for each statistic."""
    return bundle.net.points(bundle.estimator.index(gs))


def estimate_cell_bound(bundle: FamilyBundle, samples: Sequence | None = None) -> float:
    """sup over samples of d(g(x) || selected net point) -- the measured
    cell constant c'.  With a declared c' in the bundle the estimate must
    not exceed it (checked by :func:`run_all_checks`)."""
    xs = default_cell_samples(bundle) if samples is None else samples
    gs = _statistics(bundle, xs)
    return float(np.max(bundle.family.divergence_fn(gs, _selected(bundle, gs))))


def check_cell_sandwich(
    bundle: FamilyBundle, samples: Sequence | None = None
) -> ConditionReport:
    """pred(s) <= pred(g(x)) and succ(g(x)) <= succ(s) for s = shat(x);
    absent neighbours (net extremes) make the comparison vacuous.  The
    net gives the neighbours of all the statistics and selected points
    at once."""
    xs = default_cell_samples(bundle) if samples is None else samples
    gs = _statistics(bundle, xs)
    s, viol = _sandwich(bundle, gs) if len(gs) else (gs, gs)
    return _report("cell_sandwich", viol, 0.0, (None, s, gs), n_evaluated=len(list(xs)))


def _sandwich(bundle: FamilyBundle, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The selected point of each statistic and its sandwich violation
    (the net's pred and succ are NaN where it has no neighbour)."""
    net, s = bundle.net, _selected(bundle, gs)
    ps, pg = net.pred(s), net.pred(gs)
    ss, sg = net.succ(s), net.succ(gs)
    return s, np.maximum.reduce([
        np.zeros(len(gs)),
        np.where(pg < ps, ps - pg, 0.0),
        np.where(~np.isnan(ps) & np.isnan(pg), math.inf, 0.0),
        np.where(sg > ss, sg - ss, 0.0),
        np.where(np.isnan(sg) & ~np.isnan(ss), math.inf, 0.0),
    ])


def check_divergence_growth(
    bundle: FamilyBundle,
    pairs: Sequence[tuple[float, float]] | None = None,
    alpha: float | None = None,
) -> ConditionReport:
    """Both directed divergences must clear (1 + alpha) * log(k - 1) where
    k counts net points strictly between the pair, with slack
    ``SLACK_TOL``; pairs separating at most two net points are vacuous
    (the bound is 0 at two; pairs with fewer are skipped).  With
    ``alpha=None`` the check estimates the largest admissible exponent
    instead of asserting.  Each direction is one divergence call over
    all the pairs."""
    ps = default_growth_pairs(bundle) if pairs is None else pairs
    net, div = bundle.net, bundle.family.divergence_fn
    t = np.sort(np.asarray(ps, dtype=float).reshape(-1, 2), axis=1)
    k = np.asarray(net.count_between(t[:, 0], t[:, 1]), dtype=float)
    t, k = t[k > 1], k[k > 1]
    # math.log, as the bound is written: np.log rounds a few values apart
    log_k1 = np.array([math.log(v - 1.0) for v in k.tolist()])
    dmin = np.minimum(div(t[:, 0], t[:, 1]), div(t[:, 1], t[:, 0]))
    grows = (log_k1 > 0) & ~np.isnan(dmin)
    best = float(np.min(dmin[grows] / log_k1[grows], initial=math.inf))
    # with no exponent to assert every bound is -inf: only a NaN fails
    bound = -math.inf if alpha is None else (1.0 + alpha) * log_k1
    return _report("divergence_growth", bound - dmin, SLACK_TOL, (t[:, 0], t[:, 1], k),
                   estimated_constant=(best - 1.0) if math.isfinite(best) else None,
                   n_evaluated=len(k))


def check_reverse_triangle(
    bundle: FamilyBundle,
    triples: Sequence[tuple[float, float, float]] | None = None,
    seed: int = 0,
) -> ConditionReport:
    """d(t1||t3) >= d(t1||t2) + d(t2||t3) on monotone triples, within
    ``IDENTITY_TOL``; triples with d(t1||t3) infinite are skipped but
    counted.  Each of the three divergences is one call over all the
    triples."""
    if triples is None:
        rng = np.random.default_rng(seed)
        space = bundle.family.param_space
        if space.integer:
            draws = rng.integers(0, 4096, (_TRIPLES, 3)).astype(float)
        elif space.lo == 0.0:  # scale parameter: geometric draws
            draws = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (_TRIPLES, 3)))
        else:
            draws = rng.uniform(-50.0, 50.0, (_TRIPLES, 3))
        draws.sort(axis=1)
        triples = np.vstack([draws, draws[: _TRIPLES // 2, ::-1]])
    t = np.asarray(triples, dtype=float).reshape(-1, 3)
    div = bundle.family.divergence_fn
    d13, d12, d23 = div(t[:, 0], t[:, 2]), div(t[:, 0], t[:, 1]), div(t[:, 1], t[:, 2])
    kept = ~np.isinf(d13)
    with np.errstate(invalid="ignore"):  # inf - inf where d13 is skipped
        excess = (d12 + d23) - d13
    return _report("reverse_triangle", excess[kept], IDENTITY_TOL, t[kept].T,
                   n_evaluated=len(t))


def step_bounds_directed(
    bundle: FamilyBundle, index_window: Sequence[int]
) -> tuple[float, float]:
    """(min over consecutive pairs of d(lower||upper),
        min of d(upper||lower)) over the index window."""
    pts = bundle.net.points(np.sort(_index_array(index_window)))
    fam = bundle.family
    d_up = fam.divergence_fn(pts[1:], pts[:-1])
    d_dn = fam.divergence_fn(pts[:-1], pts[1:])
    return float(np.min(d_dn)), float(np.min(d_up))


def estimate_step_lower_bound(
    bundle: FamilyBundle, index_window: Sequence[int]
) -> float:
    """min over consecutive net pairs of min(d(s||s'), d(s'||s)) -- the
    measured step constant c."""
    dn, up = step_bounds_directed(bundle, index_window)
    return min(dn, up)


# ---------------------------------------------------------------------------
# Per-bundle check suites
# ---------------------------------------------------------------------------


def run_all_checks(bundle: FamilyBundle, seed: int = 0) -> dict[str, ConditionReport]:
    """Every check applicable to the bundle's factor route.

    The identity, sandwich and cell-bound checks run for all bundles (skip
    counting covers parameter-dependent supports).  The "growth" route adds
    the growth check, the "steps" route the reverse-triangle and step
    bounds.  Estimated constants are compared against the declared ones
    with ``SLACK_TOL`` slack; a "direct" bundle declares no c'.
    """
    reports: dict[str, ConditionReport] = {}
    reports["log_ratio_identity"] = check_log_ratio_identity(bundle)
    samples = default_cell_samples(bundle, seed=seed)
    reports["cell_sandwich"] = check_cell_sandwich(bundle, samples)
    inputs, route = bundle.factor_inputs, bundle.route
    c_hat = estimate_cell_bound(bundle, samples)
    declared = math.inf if route == "direct" else inputs.c_prime
    reports["cell_bound"] = _report("cell_bound", np.array([c_hat - declared]), SLACK_TOL,
                                    (None, None, None), estimated_constant=c_hat)
    if route == "growth":
        reports["divergence_growth"] = check_divergence_growth(bundle, alpha=inputs.alpha)
    if route == "steps":
        reports["reverse_triangle"] = check_reverse_triangle(bundle, seed=seed)
        net = bundle.net  # its indices, from -1000 to 1000 where it is unbounded
        window = range(-1000 if net.k_min is None else net.k_min,
                       (1000 if net.k_max is None else net.k_max) + 1)
        c_est = estimate_step_lower_bound(bundle, window)
        reports["step_lower_bound"] = _report("step_lower_bound", np.array([inputs.c - c_est]),
                                              SLACK_TOL, (None, None, None),
                                              estimated_constant=c_est)
    return reports
