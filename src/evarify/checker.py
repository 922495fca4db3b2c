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
cells.  Identities use tolerance ``IDENTITY_TOL``; inequalities allow slack
``SLACK_TOL`` (double-precision closed forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _index_array
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

#: Most values the identity check caches per theta-side array (1.5 MB of
#: floats); larger grids take their thetas in blocks.  A larger cache
#: raises the peak memory of `check-conditions` on binomial n = 10^4.
_IDENTITY_CACHE = 3 << 16


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
        return {
            "condition": self.condition,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passing": self.passing,
            "estimated_constant": self.estimated_constant,
            "n_evaluated": self.n_evaluated,
            "n_skipped": self.n_skipped,
            "witnesses": [list(w) for w in self.witnesses],
        }


# ---------------------------------------------------------------------------
# Grids and sample generators
# ---------------------------------------------------------------------------


def default_cell_samples(bundle: FamilyBundle, n_cells: int = 120,
                         per_cell: int = 25, seed: int = 0):
    """Support samples concentrated on cell extremes plus a seeded fill;
    the divergence to the selected point is monotone towards the cell
    edges for every family here, so including exact edges makes the
    estimated cell bound sharp.  Discrete families bring their own
    (``FamilyBundle.cell_samples``); continuous ones get both edges and
    ``per_cell`` draws in each of ``n_cells`` cells (over a unit length
    next to the finite end of an unbounded cell), lifted to samples as
    one batch, cell by cell."""
    rng = np.random.default_rng(seed)
    if bundle.cell_samples is not None:
        return bundle.cell_samples(bundle, n_cells, per_cell, rng)
    net, est = bundle.net, bundle.estimator
    half = n_cells // 2
    first = max(-half if net.k_min is None else net.k_min, -half)
    e = est.edges(np.arange(first, first + n_cells))
    lo = np.where(np.isfinite(e[:, 0]), e[:, 0], e[:, 1] - 1.0)
    hi = np.where(np.isfinite(e[:, 1]), e[:, 1], e[:, 0] + 1.0)
    inner = rng.uniform(lo[:, None], hi[:, None], (n_cells, per_cell))
    # each cell's ends, the float next to an end inside where it is open
    right = est.right_closed
    v = np.column_stack([np.nextafter(lo, hi) if right else lo,
                         hi if right else np.nextafter(hi, lo), inner])
    a, b = e[:, :1], e[:, 1:]
    inside = (a < v if right else a <= v) & (v <= b if right else v < b)
    return bundle.family.lift(v[inside])


def default_growth_pairs(bundle: FamilyBundle) -> list:
    """Parameter pairs straddling runs of up to 1000 net points (realizing
    each between-count near its binding infimum) plus 300 random pairs
    (seed 0), over the net's indices, from -500 to 500 where it is
    unbounded."""
    net = bundle.net
    rng = np.random.default_rng(0)
    lo_k = net.k_min if net.k_min is not None else -500
    hi_k = net.k_max if net.k_max is not None else 500
    pairs: list[tuple[float, float]] = []
    gaps = sorted({g for g in [2, 3, 4, 5, 8, 13, 21, 55, 144, 377, 1000]
                   if g <= hi_k - lo_k})
    anchors = sorted({a for a in (lo_k, (lo_k + hi_k) // 2, hi_k - 2)
                      if a >= lo_k})
    space = bundle.family.param_space
    for gap in gaps:
        for a in anchors:
            b = a + gap
            if b > hi_k:
                continue
            pa, pb = net.points(a), net.points(b)
            if a - 1 >= lo_k:
                prev_gap = pa - net.points(a - 1)
            elif space.lo > -math.inf:
                prev_gap = pa - space.lo
            else:  # pragma: no cover - nets bounded below have finite lo
                prev_gap = 1.0
            if b + 1 <= hi_k:
                next_gap = net.points(b + 1) - pb
            elif space.hi < math.inf:
                next_gap = space.hi - pb
            else:
                next_gap = max(1.0, pb - net.points(b - 1))
            # sit just outside the run of net points so the between-count
            # is b - a + 1 while the divergence stays near its infimum
            t1 = pa - prev_gap / 64.0
            t2 = pb + next_gap / 64.0
            if space.contains(t1) and space.contains(t2):
                pairs.append((float(t1), float(t2)))
    for _ in range(300):
        ka = int(rng.integers(lo_k, hi_k))
        kb = int(rng.integers(lo_k, hi_k))
        if ka == kb:
            continue
        ka, kb = min(ka, kb), max(ka, kb)
        t1 = net.points(ka) + (rng.random() - 0.5) * 1e-3
        t2 = net.points(kb) + (rng.random() - 0.5) * 1e-3
        if t1 < t2 and space.contains(t1) and space.contains(t2):
            pairs.append((float(t1), float(t2)))
    return pairs


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------


def _batch(bundle: FamilyBundle, xs: Sequence):
    """Samples as one batch in ``log_density``'s convention."""
    if bundle.family.sample_dim > 1:
        return np.stack(xs)
    return np.asarray(xs, dtype=float)


def _statistics(bundle: FamilyBundle, xs: Sequence) -> np.ndarray:
    """Each sample's statistic g(x), from one batch call."""
    if len(xs) == 0:
        return np.empty(0)
    return bundle.family.estimator_g(_batch(bundle, xs))


def check_log_ratio_identity(bundle: FamilyBundle, axes: tuple | None = None) -> ConditionReport:
    """|log(p_theta(x)/p_s(x)) - (d(g(x)||s) - d(g(x)||theta))| over the
    grid of ``axes``, (thetas, net indices, statistic values g(x)), the
    bundle's ``identity_axes`` by default; points where either density
    vanishes are skipped and counted (families with parameter-dependent
    support satisfy the identity on the common support only).

    The thetas are taken in blocks of at most ``_IDENTITY_CACHE`` cached
    values per array: each block computes ``log p_theta(x)`` and
    ``d(g(x)||theta)`` once per theta, then ``log p_s(x)`` and
    ``d(g(x)||s)`` once per net point s, and uses them for every theta of
    the block.  Each (theta, s) pair keeps its largest residual and where
    it lies; the witnesses are the first ten pairs above the tolerance in
    theta-major order (theta by theta, s by s within a theta), and the
    tolerance is ``IDENTITY_TOL``."""
    thetas, indices, gs = bundle.identity_axes(bundle) if axes is None else axes
    thetas, gs = np.asarray(thetas, dtype=float), np.asarray(gs, dtype=float)
    fam = bundle.family
    x_arr = fam.lift(gs)
    points = bundle.net.points(indices)
    # each pair's largest residual and its position on the g axis; NaN
    # marks a pair with no common support (or a NaN residual), which
    # neither raises the worst value nor makes a witness
    peak = np.full((len(thetas), len(points)), np.nan)
    at = np.zeros(peak.shape, dtype=int)
    n_eval = 0
    block = max(1, _IDENTITY_CACHE // max(1, len(gs)))
    for start in range(0, len(thetas), block):
        rows = range(start, min(start + block, len(thetas)))
        ld_theta = [fam.log_density(thetas[i], x_arr) for i in rows]
        d_g_theta = [fam.divergence_fn(gs, thetas[i]) for i in rows]
        fin_theta = [np.isfinite(ld) for ld in ld_theta]
        for j, s in enumerate(points):
            ld_s = fam.log_density(s, x_arr)
            fin_s = np.isfinite(ld_s)
            d_g_s = None
            for r, i in enumerate(rows):
                ok = fin_theta[r] & fin_s
                n_ok = int(np.count_nonzero(ok))
                n_eval += n_ok
                if n_ok == 0:
                    continue
                if d_g_s is None:
                    d_g_s = fam.divergence_fn(gs, s)
                with np.errstate(invalid="ignore"):
                    resid = np.abs((ld_theta[r] - ld_s) - (d_g_s - d_g_theta[r]))
                resid = np.where(ok, resid, 0.0)
                at[i, j] = np.argmax(resid)
                peak[i, j] = resid[at[i, j]]
    worst = float(np.max(peak, initial=0.0, where=peak > 0.0))
    witnesses = tuple(
        (float(thetas[i]), float(points[j]), float(gs[at[i, j]]), float(peak[i, j]))
        for i, j in np.argwhere(peak > IDENTITY_TOL)[:_WITNESS_CAP])
    return ConditionReport(
        condition="log_ratio_identity",
        max_violation=worst if worst > IDENTITY_TOL else 0.0,
        tolerance=IDENTITY_TOL,
        passing=worst <= IDENTITY_TOL,
        witnesses=witnesses,
        estimated_constant=worst,
        n_evaluated=n_eval,
        n_skipped=peak.size * len(gs) - n_eval,
    )


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
    if alpha is None and bundle.factor_inputs is not None:
        alpha = bundle.factor_inputs.alpha
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
    n_triples: int = 1000,
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
            draws = rng.integers(0, 4096, (n_triples, 3)).astype(float)
        elif space.lo == 0.0:  # scale parameter: geometric draws
            draws = np.exp(rng.uniform(math.log(1e-3), math.log(1e3),
                                       (n_triples, 3)))
        else:
            draws = rng.uniform(-50.0, 50.0, (n_triples, 3))
        draws.sort(axis=1)
        triples = np.vstack([draws, draws[: n_triples // 2, ::-1]])
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


def _default_step_window(bundle: FamilyBundle) -> range:
    net = bundle.net
    lo = net.k_min if net.k_min is not None else -1000
    hi = net.k_max if net.k_max is not None else 1000
    return range(lo, hi + 1)


def run_all_checks(bundle: FamilyBundle, seed: int = 0) -> dict[str, ConditionReport]:
    """Every check applicable to the bundle's factor route.

    The identity and sandwich checks run for all bundles (skip counting
    covers parameter-dependent supports).  Growth runs where the bundle
    declares a growth exponent, reverse-triangle and step bounds where it
    declares a step constant.  Estimated constants are compared against
    the declared ones with ``SLACK_TOL`` slack.
    """
    reports: dict[str, ConditionReport] = {}
    reports["log_ratio_identity"] = check_log_ratio_identity(bundle)
    samples = default_cell_samples(bundle, seed=seed)
    reports["cell_sandwich"] = check_cell_sandwich(bundle, samples)
    c_hat = estimate_cell_bound(bundle, samples)
    declared = bundle.factor_inputs.c_prime if bundle.factor_inputs else None
    ok = True if declared is None else c_hat <= declared + SLACK_TOL
    reports["cell_bound"] = ConditionReport(
        condition="cell_bound",
        max_violation=0.0 if ok else c_hat - declared,
        tolerance=SLACK_TOL,
        passing=ok,
        estimated_constant=c_hat,
    )
    inputs = bundle.factor_inputs
    if inputs is not None and inputs.alpha is not None:
        reports["divergence_growth"] = check_divergence_growth(
            bundle, alpha=inputs.alpha
        )
    if inputs is not None and inputs.c is not None:
        reports["reverse_triangle"] = check_reverse_triangle(bundle, seed=seed)
        c_est = estimate_step_lower_bound(bundle, _default_step_window(bundle))
        ok = c_est >= inputs.c - SLACK_TOL
        reports["step_lower_bound"] = ConditionReport(
            condition="step_lower_bound",
            max_violation=0.0 if ok else inputs.c - c_est,
            tolerance=SLACK_TOL,
            passing=ok,
            estimated_constant=c_est,
        )
    return reports
