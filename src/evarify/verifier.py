"""Numerical certification of the e-variable property.

The central claim about a composite test e is that sup over the family of
E_theta[e(X)] is at most 1.  This module estimates those expectations with
explicit error bounds and sweeps them over adversarial parameter grids.
An expectation alone is one call of :func:`expectation`, which picks its
engine.  The interpolated factor needs none: its composite repeats, so
its expectation is a Fourier series in theta whose sup over every theta
comes with a derived bound (:mod:`evarify.fourier`).

A composite of structured components (constants, spikes) carries a
:class:`~evarify.core.Piecewise`, and one closed-form engine integrates it:
E_theta = sum_i a_i dF_i + b_i dG_i over its pieces, with F the law's CDF
and G its partial first moment (only on ramps), plus the mass beyond.  A
select-and-scale composite's pieces are its runs of one level (adjacent
cells whose levels have the same bits are one piece), so the spike
composite of a location or scale bundle takes a few CDF values per theta,
not one per cell, and the rounding charge counts those pieces.  A
composite that repeats is summed over its copies near theta, and the law's
window's copies beyond those are one term per side at the period's mean
level, with a derived charge.  A sweep integrates such a
composite in one engine call over its whole grid, every row one row of
pieces with one law call and one dot product: a non-periodic composite's
rows go in tiles of thetas against its edges, and a periodic one's each
make a tile of their own, their near copies laid out copy by copy; the
rows of any other composite are one :func:`expectation` each.  Generic
components fall back to exact truncated summation (discrete families) or
Gauss-Legendre quadrature of two orders (pieces whose orders disagree by
more than their share of the tolerance are bisected).  A composite of
generic components is summed or integrated on its keyed cells alone: in the
rest of the window it is its default level 1/C, whose integral is a CDF
difference per run.  Any other generic test is keyed on the whole window,
whose quadrature pieces lie between cell boundaries and ramp knots.  Each
evaluates the test on whole batches of points, and the mass beyond a
truncation window (``law.window``) is charged against the composite's sup.
Monte Carlo, on request, bounds its mean by the 99% CI half-width plus the
rounding of the mean.  A piecewise is a function of the statistic alone, so
it is read at draws on the law's line: ``law.draw_statistic`` where that
line is not the sample (the normal mean of n > 1 draws, the normal
variance), else located samples (``law.sample``).  A discrete law's draws
are integers: when they span at most ``mc_samples`` support points, the
piecewise is read once on those points and each draw takes its point's
value, the bits of reading it at the draw.  Any other test may read
more of X than its statistic and gets sample vectors, drawn in blocks.  The
draws come from a counter-based generator keyed by (master seed, theta
index), so sweeps are reproducible and order-independent.

Adversarial generators include the spike composite of a grid (the spike
suite of :mod:`evarify.combinator` on every cell the grid reaches: each
component is the reciprocal cell probability on its own cell, the
tightest component the e-variable constraint allows) and the Poisson
maximum-likelihood counterexample E_lambda[exp(X) X! / X^X], which
exceeds every fixed normalizing constant for large enough lambda.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

# the builders are called through these names of this module, which
# perfbench's tracer wraps (spike_suite, interpolated_spike_composite,
# combine_discrete)
from .combinator import (
    CompositeEVariable,
    _many,
    combine_discrete,
    interpolated_spike_composite,
    spike_suite,
)
from .core import (
    DomainError,
    Piecewise,
    StatLaw,
    _CDF_EPS,
    _INDEX_LIMIT,
    _TILE_VALUES,
    _UNIT_ROUNDOFF,
)
from .families import FamilyBundle
from .fourier import periodic_sup

__all__ = [
    "ExpectationPlan",
    "ExpectationResult",
    "VerificationReport",
    "expectation",
    "spike_composite",
    "default_theta_grid",
    "sweep",
    "mle_counterexample_poisson",
    "mle_counterexample_poisson_with_bound",
    "uniform_ceiling_budget",
    "uniform_ceiling_budget_max",
    "certify_interpolated_factor",
]

def _rng_for(seed: int, theta_index: int) -> np.random.Generator:
    # counter-based: independent streams per (seed, theta index), merge
    # order cannot matter
    # a uint64 key: numpy makes a list holding 2**63 or more float64, and
    # seeds 2**63 and 2**63 + 1 then round to one key
    key = np.array([seed, theta_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Plans and results
# ---------------------------------------------------------------------------


#: the most Monte Carlo draws one theta takes: the piecewise path draws
#: them in one array, 128 MiB of float64 at this size
_MC_SAMPLES_MAX = 2**24


@dataclass(frozen=True)
class ExpectationPlan:
    """How to estimate E_theta[e(X)].

    "auto" picks exact summation for discrete families and cellwise /
    piecewise quadrature for continuous ones; "monte_carlo" draws
    ``mc_samples`` samples.  ``tail_mass`` is the probability mass
    allowed outside the truncation window (charged to the error bound
    against the composite's sup), in [2**-51, 1e-12] (up to 1e-6 for
    Monte Carlo): below, the spike envelope's upper quantile level
    1 - tail_mass / 4 rounds to 1.  Generic quadrature aims at ``_QUAD_TOL``.
    Monte Carlo draws ``mc_samples`` in [2, 2**24] and reports a 99% CI
    half-width plus the mean's rounding as its error bound, its draws
    keyed by ``seed``, an integer in [0, 2**64).
    """

    method: str = "auto"  # auto | monte_carlo
    tail_mass: float = 1e-12
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("auto", "monte_carlo"):
            raise DomainError(f"unknown expectation method {self.method!r} (auto | monte_carlo)")
        cap = 1e-6 if self.method == "monte_carlo" else 1e-12
        if not 2.0**-51 <= self.tail_mass <= cap:
            raise DomainError(f"tail_mass must lie in [2**-51, {cap:g}] for method "
                              f"{self.method!r} (got {self.tail_mass!r})")
        if not (isinstance(self.mc_samples, int) and 2 <= self.mc_samples <= _MC_SAMPLES_MAX):
            # a sample variance needs two draws
            raise DomainError(f"mc_samples must be an integer in [2, 2**24] "
                              f"(got {self.mc_samples!r})")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):  # a Philox key word
            raise DomainError(f"seed must be an integer in [0, 2**64) (got {self.seed!r})")


@dataclass(frozen=True)
class ExpectationResult:
    estimate: float
    error_bound: float
    method: str


# ---------------------------------------------------------------------------
# The spike composite of a grid
# ---------------------------------------------------------------------------


def _grid_index_envelope(
    bundle: FamilyBundle, theta_grid: Sequence[float], tail: float
) -> tuple[int, int]:
    """Net-index range whose cells carry all but ``tail`` of the mass for
    every theta in the grid (heavy-tailed statistics are capped and the
    remainder charged to the error bound), cut to the indices whose points
    lie in the parameter space (a scale net's points underflow to 0 and
    overflow to inf).  A :class:`DomainError` names a theta whose range
    holds two indices with one point (below the normal floats), as their
    cells are not distinct floats."""
    law, space, net = bundle.family.law, bundle.family.param_space, bundle.net
    grid = np.asarray(theta_grid, dtype=float)
    ends = law.window(grid, tail / 2.0)
    if not law.discrete:  # into the open support, where statistics lie
        ends = np.clip(ends, np.nextafter(law.lo, np.inf), np.nextafter(law.hi, -np.inf))
    ks = bundle.index(ends.ravel()).reshape(ends.shape)
    lo, hi = ks.min(axis=-1) - 2, ks.max(axis=-1) + 2
    k_lo, k_hi = (int(k) for k in net._clip(np.array([lo.min(), hi.max()])))
    points = net.points(range(k_lo, k_hi + 1))
    first = np.searchsorted(points, space.lo, "right" if space.lo_open else "left")
    last = np.searchsorted(points, space.hi) - 1
    tied = k_lo + first + np.flatnonzero(np.diff(points[first:last + 1]) <= 0.0)
    reached = (lo[:, None] <= tied) & (tied < hi[:, None])  # k and k + 1 in a theta's range
    if reached.any():
        row, col = np.argwhere(reached)[0]
        raise DomainError(f"theta = {float(grid[row])!r}: net indices {tied[col]} and "
                          f"{tied[col] + 1} near it share the point {net.points(int(tied[col]))!r}, "
                          "so their cells are not distinct floats")
    return k_lo + int(first), k_lo + int(last)


def spike_composite(
    bundle: FamilyBundle,
    theta_grid: Sequence[float] | None = None,
    factor_C: float | None = None,
    plan: ExpectationPlan | None = None,
) -> CompositeEVariable:
    """The full-spike-suite composite covering every cell the given grid
    can reach (constant-1 defaults beyond, which only lowers it)."""
    plan = plan or ExpectationPlan()
    k_lo, k_hi = _grid_index_envelope(bundle, _theta_grid(bundle, theta_grid), plan.tail_mass)
    suite = spike_suite(bundle, range(k_lo, k_hi + 1))
    return combine_discrete(bundle, suite, factor_C=factor_C)


# ---------------------------------------------------------------------------
# The closed-form engine of structured composites
# ---------------------------------------------------------------------------


def _piecewise_expectations(pw: Piecewise, law: StatLaw, tail: float,
                            thetas: Sequence[float]) -> list[ExpectationResult]:
    """E_theta of a piecewise composite at each theta of ``thetas``: sum_i a_i
    dF_i + b_i dG_i over its pieces (G, the law's partial first moment, only
    on ramps, b != 0) plus the mass beyond at the outside level.  A periodic
    piecewise is integrated over the copies on the periods meeting the law's
    window, the mass beyond at the sup with its spread down to the least
    value in the bound.  On a law with ``moment``, only the copies within
    ``_NEAR_COPIES`` of theta's own, floor((theta - e_0) / p), are summed
    piece by piece (on any other law, all of them); the window's
    copies beyond them, on each side, are one term f_bar dF at the period's
    mean level, charged M / 2 times the adjacent near copy's dF, M = max
    |f - f_bar| (:func:`_far_copies` derives it), plus f_bar's rounding.
    Rounding: _CDF_EPS (pieces + 2) max(1, sup) for F's error times a jump,
    each far term counted as a piece; ramps' a_i = value - b_i v grow with
    |v|, b_i with 1/(2 eps), so each piece adds _CDF_EPS (|a| F + |b| (|G| +
    |theta| F)) at both ends and the sum (pieces + 2) u sum_i |a_i dF_i| +
    |b_i dG_i| (and |f_bar dF| of the far terms), in whatever order it is
    taken (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).

    The thetas go in tiles of rows, a column of thetas against a row of
    points, one law call and one dot product per row over the tile's
    pieces: a non-periodic piecewise takes as many rows as fit in
    ``core._TILE_VALUES`` values per law call, each row's sums reduced over
    the tile at once (the dot products row by row, whose bits a matrix
    product does not keep).  A periodic row is a tile of its own, one row
    of pieces over its near copies j0..j1 copy by copy: edges e_i + s and
    coefficients a_i - b_i s, |a_i| + |b_i| |s| for the copy shifted by s.
    """
    B = np.abs(pw.b)
    column = np.asarray(thetas, dtype=float)[:, None]
    level, spread = pw.outside, 0.0  # the mass beyond's level and spread (periodic: below)

    def at(theta, v):  # F and, for ramps, G: a column of thetas against a row of points v
        return law.moment(theta, v) if pw.ramps else (law.cdf(theta, v),)

    def results(theta, tile, a, A, b, absb, F, count, far=(0.0, 0.0, 0.0)):
        # the pieces run from each point of the tile's row to the next, a + b v
        # on it with |a + b v| <= A; F at the ends of their run, the mass
        # beyond lies below and above (fmax: NaN to 0, as max(0, rest); 1 - x
        # is never -0)
        rest = np.fmax(1.0 - (F[:, -1] - F[:, 0]), 0.0) if F.shape[1] else np.ones(len(F))
        estimate, at_edges, terms = np.zeros((3, len(F)))
        (F0, *G0), (F1, *G1) = [r[:, :-1] for r in tile], [r[:, 1:] for r in tile]
        dF = F1 - F0
        estimate += [np.dot(a, row) for row in dF]
        if pw.ramps:
            (G0,), (G1,) = G0, G1
            dG = G1 - G0
            estimate += (b * dG).sum(axis=1)
            at_edges += ((A + np.abs(theta) * absb) * (F0 + F1)
                         + absb * (np.abs(G0) + np.abs(G1))).sum(axis=1)
            terms += (A * np.abs(dF) + absb * np.abs(dG)).sum(axis=1)
        # the far copies' terms (value, |value|, charge); zeros add nothing to the bits
        estimate += far[0]
        terms += far[1]
        estimate += rest * level
        eb = _CDF_EPS * (count + 2.0) * max(1.0, pw.sup)
        eb += _CDF_EPS * at_edges + _UNIT_ROUNDOFF * (count + 2.0) * terms
        eb += rest * spread + far[2]
        method = "exact_sum" if law.discrete else "quadrature"
        return [ExpectationResult(v, e, method) for v, e in zip(estimate.tolist(), eb.tolist())]

    if not pw.period:  # one copy, unshifted: a - b 0 = a and |a| + |b| 0 = |a|
        A, per, out = np.abs(pw.a), max(1, _TILE_VALUES // max(1, len(pw.edges))), []
        for s in range(0, len(column), per):
            theta = column[s:s + per]
            tile = at(theta, pw.edges)
            out += results(theta, tile, pw.a, A, pw.b, B, tile[0], len(pw.a))
        return out

    # each theta's copies j0..j1 on the periods meeting its window (and j1 + 1),
    # refused where a copy index or the copies' edges are past float resolution
    reach = np.floor((law.window(column[:, 0], tail) - pw.edges[0]) / pw.period)
    beyond = ~(np.abs(reach) < _INDEX_LIMIT).all(axis=1)
    if beyond.any():
        raise DomainError(f"theta = {thetas[int(np.argmax(beyond))]!r}: a copy of the periodic "
                          "composite beyond index 2**53, where copies are no longer "
                          "distinct floats")
    # the mass beyond is charged at the sup, down to the least end
    least = float(np.minimum(pw.a + pw.b * pw.edges[:-1], pw.a + pw.b * pw.edges[1:]).min())
    level, spread, far_level = pw.sup, pw.sup - least, _period_mean(pw, least)
    # summed copy by copy: those within _NEAR_COPIES of theta's own, where the
    # law's density falls away from theta (it carries moment); all of them else
    K = _NEAR_COPIES if law.moment else math.inf
    near = np.clip(np.floor((column - pw.edges[0]) / pw.period) + [-K, K],
                   reach[:, :1], reach[:, 1:])
    # one period's e_i, a_i, b_i, |a_i| and |b_i|, repeated for the most copies
    # a row holds (and one more): a row of J copies reads the first n J + 1
    n, out = len(pw.a), []
    unit = np.tile(np.stack([pw.edges[:-1], pw.a, pw.b, np.abs(pw.a), B]),
                   int((near[:, 1] - near[:, 0]).max()) + 2)
    for k, ((w0, w1), (j0, j1)) in enumerate(zip(reach.tolist(), near.tolist())):
        theta, m = column[k:k + 1], n * (int(j1 - j0) + 1)
        e, a, b, absa, absb = unit[:, :m + 1]
        s = pw.period * (j0 + np.arange(m + 1) // n)  # the shift of each point's copy
        edges = e + s  # copy by copy, piece by piece
        if not (edges[1:] > edges[:-1]).all():
            raise DomainError(f"theta = {thetas[k]!r}: the periodic composite's edges on "
                              "the copies there are not distinct floats")
        a, A = a[:m] - b[:m] * s[:m], absa[:m] + absb[:m] * np.abs(s[:m])
        tile = at(theta, edges)
        # F at the window's ends where copies lie beyond the near ones, else at
        # the near copies' ends; they feed rest too (no far copy: zero terms)
        far, F = [w0 < j0, j1 < w1], tile[0]
        window = pw.edges[0] + pw.period * np.array([w0, w1 + 1.0])
        ends = np.where(far, law.cdf(theta, window), F[:, [0, -1]])
        terms = _far_copies(F[0, [0, n, -n - 1, -1]].tolist(), ends[0].tolist(), far, *far_level)
        out += results(theta, tile, a, A, b[:m], absb[:m], ends, m + sum(far), terms)
    return out


#: copies of a periodic composite summed one by one on each side of theta's
#: own; the window's copies beyond are one term per side at the period's
#: mean level (:func:`_far_copies`).  On Cauchy epsilon = 0.2 (window theta
#: +/- 1e4) over its default grid, 2**10 charges at most 0.38% of a row's
#: bound and sweeps in 17 ms, against 140 ms for the whole window (Intel
#: Xeon); 2**8 charges up to 5.8% in 8 ms, and 2**6 up to 49% in 6 ms.
#: normal_mean's window (about theta +/- 7.1) holds no far copy.
_NEAR_COPIES = 2**10


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error of k roundings (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1)."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _period_mean(pw: Piecewise, least: float) -> tuple[float, float, float]:
    """A periodic piecewise f's mean over one period, the most f strays from
    it, and the mean's rounding per unit of mass it multiplies: (mean, M,
    rounding).  mean = sum_i (a_i + b_i (e_i + e_{i+1}) / 2) (e_{i+1} - e_i)
    / p is the same on every copy (the copy shifted by s is a_i - b_i s on
    e + s).  Each of its monomials takes at most n + 5 roundings (the edge
    sum, the product with b_i, the add, the width, the product with it,
    n - 1 adds and the division by p; halving is exact), so it is within
    gamma_{n+5} S of the exact mean, S = sum_i (|a_i| + |b_i| (|e_i| +
    |e_{i+1}|) / 2) (e_{i+1} - e_i) / p (Higham sec. 3.1).  f takes values
    between ``least`` and its sup, so M = max(sup - mean, mean - least)
    plus that rounding.  ``rounding`` = gamma_{n+7} S covers mean d for a
    d of one subtraction: mean's roundings, d's and the product's."""
    e0, e1 = pw.edges[:-1], pw.edges[1:]
    width = e1 - e0
    mean = float(np.sum((pw.a + pw.b * ((e0 + e1) / 2.0)) * width)) / pw.period
    size = float(np.sum((np.abs(pw.a) + np.abs(pw.b) * ((np.abs(e0) + np.abs(e1)) / 2.0))
                        * width)) / pw.period
    n = len(pw.a)
    deviation = max(pw.sup - mean, mean - least) + _gamma(n + 5) * size
    return mean, deviation, _gamma(n + 7) * size


def _far_copies(near: list, ends: list, far: list, mean: float, deviation: float,
                rounding: float) -> tuple[float, float, float]:
    """The window's copies of a periodic piecewise f beyond its near ones,
    below and above theta (where ``far`` says there are), each run taken
    whole at the period's mean level: (value, |value|, charge), value =
    mean (F(near start) - F(window start)) + mean (F(window end) - F(near
    end)).  ``near`` holds F at the near copies' start, the first one's
    end, the last one's start and their end; ``ends`` F at the window's
    ends (the near ones' where no copy lies beyond); the rest is
    :func:`_period_mean`'s.

    The charge is derived.  A law with ``moment`` has a density q symmetric
    about theta that does not increase away from it (:class:`StatLaw`), and
    a far copy c lies wholly on one side of theta, where q runs monotonely
    from q_0 to q_1.  f - mean integrates to 0 over c, so int_c f q - mean
    int_c q = int_c (f - mean)(q - k) for k = (q_0 + q_1) / 2, and |q - k|
    <= osc_c(q) / 2 on c: at most M p osc_c(q) / 2, M = max |f - mean|.  q
    is monotone over a side's run, so its copies' oscillations telescope
    to at most q at the run's near end, and the adjacent near copy, nearer
    theta, holds mass at least p q there.  So a side errs by at most M / 2
    times that copy's dF, each of its two F values within _CDF_EPS, and the
    products by ``rounding`` per unit of mass."""
    lo, hi = far
    below, above = near[0] - ends[0], ends[1] - near[3]  # 0 where no copy lies beyond
    adjacent = ((near[1] - near[0] if lo else 0.0) + (near[3] - near[2] if hi else 0.0)
                + 2.0 * _CDF_EPS * (lo + hi))
    mass = abs(below) + abs(above)
    return (mean * below + mean * above, abs(mean) * mass,
            0.5 * deviation * adjacent + rounding * mass)


# ---------------------------------------------------------------------------
# Generic expectation
# ---------------------------------------------------------------------------


#: terms of a generic exact sum at most (32 MB per array of them): the
#: default grid of every discrete bundle fits under it
_SUM_TERMS_MAX = 2**22


def _generic_discrete(e, theta, bundle, plan) -> ExpectationResult:
    """E_theta[e] summed over the support points of the law's window (and
    8 more above it) that lie in e's keyed cells, the runs between and
    beyond them at e's default level from CDF values (:func:`_keyed_cells`,
    :func:`_default_level`), the mass beyond the window charged by
    :func:`_tail_charge`; a window of more than ``_SUM_TERMS_MAX`` points
    raises :class:`DomainError`."""
    law = bundle.family.law
    lo, top = law.window(theta, plan.tail_mass).tolist()
    hi = min(law.hi, top + 8.0)
    if hi - lo + 1.0 > _SUM_TERMS_MAX:
        raise DomainError(f"theta = {theta!r}: the exact sum would take {hi - lo + 1.0:.4g} "
                          "terms, more than 2**22; use the monte_carlo method")
    # the points lo..hi as the run (lo - 1, hi] of support points, a cell's form
    (a, z), runs, level = _keyed_cells(e, lo - 1.0, hi)
    count = (z - a).astype(np.int64)  # the points a + 1..z of each keyed cell
    xs = np.repeat(a + 1.0 - (np.cumsum(count) - count), count) + np.arange(count.sum())
    pmf = np.exp(bundle.family.log_density(theta, xs))
    values = _many(e, xs)
    charged = values[pmf > 0]
    if np.any(np.isinf(charged)):
        return ExpectationResult(math.inf, 0.0, "exact_sum")
    rest, mass, rounding = _default_level(law, theta, runs, level)
    estimate = float(np.dot(np.where(pmf > 0, values, 0.0), pmf)) + rest
    tail = max(0.0, 1.0 - (float(np.sum(pmf)) + mass))
    seen = max(float(np.max(charged, initial=0.0)), level if mass > 0.0 else 0.0)
    return ExpectationResult(estimate, _tail_charge(e, tail, seen) + 1e-12 + rounding,
                             "exact_sum")


def _generic_quadrature(e, theta, bundle, plan) -> ExpectationResult:
    total, err, (lo, hi) = _window_quadrature(e, theta, bundle, plan)
    coverage = bundle.family.law.cdf(theta, np.array([lo, hi]))
    tail = max(0.0, 1.0 - float(coverage[1] - coverage[0]))
    return ExpectationResult(total, err + _tail_charge(e, tail, abs(total)), "quadrature")


def _tail_charge(e, tail: float, seen: float) -> float:
    """The mass ``tail`` beyond the window times e's ``sup_bound``, or,
    without one, times 10 max(1, seen), ``seen`` the largest value summed
    or the integral's size: a guess, not a bound (ROADMAP item 1)."""
    sup = getattr(e, "sup_bound", None)
    return tail * (10.0 * max(1.0, seen) if sup is None else sup)


def _keyed_cells(e, w0: float, w1: float) -> tuple:
    """e's keyed cells in the window (w0, w1] of the law's line, each
    (a_i, z_i], the runs between and beyond them, each (u_j, v_j], and e's
    level there: ((a, z), (u, v), level).  A composite of generic
    components is its components on the cells of its keys (``_keys``, NaN
    between and beyond them) and 1/C elsewhere, as a net point without a
    component takes the constant-1 e-variable; any other e is keyed on the
    whole window, with no runs."""
    keys = getattr(e, "_keys", None)
    if keys is None:
        return (np.array([w0]), np.array([w1])), (np.empty(0), np.empty(0)), 0.0
    held = ~np.isnan(keys.a)
    a, z = np.maximum(keys.edges[:-1][held], w0), np.minimum(keys.edges[1:][held], w1)
    a, z = a[z > a], z[z > a]
    u, v = np.append(w0, z), np.append(a, w1)
    return (a, z), (u[v > u], v[v > u]), 1.0 / e.factor_C


def _default_level(law, theta, runs, level: float) -> tuple[float, float, float]:
    """The integral of the constant ``level`` over the runs (u_j, v_j], its
    mass sum_j F(v_j) - F(u_j) from the law's CDF, and the integral's
    rounding bound: each of the 2r CDF values errs by at most _CDF_EPS
    (F <= 1), and gamma_{r+1} sum_j |dF_j| covers the r subtractions, the
    r - 1 adds and the product with the level (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.1), gamma_k = k u /
    (1 - k u)."""
    u, v = runs
    r = len(u)
    if not r:
        return 0.0, 0.0, 0.0
    F = law.cdf(theta, np.concatenate([u, v]))
    dF = F[r:] - F[:r]
    mass = float(np.sum(dF))
    rounding = level * (2.0 * r * _CDF_EPS + _gamma(r + 1) * float(np.sum(np.abs(dF))))
    return level * mass, mass, rounding


def _window_quadrature(e, theta, bundle, plan) -> tuple[float, float, tuple]:
    """The integral of e p_theta over the law's window, its error bound
    and the window: Gauss-Legendre on e's keyed cells (:func:`_keyed_cells`;
    the whole window, cut at its cell boundaries and ramp knots, for an e
    without keys), with their quadrature error estimate, plus e's level
    over the runs between and beyond them (:func:`_default_level`), with
    its rounding bound."""
    law = bundle.family.law
    if not law.statistic_is_sample:
        # the window lives in statistic space; integrating samples over it
        # would miss mass (x < 0 when the statistic is x^2)
        raise DomainError(
            "generic quadrature needs a statistic equal to the scalar sample; "
            "use monte_carlo or structured components"
        )
    lo, hi = law.window(theta, plan.tail_mass).tolist()

    def integrand(x: np.ndarray) -> np.ndarray:
        p = np.exp(bundle.family.log_density(theta, x))
        return np.where(p > 0.0, _many(e, x) * p, 0.0)

    (a, z), runs, level = _keyed_cells(e, lo, hi)
    if getattr(e, "_keys", None) is None:  # keyed on the whole window: cut it at its knots
        knots = _statistic_knots(bundle, lo, hi, getattr(e, "epsilon", None))
        edges = np.concatenate([[lo], knots[(lo < knots) & (knots < hi)], [hi]])
        a, z = edges[:-1], edges[1:]
    values, err = _gauss_legendre(integrand, a, z)
    rest, _, rounding = _default_level(law, theta, runs, level)
    return math.fsum(np.append(values, rest)), err + rounding, (lo, hi)


#: Gauss-Legendre nodes and weights on [-1, 1] of the two orders whose
#: difference estimates a piece's error (the higher order is the value).
#: One is odd, with a node at the centre: two even orders agree exactly
#: on a jump anywhere in about the middle tenth of a piece, and miss it
_GL_ORDERS = tuple(np.polynomial.legendre.leggauss(n) for n in (8, 17))
_GL_NODES = np.concatenate([x for x, _ in _GL_ORDERS])
#: the target of a window's error estimate (see _gauss_legendre)
_QUAD_TOL = 1e-9
#: integrand points per call: bounds the temporaries of one evaluation
_QUAD_BLOCK = 2**16
#: bisection rounds at most; each bisects at most one block's worth of pieces
_QUAD_ROUNDS = 60


def _gauss_legendre(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """The integrals of f (an array of points to their values) over the
    pieces [a_i, b_i] of positive width and their summed error estimate:
    each piece gets both orders of ``_GL_ORDERS``, the higher order is its
    value and their difference its error.  While some piece's error
    exceeds ``_QUAD_TOL`` over the number of pieces, the worst of them (one
    block of points) are bisected, ``_QUAD_ROUNDS`` times at most."""
    keep = b > a
    a, b = a[keep], b[keep]
    value, err = _gl_pieces(f, a, b)
    most = _QUAD_BLOCK // (2 * len(_GL_NODES))  # pieces whose halves fill one block
    for _ in range(_QUAD_ROUNDS):
        bad = np.flatnonzero(err > _QUAD_TOL / max(1, len(err)))
        if not len(bad):
            break
        bad = bad[np.argsort(-err[bad], kind="stable")[:most]]
        mid = 0.5 * (a[bad] + b[bad])
        halves = _gl_pieces(f, np.concatenate([a[bad], mid]), np.concatenate([mid, b[bad]]))
        rest = np.ones(len(a), dtype=bool)
        rest[bad] = False
        a = np.concatenate([a[rest], a[bad], mid])
        b = np.concatenate([b[rest], mid, b[bad]])
        value, err = (np.concatenate([old[rest], new]) for old, new in zip((value, err), halves))
    return value, float(np.sum(err))


def _gl_pieces(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each piece [a_i, b_i]'s higher-order value and its difference from
    the lower order, f evaluated in blocks of at most ``_QUAD_BLOCK``
    points."""
    (_, w_lo), (_, w_hi) = _GL_ORDERS
    n_lo, per = len(w_lo), _QUAD_BLOCK // len(_GL_NODES)
    value, err = np.empty(len(a)), np.empty(len(a))
    for s in range(0, len(a), per):
        half = 0.5 * (b[s:s + per] - a[s:s + per])
        mid = 0.5 * (a[s:s + per] + b[s:s + per])
        fx = f((mid[:, None] + half[:, None] * _GL_NODES).ravel()).reshape(len(half), -1)
        lo = half * (fx[:, :n_lo] * w_lo).sum(axis=1)
        value[s:s + per] = half * (fx[:, n_lo:] * w_hi).sum(axis=1)
        err[s:s + per] = np.abs(value[s:s + per] - lo)
    return value, err


def _statistic_knots(bundle, lo, hi, epsilon) -> np.ndarray:
    """Cell boundaries (and, for interpolation on the integers, ramp
    knots) between lo and hi."""
    ks = np.arange(bundle.net.round_index(lo), bundle.net.round_index(hi) + 1)
    knots = [bundle.cell_bounds(ks).ravel()]
    if epsilon is not None:
        d = np.array([-0.5 - epsilon, -0.5 + epsilon, 0.5 - epsilon, 0.5 + epsilon])
        knots.append((bundle.net.points(ks)[:, None] + d).ravel())
    return np.unique(np.concatenate(knots))


#: samples per draw of sample vectors without a piecewise: bounds the
#: (block, n) array and the temporaries of one evaluation
_MC_BLOCK = 2**14


def _monte_carlo(e, pw, theta, bundle, plan, theta_index) -> ExpectationResult:
    """The mean of e over ``mc_samples`` draws, its bound the 99% CI
    half-width plus the rounding of the mean.  A piecewise is a function of
    g(X) alone: it is read at draws on the law's line, from
    ``draw_statistic`` (checked by ``on_line``) or located samples, once
    per support point when a discrete law's draws span at most m points.  Any
    other e may read more of X than g(X), and gets sample vectors, drawn
    ``_MC_BLOCK`` at a time from one stream: the rows of one draw."""
    rng, law, m = _rng_for(plan.seed, theta_index), bundle.family.law, plan.mc_samples
    if pw is not None:
        x = (bundle.on_line(law.draw_statistic(theta, m, rng)) if law.draw_statistic
             else bundle.locate(law.sample(theta, m, rng)))
        lo, hi = (x.min(), x.max()) if law.discrete else (-math.inf, math.inf)
        if hi - lo < m:  # support points, at most m of them: each is read once
            values = pw(lo + np.arange(hi - lo + 1.0))[(x - lo).astype(np.intp)]
        else:
            values = pw(x)
    else:
        values = np.concatenate([_many(e, law.sample(theta, min(_MC_BLOCK, m - s), rng))
                                 for s in range(0, m, _MC_BLOCK)])
    estimate = float(np.mean(values))
    half_width = 2.576 * float(np.std(values, ddof=1)) / math.sqrt(m)
    # a sum of m terms in any order errs by at most g sum |v_i|, g = gamma_{m-1}
    # = (m - 1) u / (1 - (m - 1) u), and the division by u |mean| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2); the
    # computed mean of |v| is at least (1 - g)(1 - u) times the exact one
    u, g = _UNIT_ROUNDOFF, _gamma(m - 1)
    rounding = g / ((1.0 - g) * (1.0 - u)) * float(np.mean(np.abs(values))) + u * abs(estimate)
    return ExpectationResult(estimate, half_width + rounding, "monte_carlo")


def _closed_form(e, plan: ExpectationPlan) -> bool:
    """Whether e is integrated by the closed-form engine: it has a
    piecewise and the plan does not ask for Monte Carlo."""
    return getattr(e, "piecewise", None) is not None and plan.method != "monte_carlo"


def expectation(
    e,
    theta: float,
    bundle: FamilyBundle | None = None,
    plan: ExpectationPlan | None = None,
    theta_index: int = 0,
) -> ExpectationResult:
    """Estimate E_theta[e(X)] with an explicit error bound.

    ``e`` may be a :class:`CompositeEVariable` (its bundle supplies the
    family) or any callable together with an explicit ``bundle``.  One
    with a piecewise (a structured component or a composite of them) is
    integrated in closed form unless the plan asks for Monte Carlo; any
    other is evaluated pointwise.  Deterministic given the plan's seed.
    """
    if bundle is None:
        if not isinstance(e, CompositeEVariable):
            raise DomainError("a bundle is required for non-composite tests")
        bundle = e.bundle
    plan = plan or ExpectationPlan()
    theta = bundle.family.validate_param(theta)
    if _closed_form(e, plan):
        return _piecewise_expectations(e.piecewise, bundle.family.law, plan.tail_mass, [theta])[0]
    if not callable(e):
        raise DomainError("e must be callable")
    if plan.method == "monte_carlo":
        return _monte_carlo(e, getattr(e, "piecewise", None), theta, bundle, plan, theta_index)
    if bundle.family.law.discrete:
        return _generic_discrete(e, theta, bundle, plan)
    return _generic_quadrature(e, theta, bundle, plan)


# ---------------------------------------------------------------------------
# Parameter grids
# ---------------------------------------------------------------------------


def default_theta_grid(bundle: FamilyBundle) -> list[float]:
    """Adversarial parameter grid for a bundle: its family's own points
    (``FamilyBundle.theta_grid``, written in :mod:`evarify.families`)
    that lie in the parameter space, sorted and without repeats."""
    space = bundle.family.param_space
    return sorted({float(v) for v in bundle.theta_grid(bundle) if space.contains(float(v))})


def _theta_grid(bundle: FamilyBundle, theta_grid: Sequence[float] | None) -> list[float]:
    """The grid to certify over, checked before anything is built from
    it: the default one when none is given, else a non-empty list of
    thetas in the parameter space."""
    if theta_grid is None:
        return default_theta_grid(bundle)
    if not len(theta_grid):
        raise DomainError("theta_grid holds no value")
    try:
        return [bundle.family.validate_param(t) for t in theta_grid]
    except (DomainError, TypeError) as exc:  # TypeError: a null value
        raise DomainError(f"theta_grid values: {exc}") from None


# ---------------------------------------------------------------------------
# Sweeps and reports
# ---------------------------------------------------------------------------


#: json's text of the floats whose repr is not JSON
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    """One value of a report row as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_FLOATS.get(text, text)
    return json.dumps(value)


def _json_bytes(report: dict) -> bytes:
    """A report as the bytes of its JSON file, those of ``json.dumps(report,
    sort_keys=True, indent=2)``.  Its ``rows``, a list of flat records with
    the first one's keys, are written from one per-row template, in about
    half the time of json's indenting encoder (pure Python) on hundreds of
    rows; everything else is written by json."""
    rows = report.get("rows")
    text = json.dumps({**report, "rows": []} if rows else report, sort_keys=True, indent=2)
    if not rows:
        return text.encode()
    keys = sorted(rows[0])
    fields = [f"      {_json_scalar(k)}: ".replace("{", "{{").replace("}", "}}") for k in keys]
    row = "    {{\n" + "{},\n".join(fields) + "{}\n    }}"
    body = ",\n".join(row.format(*[_json_scalar(r[k]) for k in keys]) for r in rows)
    return text.replace('\n  "rows": []', f'\n  "rows": [\n{body}\n  ]', 1).encode()


def _csv_text(header: Sequence[str], rows) -> str:
    """A table as the text of its CSV file: the header, then each row with
    strings as they are and every other value as its repr."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


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
    _ROW_FIELDS = ("theta", "estimate", "error_bound", "method")  # unannotated: no field

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        # the fields as they are: dataclasses.asdict deep-copies every row
        return {**vars(self), "rows": [dict(zip(self._ROW_FIELDS, row)) for row in self.rows]}

    def to_json_bytes(self) -> bytes:
        return _json_bytes(self.to_dict())

    def to_csv(self) -> str:
        return _csv_text(self._ROW_FIELDS, self.rows)


def sweep(
    composite: CompositeEVariable,
    theta_grid: Sequence[float] | None = None,
    plan: ExpectationPlan | None = None,
) -> VerificationReport:
    """Certify E_theta[composite] <= 1 across a parameter grid; a row
    whose estimate or error bound is not finite certifies nothing, and
    fails the sweep."""
    plan = plan or ExpectationPlan()
    bundle = composite.bundle
    grid = _theta_grid(bundle, theta_grid)
    if _closed_form(composite, plan):  # the whole grid in one engine call
        results = _piecewise_expectations(composite.piecewise, bundle.family.law,
                                          plan.tail_mass, grid)
    else:
        results = [expectation(composite, theta, plan=plan, theta_index=i)
                   for i, theta in enumerate(grid)]
    rows = [(float(theta), res.estimate, res.error_bound, res.method)
            for theta, res in zip(grid, results)]
    worst = max(rows, key=lambda r: (r[1], r[0]))
    finite = all(math.isfinite(v) for row in rows for v in row[1:3])
    verdict = "pass" if finite and worst[1] <= 1.0 + 3.0 * worst[2] else "fail"
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


#: terms at most in the counterexample's window (8 MB per array of them)
_MLE_TERMS_MAX = 2**20


def mle_counterexample_poisson_with_bound(lam: float) -> ExpectationResult:
    """E_lambda[exp(X) X! / X^X] by exact truncated summation in log space.

    The integrand is the inverse own-probability spike selected by the
    maximum-likelihood "estimator" shat(x) = x; because it grows like
    sqrt(2 pi x), no fixed normalizing constant can make this selection
    rule a valid e-variable over all lambda.

    The terms t_n = e^-lam (e lam / n)^n (t_0 = e^-lam) are summed over the
    window [L, n_max], L = max(1, floor(lam - 30 sqrt(lam) - 60)) and
    n_max = lam + 20 sqrt(lam) + 60, so memory is O(sqrt(lam)); a window
    of more than ``_MLE_TERMS_MAX`` terms raises :class:`DomainError`.
    Their ratio t_{n+1} / t_n = e lam / (n + 1) * (n / (n + 1))^n is
    decreasing in n.  Below the window it is at least lam / (n + 1) >= 1
    ((1 + 1/n)^n <= e), so the L skipped terms t_0..t_{L-1} are each at
    most t_L: at most L t_L in all.  The window reaches 30 sqrt(lam)
    below lam, as 20 sqrt(lam) would leave L t_L above 1% of the tail
    above the window from lam = 1e6 on.  Above it, with rho the ratio at
    N = n_max + 1 (below 1 since N > lam), the tail is at most
    t_N / (1 - rho).
    """
    if not 0 < lam < math.inf:
        raise DomainError(f"lambda must be finite and > 0 (got {lam!r})")
    n_max = int(lam + 20.0 * math.sqrt(lam) + 60.0)
    low = max(1, math.floor(lam - 30.0 * math.sqrt(lam) - 60.0))
    if n_max - low + 1 > _MLE_TERMS_MAX:
        raise DomainError(
            f"lambda = {lam:g} needs {n_max - low + 1:.3g} terms, more than the "
            f"{_MLE_TERMS_MAX} the counterexample sums (lambda up to about 4e8)")

    def log_term(n):  # log of pmf(n) e^n n! / n^n
        return -lam + n * (1.0 + math.log(lam) - np.log(n))
    terms = np.exp(log_term(np.arange(low, n_max + 1, dtype=float)))
    total = float(np.sum(terms)) + (math.exp(-lam) if low == 1 else 0.0)
    below = 0.0 if low == 1 else low * float(terms[0])
    big_n = n_max + 1.0
    t_last = math.exp(log_term(big_n))
    rho = math.exp(1.0 + math.log(lam) - math.log(big_n + 1.0)
                   - big_n * math.log1p(1.0 / big_n))
    return ExpectationResult(total, below + t_last / (1.0 - rho), "exact_sum")


def mle_counterexample_poisson(lam: float) -> float:
    return mle_counterexample_poisson_with_bound(lam).estimate


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
    """Max of the budget certificate over 1 <= N <= n_max, (value, least
    argmax N): on each block 2^(m-1) < N <= 2^m it falls with N, so the max
    is at N = 1 or at a block's first N, 2^(m-1) + 1."""
    if not (isinstance(n_max, int) and n_max >= 1):
        raise DomainError(f"n_max must be a positive integer (got {n_max!r})")
    firsts = [(m, 2 ** (m - 1) + 1) for m in range(1, (n_max - 1).bit_length() + 1)]
    return max([(1.0, 1), *(((2.0 ** (m + 1.0) + m) / (N + 1.0), N) for m, N in firsts)],
               key=lambda b: b[0])


# ---------------------------------------------------------------------------
# Interpolated factor certification
# ---------------------------------------------------------------------------


_FACTOR_EPSILONS = (0.05, 0.1, 0.2)  # the factor's default half-widths


def certify_interpolated_factor(
    bundle: FamilyBundle, epsilons: Sequence[float] = _FACTOR_EPSILONS
) -> tuple[float, dict]:
    """The factor C that makes the interpolated unit-cell spike composite
    an e-variable at every theta in the parameter space, for each of the
    given epsilons (each once, however often given).

    The unnormalised composite f (C = 1) repeats with period 1, so the sup
    of E_theta[f] over the whole line comes from its Fourier series
    (:func:`~evarify.fourier.periodic_sup`; no :func:`expectation` is
    computed), and
    C = max over epsilon of sup + bound.  The bound also takes in the
    division by C: the composite at C divides each piece's a and b by C,
    each rounded within the unit roundoff u, so its values exceed f / C by
    at most u max_i (|a_i| + |b_i| max |edge|) / C.  Then E_theta <= 1 at
    every theta.  Returns C and, for each epsilon, its (sup, bound).
    """
    if not len(epsilons):
        raise DomainError("epsilons holds no value")
    law = bundle.family.law
    per_eps = {}
    for eps in dict.fromkeys(epsilons):
        pw = interpolated_spike_composite(bundle, eps, 1.0).piecewise
        sup, bound = periodic_sup(pw, law)
        coefficients = np.abs(pw.a) + np.abs(pw.b) * np.max(np.abs(pw.edges))
        bound += _UNIT_ROUNDOFF * float(np.max(coefficients))
        per_eps[float(eps)] = (sup, bound)
    return max(sup + bound for sup, bound in per_eps.values()), per_eps
