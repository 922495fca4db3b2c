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
E_theta = sum_i a_i dF_i + b_i dG_i over its pieces (their copies in the
law's window, if it repeats), with F the law's CDF and G its partial first
moment (only on ramps), plus the mass beyond.  A sweep integrates such a
composite in one engine call over its whole grid, which builds what does not
depend on theta once and sums its rows in tiles of thetas (a non-periodic
composite's with one law call per tile, a periodic one's one row each); the
rows of any other composite are one :func:`expectation` each.  Generic
components fall back to exact truncated summation (discrete families),
Gauss-Legendre quadrature of two orders on every piece between cell
boundaries and ramp knots at once (pieces whose orders disagree by more than
their share of the tolerance are bisected);
each evaluates the composite on whole batches of points, and the mass beyond
a truncation window (``law.window``) is charged against the composite's sup.
Monte Carlo, on request, bounds its mean by the 99% CI half-width plus the
rounding of the mean.  A piecewise is a function of the statistic alone, so
it is read at draws on the law's line: ``law.draw_statistic`` where that
line is not the sample (the normal mean of n > 1 draws, the normal
variance), else located samples (``law.sample``); any other test may read
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
    Monte Carlo reports a 99% CI half-width plus the mean's rounding as
    its error bound, its draws keyed by ``seed``, an integer in [0, 2**64).
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
        if not (isinstance(self.mc_samples, int) and self.mc_samples >= 2):
            # a sample variance needs two draws
            raise DomainError(f"mc_samples must be an integer >= 2 (got {self.mc_samples!r})")
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
    remainder charged to the error bound)."""
    ends = bundle.family.law.window(np.asarray(theta_grid, dtype=float), tail / 2.0)
    ks = bundle.index(ends.ravel())
    k_lo, k_hi = bundle.net._clip(np.array([ks.min() - 2, ks.max() + 2]))
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
    piecewise is integrated over its copies on the periods meeting the law's
    window, the mass beyond at the sup with its spread down to the least
    value in the bound.  Rounding: _CDF_EPS (pieces + 2) max(1, sup) for F's
    error times a jump; ramps' a_i = value - b_i v grow with |v|, b_i with
    1/(2 eps), so each piece adds _CDF_EPS (|a| F + |b| (|G| + |theta| F))
    at both ends and the sum (pieces + 2) u sum_i |a_i dF_i| + |b_i dG_i|.

    The thetas go in tiles of rows, a column of thetas against a row of
    points: a non-periodic piecewise takes as many rows as fit in
    ``core._TILE_VALUES`` values per law call, each row's sums reduced over
    the tile at once (the dot products row by row, whose bits a matrix
    product does not keep).  A periodic row is a tile of its own, on its
    copies' shifted edges e + s, which thetas with nearby windows share
    with a - b s and |a| + |b| |s| in one table (:func:`_copy_groups`).
    """
    n, B = len(pw.a), np.abs(pw.b)
    if pw.period:  # the mass beyond is charged at the sup, down to the least end
        ends = np.minimum(pw.a + pw.b * pw.edges[:-1], pw.a + pw.b * pw.edges[1:])
        spread = pw.sup - float(ends.min())

    def at(theta, v):  # F and, for ramps, G and |G|: a row of points v per theta
        if not pw.ramps:
            return (law.cdf(theta, v),)
        F, G = law.moment(theta, v)
        return F, G, np.abs(G)

    def results(theta, F, parts, count):
        # the pieces are contiguous: the mass beyond lies below and above
        # (fmax: NaN to 0, as max(0, rest); 1 - x is never -0)
        rest = np.fmax(1.0 - (F[:, -1] - F[:, 0]), 0.0) if F.shape[1] else np.ones(len(F))
        estimate, at_edges, terms = np.zeros((3, len(F)))
        abs_theta = np.abs(theta)
        # a copy shifted by s: ab = a - b s, and per piece |a - b s| <= A = |a| + |b| |s|
        for ab, A, b, absb, (F0, *G0), (F1, *G1) in parts:
            dF = F1 - F0
            estimate += [np.dot(ab, row) for row in dF]
            if pw.ramps:
                (G0, absG0), (G1, absG1) = G0, G1
                dG = G1 - G0
                estimate += (b * dG).sum(axis=1)
                at_edges += ((A + abs_theta * absb) * (F0 + F1)
                             + absb * (absG0 + absG1)).sum(axis=1)
                terms += (A * np.abs(dF) + absb * np.abs(dG)).sum(axis=1)
        estimate += rest * (pw.sup if pw.period else pw.outside)
        eb = _CDF_EPS * (count + 2.0) * max(1.0, pw.sup)
        eb += _CDF_EPS * at_edges + _UNIT_ROUNDOFF * (count + 2.0) * terms
        if pw.period:
            eb += rest * spread
        method = "exact_sum" if law.discrete else "quadrature"
        return [ExpectationResult(v, e, method) for v, e in zip(estimate.tolist(), eb.tolist())]

    if not pw.period:  # one copy, unshifted: a - b 0 = a and |a| + |b| 0 = |a|
        A, per = np.abs(pw.a), max(1, _TILE_VALUES // max(1, len(pw.edges)))
        column, out = np.asarray(thetas, dtype=float)[:, None], []
        for s in range(0, len(column), per):
            theta = column[s:s + per]
            tile = at(theta, pw.edges)
            parts = [(pw.a, A, pw.b, B, [r[:, :n] for r in tile], [r[:, 1:] for r in tile])]
            out += results(theta, tile[0], parts, n)
        return out

    # each theta's copies j0..j1 on the periods meeting its window (and j1 + 1)
    reach = (law.window(np.asarray(thetas, dtype=float), tail) - pw.edges[0]) / pw.period
    windows = [[math.floor(v) for v in row] for row in reach.tolist()]
    out = [None] * len(thetas)
    for lo, hi, _, members in _copy_groups(windows):
        s = pw.period * np.arange(lo, hi + 2.0)
        edges = pw.edges[:-1, None] + s  # row i: e_i + s, shared by the group
        shifted = pw.a[:, None] - pw.b[:, None] * s  # a_i - b_i s
        bounds = np.abs(pw.a)[:, None] + B[:, None] * np.abs(s)  # |a_i| + |b_i| |s|
        for k in members:
            theta, (j0, j1) = thetas[k], windows[k]
            o, J = j0 - lo, j1 - j0 + 1
            # the law on each piece's 1-d edge row, its results viewed as a tile of
            # one row: a (1, J + 1) slice of the table as the law's input raised
            # perfbench certify_spikes' peak RSS by about 1.3 MB
            rows = [[r[None] for r in at(theta, edges[i, o:o + J + 1])] for i in range(n)]
            # piece i runs from row i to row i + 1, the last to the next row 0
            parts = [(shifted[i, o:o + J], bounds[i, o:o + J], pw.b[i], B[i],
                      [r[:, :J] for r in rows[i]],
                      [r[:, :J] for r in rows[i + 1]] if i + 1 < n else
                      [r[:, 1:] for r in rows[0]])
                     for i in range(n)]
            out[k], = results(theta, rows[0][0], parts, n * J)
    return out


def _copy_groups(windows: list) -> list[list]:
    """The rows of ``windows`` (each row's first and last copy, j0 and
    j1) in groups that share one table of copies lo..hi + 1:
    [lo, hi, longest row, the rows' indices].  Rows are taken by j0, and a
    group grows while it spans at most twice its longest row, so no table
    outgrows a constant times one row's copies, however far apart the
    rows lie."""
    groups = []
    for k in sorted(range(len(windows)), key=lambda k: windows[k][0]):
        j0, j1 = windows[k]
        width = j1 - j0 + 1
        if groups:
            lo, hi, longest, members = groups[-1]
            if max(hi, j1) - lo < 2 * max(longest, width):
                groups[-1][1:3] = max(hi, j1), max(longest, width)
                members.append(k)
                continue
        groups.append([j0, j1, width, [k]])
    return groups


# ---------------------------------------------------------------------------
# Generic expectation
# ---------------------------------------------------------------------------


#: terms of a generic exact sum at most (32 MB per array of them): the
#: default grid of every discrete bundle fits under it
_SUM_TERMS_MAX = 2**22


def _generic_discrete(e, theta, bundle, plan) -> ExpectationResult:
    """E_theta[e] summed over the support points of the law's window (and
    8 more above it), the mass beyond charged by :func:`_tail_charge`; a
    window of more than ``_SUM_TERMS_MAX`` points raises
    :class:`DomainError`."""
    law = bundle.family.law
    lo, top = law.window(theta, plan.tail_mass).tolist()
    hi = min(law.hi, top + 8.0)
    if hi - lo + 1.0 > _SUM_TERMS_MAX:
        raise DomainError(f"theta = {theta!r}: the exact sum would take {hi - lo + 1.0:.4g} "
                          "terms, more than 2**22; use the monte_carlo method")
    xs = np.arange(lo, hi + 1.0)
    pmf = np.exp(bundle.family.log_density(theta, xs))
    values = _many(e, xs)
    charged = values[pmf > 0]
    if np.any(np.isinf(charged)):
        return ExpectationResult(math.inf, 0.0, "exact_sum")
    estimate = float(np.dot(np.where(pmf > 0, values, 0.0), pmf))
    tail = max(0.0, 1.0 - float(np.sum(pmf)))
    charge = _tail_charge(e, tail, float(np.max(charged, initial=0.0)))
    return ExpectationResult(estimate, charge + 1e-12, "exact_sum")


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


def _window_quadrature(e, theta, bundle, plan) -> tuple[float, float, tuple]:
    """The integral of e p_theta over the law's window, its quadrature
    error estimate and the window: Gauss-Legendre on the pieces between
    the window's cell boundaries (and ramp knots)."""
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

    knots = _statistic_knots(bundle, lo, hi, getattr(e, "epsilon", None))
    edges = np.concatenate([[lo], knots[(lo < knots) & (knots < hi)], [hi]])
    return (*_gauss_legendre(integrand, edges), (lo, hi))


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


def _gauss_legendre(f, edges: np.ndarray) -> tuple[float, float]:
    """The integral of f (an array of points to their values) from
    edges[0] to edges[-1] and its error estimate: each piece between
    consecutive edges gets both orders of ``_GL_ORDERS``, the higher order
    is its value and their difference its error.  While some piece's error
    exceeds ``_QUAD_TOL`` over the number of pieces, the worst of them (one
    block of points) are bisected, ``_QUAD_ROUNDS`` times at most."""
    a, b = edges[:-1], edges[1:]
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
    return math.fsum(value), float(np.sum(err))


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
    ``draw_statistic`` (checked by ``on_line``) or located samples.  Any
    other e may read more of X than g(X), and gets sample vectors, drawn
    ``_MC_BLOCK`` at a time from one stream: the rows of one draw."""
    rng, law, m = _rng_for(plan.seed, theta_index), bundle.family.law, plan.mc_samples
    if pw is not None:
        values = pw(bundle.on_line(law.draw_statistic(theta, m, rng)) if law.draw_statistic
                    else bundle.locate(law.sample(theta, m, rng)))
    else:
        values = np.concatenate([_many(e, law.sample(theta, min(_MC_BLOCK, m - s), rng))
                                 for s in range(0, m, _MC_BLOCK)])
    estimate = float(np.mean(values))
    half_width = 2.576 * float(np.std(values, ddof=1)) / math.sqrt(m)
    # a sum of m terms in any order errs by at most g sum |v_i|, g = gamma_{m-1}
    # = (m - 1) u / (1 - (m - 1) u), and the division by u |mean| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2); the
    # computed mean of |v| is at least (1 - g)(1 - u) times the exact one
    u, g = _UNIT_ROUNDOFF, (m - 1) * _UNIT_ROUNDOFF / (1.0 - (m - 1) * _UNIT_ROUNDOFF)
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


def _json_bytes(report: dict) -> bytes:
    """A report as the bytes of its JSON file."""
    return json.dumps(report, sort_keys=True, indent=2).encode()


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
