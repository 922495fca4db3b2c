"""Concrete family bundles: distribution + net + estimator + factor.

Seven one-parameter families are wired here, each as a ``FamilyBundle``
pairing the distribution family with the parameter net and estimator that
make the selection rule ``e(x) = e_{shat(x)}(x) / C`` a valid e-variable,
together with the normalizing factor C and the route that certifies it:

=================== ============================== ===================== ======
family              net                            estimator             route
=================== ============================== ===================== ======
binomial(n)         sin^2(pi t / (2 floor(sqrt n)))round of k/n          growth
discrete uniform    {2^k}, k >= 0                  2^ceil(log2 x), 0->1  direct
poisson             {t^2}, t >= 1                  round of x            steps
continuous uniform  {2^k}, k in Z                  2^ceil(log2 x)        direct
normal mean (n)     (alpha/sqrt(n)) Z              round of the mean     steps
normal mean (eps)   Z                              r^epsilon of x        growth
normal variance (n) {(1+1/sqrt n)^k}, k in Z       round of ||x||^2/n    steps
cauchy              Z                              round or r^epsilon    growth
=================== ============================== ===================== ======

The "steps" route uses ``factor_from_steps`` with the declared constants
(c', c); the "growth" route uses ``factor_from_growth`` with (c', alpha).
The normal mean's epsilon variant (one observation, the ``REpsilon``
estimator) declares c' = (1/2)(1/2 + epsilon)^2 and alpha = 1.
For the binomial family (n at most 2**22) no closed-form constants are
available, so they are estimated numerically at construction time
(exhaustive enumeration of the finite support for c', a closure scan over
net-point pairs for alpha) and the factor gets a 10% safety margin.

Each family is one maker, ``_make_<id>``: it builds the family's
``Family`` and the law of its statistic, its net and estimator, its factor
inputs and C, its adversarial grids (the verifier's theta grid, the
checker's identity axes and cell samples) and its ``params``, and returns
the ``FamilyBundle``, whose ``bundle_id`` is derived from the family's
name and those params.  Divergences are the Kullback-Leibler divergence in
closed form for the exponential families (equal to the Bregman divergence
of their cumulants), ``log(1 + (t1 - t2)^2)`` for the Cauchy location
family, and the (one-sided, +inf when reversed) uniform log-ratio for the
uniforms.  A family's ``law`` is the one description of its statistic's
distribution (vectorized cdf/sf/ppf, sampling and truncation window, plus
the partial first moment and the characteristic function of the two
location families), built from ``scipy.special`` ufuncs with the
arithmetic ``scipy.stats`` uses, so the verifier gets the same values
without importing ``scipy.stats``.

This is the only module that knows which families exist; the others read
everything family-specific from the bundle.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import (
    chdtr,
    chdtrc,
    gammaincinv,
    gammaln,
    ndtr,
    ndtri,
    pdtr,
    pdtrc,
    pdtrik,
    rel_entr,
    xlogy,
)
# the ufuncs scipy.stats.binom itself calls (scipy.special.bdtr is about
# 1000 times less accurate at n = 10^4); scipy.stats stays off the import path
from scipy.special._ufuncs import _binom_cdf, _binom_ppf, _binom_sf, _cauchy_ppf

from .core import (
    BinomialSine,
    CeilDyadic,
    DomainError,
    DyadicInt,
    DyadicReal,
    Estimator,
    FactorInputs,
    Family,
    Geometric,
    IntegerLattice,
    Interval,
    Net,
    REpsilon,
    RoundToNet,
    ScaledLattice,
    Squares,
    StatLaw,
    _index_array,
    _number,
    _one,
    _or_inf,
    factor_from_growth,
    factor_from_steps,
)

__all__ = ["FAMILY_IDS", "FamilyBundle", "make_bundle"]

#: Safety multiplier applied to numerically estimated factors (binomial).
ESTIMATED_FACTOR_MARGIN = 1.1

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Half-width of the Cauchy statistic's window: its tails are too heavy to
#: pin down by quantiles, so the mass beyond goes into the error bound.
CAUCHY_WINDOW = 10_000


# ---------------------------------------------------------------------------
# Pieces the families' laws share
# ---------------------------------------------------------------------------


def _discrete_law(cdf, sf, ppf, sample, top, hi=math.inf) -> StatLaw:
    """A law on the integers 0..top(theta) from its cdf/sf at integer
    points, with the values scipy.stats gives off the support."""

    def edge(theta, x, core, below, above):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            inside = np.clip(core(theta, np.floor(x)), 0.0, 1.0)
        return np.where(x >= top(theta), above, np.where(x < 0.0, below, inside))

    return StatLaw(
        discrete=True,
        cdf=lambda t, x: edge(t, x, cdf, 0.0, 1.0),
        sf=lambda t, x: edge(t, x, sf, 1.0, 0.0),
        ppf=ppf,
        sample=sample,
        lo=0.0,
        hi=float(hi),
    )


def _sample(x):
    """The statistic (and the lift) of a family whose statistic is the
    sample itself."""
    return x


def _standard_normals(rng, m: int, n: int) -> np.ndarray:
    """m scalar draws for n == 1, else m rows of n."""
    return rng.standard_normal(m if n == 1 else (m, n))


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyBundle:
    """A family wired to its estimator (and so to the estimator's
    ``net``) and normalizing factor, with the family's adversarial grids;
    one family maker builds each.

    A sample reaches its cell one way: ``locate``, then ``index`` (its
    cell is ``cell_bounds`` of that index, its net point ``estimate``).

    The grids are functions of the bundle they are given (a bundle made
    by ``dataclasses.replace`` is read afresh), run only when asked for:
    ``theta_grid(b)``, the parameters a sweep certifies at, in any order;
    ``identity_axes(b)``, the (thetas, net indices, statistic values) of
    the checker's log-ratio identity grid; ``cell_samples(b, rng)``, the
    discrete families' samples for the cell checks (None: the checker
    fills the estimator's cells).  ``params`` are the maker's arguments
    that shape the bundle, in order; with the family's name they make
    ``bundle_id``.

    Bundles are immutable and safe for concurrent reads.
    """

    family: Family
    estimator: Estimator
    factor_inputs: FactorInputs | None
    factor_C: float
    theta_grid: Callable[["FamilyBundle"], np.ndarray]
    identity_axes: Callable[["FamilyBundle"], tuple]
    cell_samples: Callable[..., Sequence] | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    @property
    def bundle_id(self) -> str:
        """The family's name, followed by ``(k=v,...)`` over ``params``
        when there are any: ``binomial(n=64)``, ``poisson``."""
        args = ",".join(f"{key}={value}" for key, value in self.params.items())
        return f"{self.family.name}({args})" if args else self.family.name

    @property
    def route(self) -> str:
        """How ``factor_C`` was certified, read from ``factor_inputs``:
        "growth" (an exponent alpha) and "steps" (a step constant c) apply
        the closed-form factor formulas; "direct" (neither) means an
        explicit constant."""
        inputs = self.factor_inputs or FactorInputs()
        return ("growth" if inputs.alpha is not None
                else "steps" if inputs.c is not None else "direct")

    @property
    def net(self) -> Net:
        return self.estimator.net

    def estimate(self, x):
        """The selected net point for one sample ``x`` (a float) or a
        batch (an array): ``locate``, then ``index``, then the net."""
        return self.net.points(self.index(self.locate(x)))

    def locate(self, xs):
        """The points on the law's line (see ``StatLaw``) of one sample or a
        batch (``log_density``'s convention), under the one-value rule of
        :mod:`evarify.core`: the sample itself for a discrete law, its
        statistic otherwise, checked by ``on_line``."""
        return self.on_line(xs if self.family.law.discrete else self.family.estimator_g(xs))

    def on_line(self, v):
        """Points v of the law's line, checked: the one check of which
        samples a composite accepts, and of the statistic draws Monte Carlo
        feeds one.  An integer in the law's [lo, hi], or a statistic
        strictly inside (lo, hi), so never NaN or an infinity; raises
        :class:`DomainError` otherwise."""
        law = self.family.law
        v = np.asarray(v, dtype=float)
        if law.discrete:
            ok = np.isfinite(v) & (v == np.floor(v)) & (law.lo <= v) & (v <= law.hi)
        else:
            ok = (law.lo < v) & (v < law.hi)
        if not ok.all():
            need = (f"integers in [{law.lo:g}, {law.hi:g}]" if law.discrete else
                    f"samples whose statistic lies in ({law.lo:g}, {law.hi:g})")
            bad = np.ravel(v)[np.argmin(np.ravel(ok))]
            raise DomainError(f"{self.bundle_id} takes {need} (got {float(bad)!r})")
        return _one(v)

    def index(self, v):
        """The estimator's net index at points v of the law's line (a
        discrete law's support points go through ``estimator_g`` first)."""
        return self.estimator.index(self.family.estimator_g(v) if self.family.law.discrete else v)

    @property
    def right_closed(self) -> bool:
        """Whether a cell holds its right edge on the law's line."""
        return self.family.law.discrete or self.estimator.right_closed

    def cell_bounds(self, ks: Sequence[int]) -> np.ndarray:
        """Per-cell (lo, hi) on the law's line, shape (len(ks), 2), with
        P_theta(cell k) = law.cdf(theta, hi) - law.cdf(theta, lo): the
        estimator's edges clipped to the support, or, for discrete laws,
        the support point before the cell's first and its last (a cell
        holds an end that the support clips it to); on a finite support,
        from ``index`` at every support point, each call."""
        law = self.family.law
        ks = _index_array(ks).reshape(-1)
        if law.discrete and law.hi < math.inf:
            index = self.index(np.arange(law.hi + 1))
            ends = [np.searchsorted(index, ks, side) for side in ("left", "right")]
            return np.stack(ends, axis=1) - 1.0
        edges = self.estimator.edges(ks)
        if not law.discrete:
            return np.clip(edges, law.lo, law.hi)
        (lo, hi), top, right = edges.T, min(law.hi, 2.0**62), self.estimator.right_closed
        before = np.where(right & (lo >= law.lo), np.floor(lo), np.ceil(np.maximum(lo, law.lo)) - 1.0)
        last = np.where(right | (hi > top), np.floor(np.minimum(hi, top)), np.ceil(hi) - 1.0)
        return np.column_stack([before, last])


# ---------------------------------------------------------------------------
# Adversarial grids (see FamilyBundle)
#
# Location families sweep a wide span plus cell-boundary and half-integer
# points (the worst cases sit at cell boundaries); scale families sweep
# six decades plus net points and their perturbations; the discrete
# uniform hits powers of two and their neighbours up to 2**20.
# ---------------------------------------------------------------------------

_LOCATION_BASES = (0.0, 1.0, -1.0, 10.0, 500.0, -500.0, 1000.0, -1000.0)


def _location_grid(offsets) -> np.ndarray:
    return (np.array(_LOCATION_BASES)[:, None] + np.array(offsets)).ravel()


def _scale_grid(points: np.ndarray) -> np.ndarray:
    """Six decades, plus each net point and its 1 +/- 1e-6 neighbours."""
    return np.concatenate([np.geomspace(1e-3, 1e3, 61), points, points * (1 + 1e-6),
                           points * (1 - 1e-6)])


def _location_axes(span: float):
    """Identity axes of a location family: thetas in [-5, 5], the 50 net
    indices around 0 and statistic values in [-span, span]."""
    return lambda b: (np.linspace(-5.0, 5.0, 50), range(-25, 25),
                      np.linspace(-span, span, 50))


# ---------------------------------------------------------------------------
# The families, one maker each
# ---------------------------------------------------------------------------


def _binomial_growth_alpha(net: BinomialSine, div) -> float:
    """Largest admissible growth exponent over the finite sine net.

    For off-net parameter pairs straddling net points s_a .. s_b the
    number of net points strictly between them approaches b - a + 1 and
    the divergence approaches d(s_a || s_b), so the binding constraints
    are d(s_a || s_b) >= (1 + alpha) * log(b - a) over all index pairs
    with b - a >= 2 (smaller gaps are vacuous).
    """
    pts = net.points(net.indices())
    m = len(pts)
    a, b = np.triu_indices(m, 2)
    d = np.minimum(div(pts[:, None], pts), div(pts, pts[:, None]))[a, b]
    # log(b - a) for b - a = 2 .. m - 1, rounded as math.log rounds them
    log_gaps = np.array([math.log(gap) for gap in range(2, m)])
    best = float(np.min(d / log_gaps[b - a - 2], initial=math.inf))
    if math.isinf(best):
        # fewer than three net points: every pair is vacuous and any
        # exponent is admissible, so the factor degenerates to 7 e^c'
        return math.inf
    if best <= 1.0:
        raise DomainError("sine net admits no positive growth exponent")
    return best - 1.0


def _xlogy_once(k, p):
    """scipy's ``xlogy(k, p)``, k log p and 0 where k == 0 and p is not
    NaN, with one log per p: a column of p against a row of k takes each
    p's log once, the same libm log times k (``np.log`` differs from it in
    the last bit on some values).  That log, ``xlogy(1.0, p)``, serves the
    binomial's density and its divergence, which takes it once per
    parameter."""
    return np.where((k == 0) & ~np.isnan(p), 0.0, k * xlogy(1.0, p))


#: the most trials of a binomial bundle: its maker and the checker's cell
#: samples and identity axes hold all n + 1 counts (about 55 MB at peak
#: per 10^6 trials in the maker)
_BINOMIAL_N_MAX = 2**22


def _make_binomial(n: int | None = None) -> FamilyBundle:
    if n is None:
        raise DomainError("the binomial bundle needs the trial count n")
    if n > _BINOMIAL_N_MAX:
        raise DomainError(f"family.params.n: {n} trials exceed the binomial's limit "
                          f"2**22 = {_BINOMIAL_N_MAX}")
    log_binom = gammaln(n + 1.0)

    def log_density(p, k):
        ok = (k >= 0) & (k <= n) & (k == np.floor(k))
        val = (
            log_binom
            - gammaln(k + 1.0)
            - gammaln(n - k + 1.0)
            + _xlogy_once(k, p)
            + _xlogy_once(n - k, 1.0 - p)
        )
        return np.where(ok, val, -np.inf)

    def divergence(g, t):
        """n (r(g, t) + r(1 - g, 1 - t)), r(x, y) = x log x - x log y, with
        its logs taken once per statistic value g and once per parameter t:
        on a tile of parameters by statistics each pair takes products and
        sums only.
        A pair with g outside [0, 1] or t outside (0, 1), or a NaN, takes
        ``rel_entr``'s value (0, inf or NaN), whatever the other pairs are;
        the result is clamped at 0."""
        h, u = 1.0 - g, 1.0 - t
        g_off, t_off = ~((g >= 0.0) & (g <= 1.0)), ~((t > 0.0) & (t < 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):  # off pairs: log 0, 0 * inf, ...
            d = n * ((xlogy(g, g) - g * xlogy(1.0, t)) + (xlogy(h, h) - h * xlogy(1.0, u)))
            if g_off.any() or t_off.any():
                off = g_off | t_off
                gb, tb = (a[off] for a in np.broadcast_arrays(g, t))
                d = np.array(d)
                d[off] = n * (rel_entr(gb, tb) + rel_entr(1.0 - gb, 1.0 - tb))
        return np.maximum(d, 0.0)

    def theta_grid(b):
        pts = b.net.points(b.net.indices())
        mids = 0.5 * (pts[:-1] + pts[1:])
        return np.concatenate([
            [1e-4, 1e-3, 0.01, 0.05, 0.95, 0.99, 0.999, 0.9999], np.linspace(0.05, 0.95, 19),
            pts, np.minimum(1 - 1e-9, pts * 1.01), np.maximum(1e-9, pts * 0.99),
            mids, np.nextafter(mids, 0.0), np.nextafter(mids, 1.0)])

    fam = Family(
        name="binomial",
        param_space=Interval(lo=0.0, hi=1.0, lo_open=True),
        sample_dim=1,
        log_density=log_density,
        divergence_fn=divergence,
        estimator_g=lambda k: k / n,
        lift=lambda v: np.round(v * n),
        law=_discrete_law(
            lambda p, k: _binom_cdf(k, n, p),
            lambda p, k: _binom_sf(k, n, p),
            lambda p, q: _binom_ppf(q, n, p),
            lambda p, m, rng: rng.binomial(n, p, m).astype(float),
            top=lambda p: n,
            hi=n,
        ),
    )
    net = BinomialSine(n)
    est = RoundToNet(net)
    gs = fam.estimator_g(np.arange(n + 1))
    c_prime = float(np.max(fam.divergence_fn(gs, net.points(est.index(gs)))))
    alpha = _binomial_growth_alpha(net, fam.divergence_fn)
    return FamilyBundle(
        family=fam,
        estimator=est,
        factor_inputs=FactorInputs(c_prime=c_prime, alpha=alpha),
        factor_C=ESTIMATED_FACTOR_MARGIN * factor_from_growth(c_prime, alpha),
        theta_grid=theta_grid,
        identity_axes=lambda b: (np.linspace(0.02, 0.98, 50), b.net.indices(),
                                 np.arange(0, b.params["n"] + 1) / b.params["n"]),
        cell_samples=lambda b, rng: np.arange(b.params["n"] + 1.0),
        params={"n": n},
    )


#: the discrete uniform's identity axes: 50 sizes spread over 1..4096
_DYADIC_SIZES = np.unique(np.round(np.geomspace(1, 4096, 50)))


def _make_discrete_uniform() -> FamilyBundle:
    def cdf(N, k):
        return (k + 1.0) / (N + 1.0)

    def ppf(N, q):
        vals = np.ceil(q * (N + 1.0)) - 1.0
        below = np.clip(vals - 1.0, 0.0, N + 1.0)
        return np.where(cdf(N, below) >= q, below, vals)

    def log_density(N, x):
        ok = (x >= 0) & (x <= N) & (x == np.floor(x))
        return np.where(ok, -np.log(N + 1.0), -np.inf)

    def theta_grid(b):
        p = 2 ** np.arange(1, 21)
        return np.concatenate([np.arange(1, 65), p - 1, p, np.minimum(2**20, p + 1),
                               np.geomspace(64, 2**20, 40).astype(int)])

    return FamilyBundle(
        family=Family(
            name="discrete_uniform",
            param_space=Interval(lo=0.0, hi=math.inf, lo_open=False, integer=True),
            sample_dim=1,
            log_density=log_density,
            divergence_fn=lambda n1, n2: np.where(
                n1 <= n2, np.log((n2 + 1.0) / (n1 + 1.0)), np.inf),
            estimator_g=_sample,
            lift=_sample,
            law=_discrete_law(
                cdf, lambda N, k: 1.0 - cdf(N, k), ppf,
                lambda N, m, rng: rng.integers(0, int(N) + 1, m).astype(float),
                top=lambda N: N,
            ),
        ),
        estimator=CeilDyadic(DyadicInt()),
        factor_inputs=None,
        factor_C=3.0,
        theta_grid=theta_grid,
        identity_axes=lambda b: (_DYADIC_SIZES, range(0, 12), _DYADIC_SIZES),
        # every support point of the first 14 dyadic cells
        cell_samples=lambda b, rng: np.arange(2.0 ** 14 + 1.0),
    )


def _make_poisson() -> FamilyBundle:
    def log_density(lam, x):
        ok = (x >= 0) & (x == np.floor(x))
        with np.errstate(invalid="ignore"):
            val = -lam + xlogy(x, lam) - gammaln(x + 1.0)
        return np.where(ok, val, -np.inf)

    def ppf(lam, q):
        vals = np.ceil(pdtrik(q, lam))
        below = np.maximum(vals - 1, 0)
        return np.where(pdtr(below, lam) >= q, below, vals)

    def theta_grid(b):
        t = np.arange(1, 13)
        return np.concatenate([np.geomspace(0.5, 1e4, 97), t * t, t * t + t,
                               t * t + t + 0.25, t * t + t + 0.75, np.maximum(0.5, t * t - t)])

    def cell_samples(b, rng):
        """Both ends of the cells {t^2 - t + 1 .. t^2 + t} of the first 120
        squares, filled in full or by 25 seeded draws."""
        samples = [0.0]
        for t in range(1, 121):
            a, c = t * t - t + 1, t * t + t
            samples += [float(a), float(c)]
            if c - a <= 25:
                samples += [float(v) for v in range(a + 1, c)]
            else:
                samples += [float(v) for v in rng.integers(a, c + 1, 25)]
        return samples

    inputs = FactorInputs(c_prime=1.0, c=1.0)
    return FamilyBundle(
        family=Family(
            name="poisson",
            param_space=Interval(lo=0.0, hi=math.inf, lo_open=True),
            sample_dim=1,
            log_density=log_density,
            divergence_fn=lambda l1, l2: rel_entr(l1, l2) - l1 + l2,
            estimator_g=_sample,
            lift=_sample,
            law=_discrete_law(
                lambda lam, k: pdtr(k, lam),
                lambda lam, k: pdtrc(k, lam),
                ppf,
                lambda lam, m, rng: rng.poisson(lam, m).astype(float),
                top=lambda lam: math.inf,
            ),
        ),
        estimator=RoundToNet(Squares()),
        factor_inputs=inputs,
        factor_C=factor_from_steps(inputs.c_prime, inputs.c),
        theta_grid=theta_grid,
        identity_axes=lambda b: (np.geomspace(0.1, 100.0, 50), range(1, 51), np.unique(
            np.concatenate([[0.0, 1.0, 2.0], np.round(np.geomspace(1, 300, 47))]))),
        cell_samples=cell_samples,
    )


def _make_continuous_uniform() -> FamilyBundle:
    def cdf(theta, v):
        with np.errstate(over="ignore"):  # v / theta = inf beyond the largest float: 1
            return np.clip(np.asarray(v, dtype=float) / theta, 0.0, 1.0)

    def log_density(theta, x):
        ok = (x > 0) & (x <= theta)
        return np.where(ok, -np.log(theta), -np.inf)

    def div(t1, t2):
        with np.errstate(divide="ignore"):
            return np.where(t1 <= t2, np.log(t2) - np.log(t1), np.inf)

    return FamilyBundle(
        family=Family(
            name="continuous_uniform",
            param_space=Interval(lo=0.0, hi=math.inf, lo_open=True),
            sample_dim=1,
            log_density=log_density,
            divergence_fn=div,
            estimator_g=_sample,
            lift=_sample,
            law=StatLaw(
                discrete=False,
                cdf=cdf,
                sf=lambda theta, v: 1.0 - cdf(theta, v),
                ppf=lambda theta, q: q * theta,
                sample=lambda theta, m, rng: theta * (1.0 - rng.random(m)),
                lo=0.0,
            ),
        ),
        estimator=CeilDyadic(DyadicReal()),
        factor_inputs=None,
        factor_C=3.0,
        theta_grid=lambda b: _scale_grid(b.net.points(np.arange(-10, 11))),
        identity_axes=lambda b: (np.geomspace(1e-3, 1e3, 50), range(-10, 11),
                                 np.geomspace(1e-3, 1e3, 50)),
    )


def _make_normal_mean(alpha: float = 1.0, n: int = 1,
                      epsilon: float | None = None) -> FamilyBundle:
    if epsilon is not None:
        # unit-lattice variant with rounding freed on half-integer
        # neighbourhoods; only defined for single observations
        if n != 1:
            raise DomainError("the r^epsilon variant uses n = 1")
        est: Estimator = REpsilon(float(epsilon))
        inputs = FactorInputs(c_prime=0.5 * (0.5 + est.epsilon) ** 2, alpha=1.0)
        C = factor_from_growth(inputs.c_prime, inputs.alpha)
        params = {"epsilon": est.epsilon}
    else:
        alpha = float(alpha)
        est = RoundToNet(ScaledLattice(alpha=alpha, n=n))  # it checks alpha > 0, n >= 1
        square = _or_inf(lambda: alpha ** 2)  # pow, whose last bit alpha * alpha may not match
        if not (0.0 < square / 8.0 and square / 2.0 < math.inf):
            raise DomainError(f"family.params.alpha: {alpha!r} puts the step constants "
                              "alpha^2/8 and alpha^2/2 outside the positive floats")
        inputs = FactorInputs(c_prime=square / 8.0, c=square / 2.0)
        C = factor_from_steps(inputs.c_prime, inputs.c)
        params = {"alpha": alpha, "n": n}
    # the mean of n unit-variance draws is N(mu, 1/n)
    scale = 1.0 / math.sqrt(n)

    def log_density(mu, x):
        # for n == 1 an array is a batch of scalar samples; for n > 1 the
        # last axis holds the coordinates of one sample
        z = x - mu if n == 1 else x - mu[..., None]
        sq = z * z if n == 1 else np.sum(z * z, axis=-1)
        return -0.5 * n * _LOG_2PI - 0.5 * sq

    def div(m1, m2):
        z = m1 - m2
        return 0.5 * n * (z * z)

    def moment(mu, v):  # given for n == 1 only, where scale = 1
        z = v - mu
        F = ndtr(z)  # the cdf at v from the same z
        return F, mu * F - np.exp(-z**2 / 2.0) / _SQRT_2PI

    def theta_grid(b):
        h = b.net.points(1) - b.net.points(0)
        grid = _location_grid([0.0, h / 8, h / 4, 3 * h / 8, h / 2, h / 2 + h / 64,
                               5 * h / 8, 3 * h / 4, h])
        eps = b.params.get("epsilon")
        if eps is not None:
            grid = np.append(grid, [0.5 - eps, 0.5 - eps / 2, 0.5, 0.5 + eps / 2, 0.5 + eps])
        return grid

    return FamilyBundle(
        family=Family(
            name="normal_mean",
            param_space=Interval(),
            sample_dim=n,
            log_density=log_density,
            divergence_fn=div,
            estimator_g=_sample if n == 1 else (lambda x: np.mean(x, axis=-1)),
            lift=_sample if n == 1 else (lambda v: np.repeat(v[..., None], n, axis=-1)),
            law=StatLaw(
                discrete=False,
                cdf=lambda mu, v: ndtr((v - mu) / scale),
                sf=lambda mu, v: ndtr(-((v - mu) / scale)),
                ppf=lambda mu, q: ndtri(q) * scale + mu,
                sample=lambda mu, m, rng: mu + _standard_normals(rng, m, n),
                draw_statistic=None if n == 1 else (
                    lambda mu, m, rng: mu + scale * rng.standard_normal(m)),
                moment=moment if n == 1 else None,
                charfn=(lambda t: np.exp(-0.5 * (t * t))) if n == 1 else None,
            ),
        ),
        estimator=est,
        factor_inputs=inputs,
        factor_C=C,
        theta_grid=theta_grid,
        identity_axes=_location_axes(6.0),
        params=params,
    )


def _make_normal_variance(n: int = 4) -> FamilyBundle:
    if n < 1:
        raise DomainError("n must be a positive integer")
    root = math.isqrt(n)  # a square n gives the ratio as an exact Fraction
    net = Geometric(1 + Fraction(1, root) if root * root == n else 1.0 + 1.0 / math.sqrt(n))

    def log_density(var, x):
        sq = x * x if n == 1 else np.sum(x * x, axis=-1)
        return -0.5 * n * (_LOG_2PI + np.log(var)) - 0.5 * sq / var

    def div(v1, v2):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = v1 / v2
            return np.where(r == 0.0, np.inf, 0.5 * n * (r - np.log(r) - 1.0))

    def g(x):
        # each sample's dot product with itself, rounded as np.dot rounds
        # it (summing x * x rounds differently and allocates a copy)
        return (x * x if n == 1 else (x[..., None, :] @ x[..., None])[..., 0, 0]) / n

    # n g(X) / var is chi-square with n degrees of freedom
    def chi2(var, v):
        with np.errstate(over="ignore"):  # inf beyond the largest float: a CDF of 1
            return n * np.asarray(v, dtype=float) / var

    def theta_grid(b):
        pts = b.net.points(np.arange(-6, 7))
        return np.append(_scale_grid(pts), 0.5 * (pts[:-1] + pts[1:]))

    inputs = FactorInputs(c_prime=0.5, c=1.0 / 32.0)
    return FamilyBundle(
        family=Family(
            name="normal_variance",
            param_space=Interval(lo=0.0, hi=math.inf, lo_open=True),
            sample_dim=n,
            log_density=log_density,
            divergence_fn=div,
            estimator_g=g,
            lift=lambda v: np.repeat(np.sqrt(v)[..., None], n, axis=-1),
            law=StatLaw(
                discrete=False,
                cdf=lambda var, v: np.where(chi2(var, v) > 0, chdtr(n, chi2(var, v)), 0.0),
                sf=lambda var, v: np.where(chi2(var, v) > 0, chdtrc(n, chi2(var, v)), 1.0),
                ppf=lambda var, q: var * (2 * gammaincinv(n / 2, q)) / n,
                sample=lambda var, m, rng: math.sqrt(var) * _standard_normals(rng, m, n),
                # chi-square with n degrees of freedom is twice a Gamma(n / 2)
                draw_statistic=lambda var, m, rng: var * (2 / n) * rng.standard_gamma(n / 2, m),
                lo=0.0,
            ),
        ),
        estimator=RoundToNet(net),
        factor_inputs=inputs,
        factor_C=factor_from_steps(inputs.c_prime, inputs.c),
        theta_grid=theta_grid,
        # the geometric net dives towards 0 quickly; indices are kept in a
        # range where the identity's terms stay within float64 reach of an
        # absolute 1e-9 residual
        identity_axes=lambda b: (np.geomspace(0.01, 100.0, 50), range(-12, 13),
                                 np.geomspace(0.005, 200.0, 50)),
        params={"n": n},
    )


def _make_cauchy(epsilon: float | None = None) -> FamilyBundle:
    def log_density(theta, x):
        z = x - theta
        return -math.log(math.pi) - np.log1p(z * z)

    def div(t1, t2):
        z = t1 - t2
        return np.log1p(z * z)

    def moment(theta, v):
        z = v - theta
        F = np.arctan2(1, -z) / np.pi  # the cdf at v from the same z
        # d/dv [log(1 + z^2) / (2 pi)] = z * pdf(z)
        return F, theta * F + np.log1p(z * z) / (2.0 * math.pi)

    def theta_grid(b):
        eps = b.params.get("epsilon", 0.0)
        return _location_grid([0.0, 0.1, 0.25, 0.5 - eps, 0.5 - eps / 2, 0.5,
                               0.5 + eps / 2, 0.5 + eps, 0.75, 1.0])

    est = RoundToNet(IntegerLattice()) if epsilon is None else REpsilon(float(epsilon))
    inputs = FactorInputs(c_prime=math.log(2.0), alpha=1.0)
    return FamilyBundle(
        family=Family(
            name="cauchy",
            param_space=Interval(),
            sample_dim=1,
            log_density=log_density,
            divergence_fn=div,
            estimator_g=_sample,
            lift=_sample,
            law=StatLaw(
                discrete=False,
                cdf=lambda theta, v: np.arctan2(1, -(v - theta)) / np.pi,
                sf=lambda theta, v: np.arctan2(1, v - theta) / np.pi,
                ppf=lambda theta, q: _cauchy_ppf(q, 0.0, 1.0) + theta,
                sample=lambda theta, m, rng: theta + rng.standard_cauchy(m),
                cap=CAUCHY_WINDOW,
                moment=moment,
                charfn=lambda t: np.exp(-np.abs(t)),
            ),
        ),
        estimator=est,
        factor_inputs=inputs,
        factor_C=factor_from_growth(inputs.c_prime, inputs.alpha),
        theta_grid=theta_grid,
        identity_axes=_location_axes(30.0),
        params={} if epsilon is None else {"epsilon": est.epsilon},
    )


#: each family id's bundle maker, whose keyword arguments are its params
_MAKERS = {
    "binomial": _make_binomial,
    "discrete_uniform": _make_discrete_uniform,
    "poisson": _make_poisson,
    "continuous_uniform": _make_continuous_uniform,
    "normal_mean": _make_normal_mean,
    "normal_variance": _make_normal_variance,
    "cauchy": _make_cauchy,
}

FAMILY_IDS = tuple(_MAKERS)


def make_bundle(name: str, **params) -> FamilyBundle:
    """Build the fully wired bundle for a family id.

    Recognised params: ``n`` (binomial, normal_mean, normal_variance; an
    integer), ``alpha`` (normal_mean net scale), ``epsilon`` (cauchy /
    normal_mean rounding slack, must be <= 1/5).  Unknown ids or
    parameters, and an ``n`` that is not integral, raise
    :class:`DomainError` naming the valid choices or the value.
    """
    if name not in _MAKERS:
        raise DomainError(
            f"unknown family {name!r}; valid ids: {', '.join(FAMILY_IDS)}"
        )
    maker = _MAKERS[name]
    allowed = set(inspect.signature(maker).parameters)
    unknown = set(params) - allowed
    if unknown:
        raise DomainError(
            f"unknown parameter(s) {sorted(unknown)} for family {name!r}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    if "n" in params:
        params["n"] = _number(params["n"], "n", int)
    return maker(**params)
