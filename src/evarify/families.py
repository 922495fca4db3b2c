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
normal variance (n) {(1+1/sqrt n)^k}, k in Z       round of ||x||^2/n    steps
cauchy              Z                              round or r^epsilon    growth
=================== ============================== ===================== ======

The "steps" route uses ``factor_from_steps`` with the declared constants
(c', c); the "growth" route uses ``factor_from_growth`` with (c', alpha).
For the binomial family no closed-form constants are available, so they
are estimated numerically at construction time (exhaustive enumeration of
the finite support for c', a closure scan over net-point pairs for alpha)
and the factor gets a 10% safety margin.

Each family is written once, as its ``Family``.  Divergences are the
Kullback-Leibler divergence in closed form for the exponential families
(equal to the Bregman divergence of their cumulants),
``log(1 + (t1 - t2)^2)`` for the Cauchy location family, and the
(one-sided, +inf when reversed) uniform log-ratio for the uniforms.

Each family also carries ``law``, the one description of its statistic's
distribution (vectorized cdf/sf/ppf, sampling and truncation window, plus
the partial first moment of the two location families), built from
``scipy.special`` ufuncs with the arithmetic ``scipy.stats`` uses, so the
verifier gets the same values without importing ``scipy.stats``.

Each bundle also carries its family's adversarial grids (the verifier's
theta grid, the checker's identity axes and cell samples).  This is the
only module that knows which families exist; the others read everything
family-specific from the bundle.
"""

from __future__ import annotations

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
    factor_from_growth,
    factor_from_steps,
)

__all__ = [
    "FAMILY_IDS",
    "FamilyBundle",
    "make_bundle",
    "binomial_family",
    "discrete_uniform_family",
    "poisson_family",
    "continuous_uniform_family",
    "normal_mean_family",
    "normal_variance_family",
    "cauchy_family",
]

FAMILY_IDS = (
    "binomial",
    "discrete_uniform",
    "poisson",
    "continuous_uniform",
    "normal_mean",
    "normal_variance",
    "cauchy",
)

#: Safety multiplier applied to numerically estimated factors (binomial).
ESTIMATED_FACTOR_MARGIN = 1.1

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Half-width of the Cauchy statistic's window: its tails are too heavy to
#: pin down by quantiles, so the mass beyond goes into the error bound.
CAUCHY_WINDOW = 10_000


# ---------------------------------------------------------------------------
# Distribution families
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


def _standard_normals(rng, m: int, n: int) -> np.ndarray:
    """m scalar draws for n == 1, else m rows of n."""
    return rng.standard_normal(m if n == 1 else (m, n))


def _poisson_ppf(lam, q):
    vals = np.ceil(pdtrik(q, lam))
    below = np.maximum(vals - 1, 0)
    return np.where(pdtr(below, lam) >= q, below, vals)


def poisson_family() -> Family:
    def log_density(lam, x):
        x = np.asarray(x, dtype=float)
        ok = (x >= 0) & (x == np.floor(x))
        with np.errstate(invalid="ignore"):
            val = -lam + xlogy(x, lam) - gammaln(x + 1.0)
        out = np.where(ok, val, -np.inf)
        return float(out) if out.ndim == 0 else out

    def div(l1, l2):
        l1 = np.asarray(l1, dtype=float)
        l2 = np.asarray(l2, dtype=float)
        out = rel_entr(l1, l2) - l1 + l2
        return float(out) if out.ndim == 0 else out

    return Family(
        name="poisson",
        param_space=Interval(lo=0.0, hi=math.inf, lo_open=True),
        sample_dim=1,
        log_density=log_density,
        divergence_fn=div,
        estimator_g=lambda x: float(x),
        lift=float,
        law=_discrete_law(
            lambda lam, k: pdtr(k, lam),
            lambda lam, k: pdtrc(k, lam),
            _poisson_ppf,
            lambda lam, m, rng: rng.poisson(lam, m).astype(float),
            top=lambda lam: math.inf,
        ),
    )


def binomial_family(n: int) -> Family:
    n = int(n)
    log_binom = gammaln(n + 1.0)

    def log_density(p, k):
        k = np.asarray(k, dtype=float)
        ok = (k >= 0) & (k <= n) & (k == np.floor(k))
        val = (
            log_binom
            - gammaln(k + 1.0)
            - gammaln(n - k + 1.0)
            + xlogy(k, p)
            + xlogy(n - k, 1.0 - p)
        )
        out = np.where(ok, val, -np.inf)
        return float(out) if out.ndim == 0 else out

    def div(p1, p2):
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        out = n * (rel_entr(p1, p2) + rel_entr(1.0 - p1, 1.0 - p2))
        return float(out) if out.ndim == 0 else out

    return Family(
        name="binomial",
        param_space=Interval(lo=0.0, hi=1.0, lo_open=True, hi_open=True),
        sample_dim=1,
        log_density=log_density,
        divergence_fn=div,
        estimator_g=lambda k: float(k) / n,
        lift=lambda v: float(round(v * n)),
        law=_discrete_law(
            lambda p, k: _binom_cdf(k, n, p),
            lambda p, k: _binom_sf(k, n, p),
            lambda p, q: _binom_ppf(q, n, p),
            lambda p, m, rng: rng.binomial(n, p, m).astype(float),
            top=lambda p: n,
            hi=n,
        ),
    )


def _du_cdf(N, k):
    return (k + 1.0) / (N + 1.0)


def _du_ppf(N, q):
    vals = np.ceil(q * (N + 1.0)) - 1.0
    below = np.clip(vals - 1.0, 0.0, N + 1.0)
    return np.where(_du_cdf(N, below) >= q, below, vals)


def discrete_uniform_family() -> Family:
    def log_density(N, x):
        x = np.asarray(x, dtype=float)
        ok = (x >= 0) & (x <= N) & (x == np.floor(x))
        out = np.where(ok, -math.log(N + 1.0), -np.inf)
        return float(out) if out.ndim == 0 else out

    def div(n1, n2):
        n1 = np.asarray(n1, dtype=float)
        n2 = np.asarray(n2, dtype=float)
        out = np.where(n1 <= n2, np.log((n2 + 1.0) / (n1 + 1.0)), np.inf)
        return float(out) if out.ndim == 0 else out

    return Family(
        name="discrete_uniform",
        param_space=Interval(lo=0.0, hi=math.inf, lo_open=False, integer=True),
        sample_dim=1,
        log_density=log_density,
        divergence_fn=div,
        estimator_g=lambda x: float(x),
        lift=float,
        law=_discrete_law(
            _du_cdf, lambda N, k: 1.0 - _du_cdf(N, k), _du_ppf,
            lambda N, m, rng: rng.integers(0, int(N) + 1, m).astype(float),
            top=lambda N: N,
        ),
    )


def continuous_uniform_family() -> Family:
    def cdf(theta, v):
        return np.clip(np.asarray(v, dtype=float) / theta, 0.0, 1.0)

    def log_density(theta, x):
        x = np.asarray(x, dtype=float)
        ok = (x > 0) & (x <= theta)
        out = np.where(ok, -math.log(theta), -np.inf)
        return float(out) if out.ndim == 0 else out

    def div(t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where(t1 <= t2, np.log(t2) - np.log(t1), np.inf)
        return float(out) if out.ndim == 0 else out

    return Family(
        name="continuous_uniform",
        param_space=Interval(lo=0.0, hi=math.inf, lo_open=True),
        sample_dim=1,
        log_density=log_density,
        divergence_fn=div,
        estimator_g=lambda x: float(x),
        lift=float,
        law=StatLaw(
            discrete=False,
            cdf=cdf,
            sf=lambda theta, v: 1.0 - cdf(theta, v),
            ppf=lambda theta, q: q * theta,
            sample=lambda theta, m, rng: theta * (1.0 - rng.random(m)),
            lo=0.0,
            # the ceiling estimator is undefined at 0
            tail_floor=2.0 ** -60,
        ),
    )


def normal_mean_family(n: int) -> Family:
    n = int(n)

    def log_density(mu, x):
        x = np.asarray(x, dtype=float)
        # for n == 1 an array is a batch of scalar samples; for n > 1 the
        # last axis holds the coordinates of one sample
        sq = (x - mu) ** 2 if n == 1 else np.sum((x - mu) ** 2, axis=-1)
        out = -0.5 * n * _LOG_2PI - 0.5 * sq
        return float(out) if np.ndim(out) == 0 else out

    def div(m1, m2):
        m1 = np.asarray(m1, dtype=float)
        m2 = np.asarray(m2, dtype=float)
        out = 0.5 * n * (m1 - m2) ** 2
        return float(out) if out.ndim == 0 else out

    def g(x):
        return float(np.mean(np.asarray(x, dtype=float)))

    # the mean of n unit-variance draws is N(mu, 1/n)
    scale = 1.0 / math.sqrt(n)

    def cdf(mu, v):
        return ndtr((v - mu) / scale)

    def moment(mu, v):
        z = v - mu
        F = cdf(mu, v)
        return F, mu * F - np.exp(-z**2 / 2.0) / _SQRT_2PI

    return Family(
        name="normal_mean",
        param_space=Interval(),
        sample_dim=n,
        log_density=log_density,
        divergence_fn=div,
        estimator_g=g,
        lift=float if n == 1 else (lambda v: np.full(n, float(v))),
        law=StatLaw(
            discrete=False,
            cdf=cdf,
            sf=lambda mu, v: ndtr(-((v - mu) / scale)),
            ppf=lambda mu, q: ndtri(q) * scale + mu,
            sample=lambda mu, m, rng: mu + _standard_normals(rng, m, n),
            statistic_is_sample=n == 1,
            moment=moment if n == 1 else None,
        ),
    )


def normal_variance_family(n: int) -> Family:
    n = int(n)

    def log_density(var, x):
        x = np.asarray(x, dtype=float)
        sq = x * x if n == 1 else np.sum(x * x, axis=-1)
        out = -0.5 * n * (_LOG_2PI + math.log(var)) - 0.5 * sq / var
        return float(out) if np.ndim(out) == 0 else out

    def div(v1, v2):
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = v1 / v2
            out = 0.5 * n * (r - np.log(r) - 1.0)
        out = np.where(np.asarray(r) == 0.0, np.inf, out)
        return float(out) if np.ndim(out) == 0 else out

    def g(x):
        flat = np.ravel(np.asarray(x, dtype=float))
        return float(np.dot(flat, flat)) / n

    # n g(X) / var is chi-square with n degrees of freedom
    def chi2(var, v):
        return n * np.asarray(v, dtype=float) / var

    return Family(
        name="normal_variance",
        param_space=Interval(lo=0.0, hi=math.inf, lo_open=True),
        sample_dim=n,
        log_density=log_density,
        divergence_fn=div,
        estimator_g=g,
        lift=lambda v: np.full(n, math.sqrt(float(v))),
        law=StatLaw(
            discrete=False,
            cdf=lambda var, v: np.where(chi2(var, v) > 0, chdtr(n, chi2(var, v)), 0.0),
            sf=lambda var, v: np.where(chi2(var, v) > 0, chdtrc(n, chi2(var, v)), 1.0),
            ppf=lambda var, q: var * (2 * gammaincinv(n / 2, q)) / n,
            sample=lambda var, m, rng: math.sqrt(var) * _standard_normals(rng, m, n),
            lo=0.0,
            statistic_is_sample=False,
        ),
    )


def cauchy_family() -> Family:
    def log_density(theta, x):
        x = np.asarray(x, dtype=float)
        out = -math.log(math.pi) - np.log1p((x - theta) ** 2)
        return float(out) if out.ndim == 0 else out

    def div(t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        out = np.log1p((t1 - t2) ** 2)
        return float(out) if out.ndim == 0 else out

    def cdf(theta, v):
        return np.arctan2(1, -(v - theta)) / np.pi

    def moment(theta, v):
        z = v - theta
        F = cdf(theta, v)
        # d/dv [log(1 + z^2) / (2 pi)] = z * pdf(z)
        return F, theta * F + np.log1p(z * z) / (2.0 * math.pi)

    return Family(
        name="cauchy",
        param_space=Interval(),
        sample_dim=1,
        log_density=log_density,
        divergence_fn=div,
        estimator_g=lambda x: float(x),
        lift=float,
        law=StatLaw(
            discrete=False,
            cdf=cdf,
            sf=lambda theta, v: np.arctan2(1, v - theta) / np.pi,
            ppf=lambda theta, q: _cauchy_ppf(q, 0.0, 1.0) + theta,
            sample=lambda theta, m, rng: theta + rng.standard_cauchy(m),
            cap=CAUCHY_WINDOW,
            moment=moment,
        ),
    )


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyBundle:
    """A family wired to its net, estimator and normalizing factor, with
    the family's adversarial grids.

    ``route`` records how ``factor_C`` was certified: "growth" and
    "steps" use the closed-form factor formulas applied to
    ``factor_inputs``; "direct" means an explicit constant.

    The grids are functions of the bundle they are given (a bundle made
    by ``dataclasses.replace`` is read afresh), run only when asked for:
    ``theta_grid(b)``, the parameters a sweep certifies at, in any order;
    ``identity_axes(b)``, the (thetas, net indices, statistic values) of
    the checker's log-ratio identity grid; ``cell_samples(b, n_cells,
    per_cell, rng)``, the discrete families' samples for the cell checks
    (None: the checker fills the estimator's cells).

    Bundles are immutable and safe for concurrent reads.
    """

    family: Family
    net: Net
    estimator: Estimator
    factor_inputs: FactorInputs | None
    factor_C: float
    route: str  # "growth" | "steps" | "direct"
    theta_grid: Callable[["FamilyBundle"], list]
    identity_axes: Callable[["FamilyBundle"], tuple]
    cell_samples: Callable[..., list] | None = None
    params: Mapping[str, float] = field(default_factory=dict)
    bundle_id: str = ""
    #: net index of each support point 0..n, for finite discrete supports
    support_index: np.ndarray | None = field(default=None, compare=False, repr=False)

    def estimate(self, x) -> float:
        """The selected net point for sample ``x``."""
        return self.estimator(x)

    def estimate_index(self, x) -> int:
        return self.estimator.index(x)

    def locate(self, x) -> float:
        """Sample x's point on the law's line (see ``StatLaw``), once the
        estimator has accepted x: raises where ``estimator.index`` does."""
        v = self.estimator.statistic(x)
        self.estimator.statistic_index(v)
        return float(x) if self.family.law.discrete else v

    @property
    def right_closed(self) -> bool:
        """Whether a cell holds its right edge on the law's line."""
        k = (self.net.k_min or 0) + 1  # a cell with both edges finite
        return self.family.law.discrete or self.estimator.cell(k).hi_closed

    def cell_bounds(self, ks: Sequence[int]) -> np.ndarray:
        """Per-cell (lo, hi) on the law's line, shape (len(ks), 2), with
        P_theta(cell k) = law.cdf(theta, hi) - law.cdf(theta, lo): the
        statistic interval clipped to the support, or the support points
        before the cell and at its end for discrete laws."""
        law = self.family.law
        if self.support_index is not None:
            ends = [np.searchsorted(self.support_index, ks, side) for side in ("left", "right")]
            return np.stack(ends, axis=1) - 1.0
        cells = [self.estimator.cell(int(k)) for k in ks]
        if law.discrete:
            top = min(law.hi, 2.0**62)
            ranges = [c.clip(law.lo, top).integer_range() for c in cells]
            return np.array([(a - 1, b) for a, b in ranges], dtype=float).reshape(-1, 2)
        return np.clip(np.array([(c.lo, c.hi) for c in cells]).reshape(-1, 2), law.lo, law.hi)


# ---------------------------------------------------------------------------
# Adversarial grids, one set per family (see FamilyBundle)
#
# Location families sweep a wide span plus cell-boundary and half-integer
# points (the worst cases sit at cell boundaries); scale families sweep
# six decades plus net points and their perturbations; the discrete
# uniform hits powers of two and their neighbours up to 2**20.
# ---------------------------------------------------------------------------

_LOCATION_BASES = (0.0, 1.0, -1.0, 10.0, 500.0, -500.0, 1000.0, -1000.0)


def _location_grid(offsets) -> list:
    return [base + o for base in _LOCATION_BASES for o in offsets]


def _scale_grid(points) -> list:
    """Six decades, plus each net point and its 1 +/- 1e-6 neighbours."""
    grid = list(np.geomspace(1e-3, 1e3, 61))
    for s in points:
        grid += [s, s * (1 + 1e-6), s * (1 - 1e-6)]
    return grid


def _location_axes(span: float):
    """Identity axes of a location family: thetas in [-5, 5], the 50 net
    indices around 0 and statistic values in [-span, span]."""
    return lambda b: (np.linspace(-5.0, 5.0, 50), range(-25, 25),
                      np.linspace(-span, span, 50))


#: the discrete uniform's identity axes: 50 sizes spread over 1..4096
_DYADIC_SIZES = np.unique(np.round(np.geomspace(1, 4096, 50)))


def _binomial_theta_grid(b: FamilyBundle) -> list:
    pts = [b.net.point(k) for k in b.net.indices()]
    grid = [1e-4, 1e-3, 0.01, 0.05, 0.95, 0.99, 0.999, 0.9999]
    grid += list(np.linspace(0.05, 0.95, 19))
    for s in pts:
        grid += [s, min(1 - 1e-9, s * 1.01), max(1e-9, s * 0.99)]
    for a, c in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + c)
        grid += [mid, np.nextafter(mid, 0.0), np.nextafter(mid, 1.0)]
    return grid


def _discrete_uniform_theta_grid(b: FamilyBundle) -> list:
    grid = list(range(1, 65))
    for j in range(1, 21):
        grid += [2**j - 1, 2**j, min(2**20, 2**j + 1)]
    return grid + [int(v) for v in np.geomspace(64, 2**20, 40)]


def _poisson_theta_grid(b: FamilyBundle) -> list:
    grid = list(np.geomspace(0.5, 1e4, 97))
    for t in range(1, 13):
        grid += [t * t, t * t + t, t * t + t + 0.25, t * t + t + 0.75,
                 max(0.5, t * t - t)]
    return grid


def _poisson_cell_samples(b: FamilyBundle, n_cells: int, per_cell: int, rng) -> list:
    """Both ends of the cells {t^2 - t + 1 .. t^2 + t} of the first
    ``n_cells`` squares, filled in full or by ``per_cell`` seeded draws."""
    samples = [0.0]
    for t in range(1, n_cells + 1):
        a, c = t * t - t + 1, t * t + t
        samples += [float(a), float(c)]
        if c - a <= per_cell:
            samples += [float(v) for v in range(a + 1, c)]
        else:
            samples += [float(v) for v in rng.integers(a, c + 1, per_cell)]
    return samples


def _normal_mean_theta_grid(b: FamilyBundle) -> list:
    h = b.net.point(1) - b.net.point(0)
    grid = _location_grid([0.0, h / 8, h / 4, 3 * h / 8, h / 2, h / 2 + h / 64,
                           5 * h / 8, 3 * h / 4, h])
    eps = b.params.get("epsilon")
    if eps is not None:
        grid += [0.5 - eps, 0.5 - eps / 2, 0.5, 0.5 + eps / 2, 0.5 + eps]
    return grid


def _normal_variance_theta_grid(b: FamilyBundle) -> list:
    pts = [b.net.point(k) for k in range(-6, 7)]
    return _scale_grid(pts) + [0.5 * (a + c) for a, c in zip(pts[:-1], pts[1:])]


def _cauchy_theta_grid(b: FamilyBundle) -> list:
    eps = b.params.get("epsilon", 0.0)
    return _location_grid([0.0, 0.1, 0.25, 0.5 - eps, 0.5 - eps / 2, 0.5,
                           0.5 + eps / 2, 0.5 + eps, 0.75, 1.0])


def _binomial_growth_alpha(net: BinomialSine, div_fn) -> float:
    """Largest admissible growth exponent over the finite sine net.

    For off-net parameter pairs straddling net points s_a .. s_b the
    number of net points strictly between them approaches b - a + 1 and
    the divergence approaches d(s_a || s_b), so the binding constraints
    are d(s_a || s_b) >= (1 + alpha) * log(b - a) over all index pairs
    with b - a >= 2 (smaller gaps are vacuous).
    """
    pts = np.array([net.point(t) for t in net.indices()])
    m = len(pts)
    best = math.inf
    for a in range(m):
        for b in range(a + 2, m):
            d_ab = float(div_fn(pts[a], pts[b]))
            d_ba = float(div_fn(pts[b], pts[a]))
            best = min(best, min(d_ab, d_ba) / math.log(b - a))
    if math.isinf(best):
        # fewer than three net points: every pair is vacuous and any
        # exponent is admissible, so the factor degenerates to 7 e^c'
        return math.inf
    if best <= 1.0:
        raise DomainError("sine net admits no positive growth exponent")
    return best - 1.0


def _make_binomial(n: int | None = None) -> FamilyBundle:
    if n is None:
        raise DomainError("the binomial bundle needs the trial count n")
    n = int(n)
    if n < 4:
        raise DomainError("binomial bundle needs n >= 4")
    fam = binomial_family(n)
    net = BinomialSine(n)
    est = RoundToNet(net, fam.estimator_g)
    ks = np.arange(n + 1)
    index = np.array([est.index(k) for k in ks])
    sel = np.array([net.point(k) for k in index])
    c_prime = float(np.max(fam.divergence_fn(ks / n, sel)))
    alpha = _binomial_growth_alpha(net, fam.divergence_fn)
    inputs = FactorInputs(c_prime=c_prime, alpha=alpha)
    C = ESTIMATED_FACTOR_MARGIN * factor_from_growth(c_prime, alpha)
    return FamilyBundle(
        family=fam,
        net=net,
        estimator=est,
        factor_inputs=inputs,
        factor_C=C,
        route="growth",
        theta_grid=_binomial_theta_grid,
        identity_axes=lambda b: (np.linspace(0.02, 0.98, 50), b.net.indices(),
                                 np.arange(0, b.params["n"] + 1) / b.params["n"]),
        cell_samples=lambda b, n_cells, per_cell, rng: list(range(int(b.params["n"]) + 1)),
        params={"n": n},
        bundle_id=f"binomial(n={n})",
        support_index=index,
    )


def _make_discrete_uniform() -> FamilyBundle:
    net = DyadicInt()
    return FamilyBundle(
        family=discrete_uniform_family(),
        net=net,
        estimator=CeilDyadic(net),
        factor_inputs=None,
        factor_C=3.0,
        route="direct",
        theta_grid=_discrete_uniform_theta_grid,
        identity_axes=lambda b: (_DYADIC_SIZES, range(0, 12), _DYADIC_SIZES),
        # every support point of the first min(n_cells, 14) dyadic cells
        cell_samples=lambda b, n_cells, per_cell, rng: [
            float(v) for v in range(2 ** min(n_cells, 14) + 1)],
        params={},
        bundle_id="discrete_uniform",
    )


def _make_poisson() -> FamilyBundle:
    net = Squares()
    inputs = FactorInputs(c_prime=1.0, c=1.0)
    return FamilyBundle(
        family=poisson_family(),
        net=net,
        estimator=RoundToNet(net),
        factor_inputs=inputs,
        factor_C=factor_from_steps(1.0, 1.0),
        route="steps",
        theta_grid=_poisson_theta_grid,
        identity_axes=lambda b: (np.geomspace(0.1, 100.0, 50), range(1, 51), np.unique(
            np.concatenate([[0.0, 1.0, 2.0], np.round(np.geomspace(1, 300, 47))]))),
        cell_samples=_poisson_cell_samples,
        params={},
        bundle_id="poisson",
    )


def _make_continuous_uniform() -> FamilyBundle:
    net = DyadicReal()
    return FamilyBundle(
        family=continuous_uniform_family(),
        net=net,
        estimator=CeilDyadic(net),
        factor_inputs=None,
        factor_C=3.0,
        route="direct",
        theta_grid=lambda b: _scale_grid(b.net.point(j) for j in range(-10, 11)),
        identity_axes=lambda b: (np.geomspace(1e-3, 1e3, 50), range(-10, 11),
                                 np.geomspace(1e-3, 1e3, 50)),
        params={},
        bundle_id="continuous_uniform",
    )


def _make_normal_mean(alpha: float = 1.0, n: int = 1,
                      epsilon: float | None = None) -> FamilyBundle:
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    fam = normal_mean_family(n)
    if epsilon is not None:
        # unit-lattice variant with rounding freed on half-integer
        # neighbourhoods; only defined for single observations
        if n != 1:
            raise DomainError("the r^epsilon variant uses n = 1")
        eps = float(epsilon)
        est = REpsilon(eps)
        c_prime = 0.5 * (0.5 + eps) ** 2
        inputs = FactorInputs(c_prime=c_prime, alpha=1.0)
        return FamilyBundle(
            family=fam,
            net=est.net,
            estimator=est,
            factor_inputs=inputs,
            factor_C=factor_from_growth(c_prime, 1.0),
            route="growth",
            theta_grid=_normal_mean_theta_grid,
            identity_axes=_location_axes(6.0),
            params={"n": 1, "epsilon": eps},
            bundle_id=f"normal_mean(epsilon={eps})",
        )
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be > 0")
    net = ScaledLattice(alpha=alpha, n=n)
    inputs = FactorInputs(c_prime=alpha ** 2 / 8.0, c=alpha ** 2 / 2.0)
    return FamilyBundle(
        family=fam,
        net=net,
        estimator=RoundToNet(net, fam.estimator_g),
        factor_inputs=inputs,
        factor_C=factor_from_steps(alpha ** 2 / 8.0, alpha ** 2 / 2.0),
        route="steps",
        theta_grid=_normal_mean_theta_grid,
        identity_axes=_location_axes(6.0),
        params={"alpha": alpha, "n": n},
        bundle_id=f"normal_mean(alpha={alpha},n={n})",
    )


def _make_normal_variance(n: int = 4) -> FamilyBundle:
    n = int(n)
    if n < 1:
        raise DomainError("n must be a positive integer")
    root = math.isqrt(n)
    if root * root == n:
        exact = 1 + Fraction(1, root)
        net = Geometric(float(exact), exact_ratio=exact)
    else:
        net = Geometric(1.0 + 1.0 / math.sqrt(n))
    fam = normal_variance_family(n)
    inputs = FactorInputs(c_prime=0.5, c=1.0 / 32.0)
    return FamilyBundle(
        family=fam,
        net=net,
        estimator=RoundToNet(net, fam.estimator_g),
        factor_inputs=inputs,
        factor_C=factor_from_steps(0.5, 1.0 / 32.0),
        route="steps",
        theta_grid=_normal_variance_theta_grid,
        # the geometric net dives towards 0 quickly; indices are kept in a
        # range where the identity's terms stay within float64 reach of an
        # absolute 1e-9 residual
        identity_axes=lambda b: (np.geomspace(0.01, 100.0, 50), range(-12, 13),
                                 np.geomspace(0.005, 200.0, 50)),
        params={"n": n},
        bundle_id=f"normal_variance(n={n})",
    )


def _make_cauchy(epsilon: float | None = None) -> FamilyBundle:
    net = IntegerLattice()
    if epsilon is None:
        est: Estimator = RoundToNet(net)
        eps_id = ""
    else:
        est = REpsilon(float(epsilon), net=net)
        eps_id = f"(epsilon={float(epsilon)})"
    inputs = FactorInputs(c_prime=math.log(2.0), alpha=1.0)
    return FamilyBundle(
        family=cauchy_family(),
        net=net,
        estimator=est,
        factor_inputs=inputs,
        factor_C=factor_from_growth(math.log(2.0), 1.0),
        route="growth",
        theta_grid=_cauchy_theta_grid,
        identity_axes=_location_axes(30.0),
        params={} if epsilon is None else {"epsilon": float(epsilon)},
        bundle_id=f"cauchy{eps_id}",
    )


def make_bundle(name: str, **params) -> FamilyBundle:
    """Build the fully wired bundle for a family id.

    Recognised params: ``n`` (binomial, normal_mean, normal_variance),
    ``alpha`` (normal_mean net scale), ``epsilon`` (cauchy / normal_mean
    rounding slack, must be <= 1/5).  Unknown ids or parameters raise
    :class:`DomainError` naming the valid choices.
    """
    makers = {
        "binomial": (_make_binomial, {"n"}),
        "discrete_uniform": (_make_discrete_uniform, set()),
        "poisson": (_make_poisson, set()),
        "continuous_uniform": (_make_continuous_uniform, set()),
        "normal_mean": (_make_normal_mean, {"alpha", "n", "epsilon"}),
        "normal_variance": (_make_normal_variance, {"n"}),
        "cauchy": (_make_cauchy, {"epsilon"}),
    }
    if name not in makers:
        raise DomainError(
            f"unknown family {name!r}; valid ids: {', '.join(FAMILY_IDS)}"
        )
    maker, allowed = makers[name]
    unknown = set(params) - allowed
    if unknown:
        raise DomainError(
            f"unknown parameter(s) {sorted(unknown)} for family {name!r}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    return maker(**params)
