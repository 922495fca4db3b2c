"""Core machinery for net-based composite e-variables.

An e-variable for a hypothesis (a set of distributions) is a non-negative
statistic whose expectation is at most 1 under every distribution in the
hypothesis.  This module holds the parameter-space machinery used to turn
per-parameter e-variables into an e-variable for a whole one-parameter
family:

* one-parameter ``Family`` bundles (log-density, divergence, pointwise
  estimate of the parameter indicated by a sample),
* countable parameter ``Net`` grids, each from two array primitives (its
  points and a floor index), with predecessor / successor / rounding
  access on one value or an array,
* ``Estimator`` maps from statistic values to net indices, with their
  cells' edges in statistic space as arrays,
* the two closed-form normalizing factors ``factor_from_growth`` and
  ``factor_from_steps`` that certify the selection rule
  ``e(x) = e_{shat(x)}(x) / C``,
* the ``kappa * p**(kappa - 1)`` p-to-e calibrator.

Conventions
-----------
Parameters are plain floats.  Every public operation validates its
parameters against the family's declared parameter space and raises
``DomainError`` on violation; the *first* argument of a divergence may sit
on the closure of the parameter space because pointwise estimates (e.g.
the zero count of a Poisson sample) legitimately hit the boundary, where
the divergence is defined by continuous extension.

A sample reaches the net in two steps: ``Family.estimator_g`` gives its
statistic, and an estimator maps statistic values to net indices.

One value is a batch of one: the family callables, the net access, the
estimators and ``FamilyBundle.estimate`` / ``locate`` compute on arrays,
and give a batch an array.  One value goes in as a 0-d array, and its 0-d
result comes out as a Python ``float`` or ``int`` (never a numpy scalar),
the bits of its entry in a batch.  ``Family`` (at construction) and
``Net`` convert; the families and the nets' primitives are array code.

Rounding to a net breaks ties upward (toward the successor).  Predecessor
and successor are strict: ``pred(t) < t < succ(t)``; ``None`` (NaN in an
array) signals that ``t`` lies beyond the net's extreme elements.  Net
indices stay below 2**53 in magnitude: a value whose index would reach it
raises ``DomainError``.

All densities are computed in log space (factorials via ``gammaln``) so
that counts in the thousands neither overflow nor lose the leading digits.
A divergence of ``+inf`` is a legal value and propagates through
``exp(-d) -> 0``; it is how disjoint-support families (uniforms) encode
impossible parameter orderings.

Everything in this module is immutable after construction and safe to
share across threads; all operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

__all__ = [
    "EvarifyError",
    "DomainError",
    "ContractViolationError",
    "ConfigError",
    "Interval",
    "Family",
    "StatLaw",
    "Piecewise",
    "FactorInputs",
    "divergence",
    "factor_from_growth",
    "factor_from_steps",
    "calibrate_p_to_e",
    "Net",
    "IntegerLattice",
    "ScaledLattice",
    "DyadicInt",
    "DyadicReal",
    "Squares",
    "Geometric",
    "BinomialSine",
    "net_neighbors",
    "Estimator",
    "RoundToNet",
    "CeilDyadic",
    "REpsilon",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class EvarifyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EvarifyError, ValueError):
    """An argument lies outside its declared domain (parameter space,
    calibrator exponent, factor inputs, ...)."""


class ContractViolationError(EvarifyError):
    """A supplied component violated the e-variable contract, e.g. it
    evaluated to a negative number."""


class ConfigError(EvarifyError):
    """A run configuration failed validation."""


def _number(value, field: str, kind=float):
    """A number, or an exact decimal string, as ``kind`` (float or int); a
    :class:`DomainError` naming ``field`` for anything else: null, a bool,
    a value that is not finite, or for int one that is not integral."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        raise DomainError(f"{field}: bad numeric value {value!r}") from exc
    if (isinstance(value, bool) or not math.isfinite(out)
            or (isinstance(value, float) and out != value)):
        raise DomainError(f"{field}: {value!r} is not a finite {kind.__name__}")
    return out


def _epsilon(epsilon) -> float:
    """The rounding slack as a float; a :class:`DomainError` unless it
    lies in (0, 1/5], where neighbouring half-integers' choices cannot
    interact (None included)."""
    if epsilon is None or not 0.0 < epsilon <= 0.2:
        raise DomainError("epsilon must lie in (0, 1/5]")
    return float(epsilon)


# ---------------------------------------------------------------------------
# Parameter spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A real interval, open above, possibly open below or integer-restricted."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    integer: bool = False

    def contains(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if self.integer and value != int(value):
            return False
        if value < self.lo or (self.lo_open and value == self.lo):
            return False
        if value >= self.hi:
            return False
        return True

    def contains_each(self, values) -> np.ndarray:
        """``contains`` of each value of a float array, in one pass."""
        v = np.asarray(values, dtype=float)
        above = (v > self.lo) | (v == self.lo) & (not self.lo_open)
        inside = np.isfinite(v) & above & (v < self.hi)
        return inside & (v == np.trunc(v)) if self.integer else inside

    def contains_closure(self, value: float) -> bool:
        """Membership in the closure (endpoints allowed, integrality kept
        only in the interior -- boundary estimates may be non-integer)."""
        if math.isnan(value):
            return False
        if value in (self.lo, self.hi):
            return True
        return self.contains(value)


# ---------------------------------------------------------------------------
# Families and the laws of their statistics
# ---------------------------------------------------------------------------


#: Error of a closed-form CDF (or partial-moment) value, relative to its
#: size; and the unit roundoff of float64.
_CDF_EPS = 5e-16
_UNIT_ROUNDOFF = 2.0 ** -53

#: values of one tile, a column of parameters against a row of points in
#: one vectorized call; it bounds the temporaries of a tile.  The
#: closed-form sweep's law calls take theta rows by edges (a row wider
#: than that is a tile alone); the identity check's family calls take
#: parameters by lifted samples, on binomial n = 10^4 all 50 thetas by 327
#: statistics, where 2**15 gains no time and doubles the peak memory
_TILE_VALUES = 2**14


@dataclass(frozen=True)
class StatLaw:
    """The law of a family's statistic g(X), vectorized.

    ``cdf(theta, v)``, ``sf(theta, v)`` and ``ppf(theta, q)`` (q in (0, 1))
    broadcast over both arguments.  A discrete law is indexed by support
    point rather than statistic value: g is increasing on the support, so
    ``cdf(theta, x) = P(g(X) <= g(x))`` without mapping g(x) back to a
    count, which floats get wrong ((1/49) * 49 < 1).  ``lo``/``hi`` bound
    the support of the statistic (of the sample, for discrete laws).
    ``sample(theta, m, rng)`` draws m samples X: shape (m,) for scalar
    samples, (m, n) for n-vectors.  ``draw_statistic(theta, m, rng)``
    draws m values of g(X) from their law, shape (m,), where the law's line
    is not the sample; it is None where it is (``statistic_is_sample``).
    Monte Carlo on a function of g(X) alone draws these, not n-vectors.

    Location families with unit scale also carry ``moment(theta, v)``,
    returning the CDF and the partial-first-moment antiderivative
    G(v) = int^v t p_theta(t) dt, and ``charfn(t)``, the characteristic
    function E exp(i t (g(X) - theta)), the same for every theta.  Both
    laws that carry it are symmetric about theta, so it is real and even,
    and log-concave on t > 0 (e^-|t| and e^(-t^2/2)), so
    charfn(t + s) / charfn(t) does not grow with t: the Fourier series of
    a periodic composite's expectation bounds its tail on that ratio.  A
    law with ``moment`` also has a density that does not increase away
    from theta (unimodal at theta): the charge of a periodic sweep's far
    copies rests on it.
    """

    discrete: bool
    cdf: Callable[[object, object], np.ndarray]
    sf: Callable[[object, object], np.ndarray]
    ppf: Callable[[object, object], np.ndarray]
    sample: Callable[[float, int, np.random.Generator], np.ndarray]
    lo: float = -math.inf
    hi: float = math.inf
    draw_statistic: Callable[[float, int, np.random.Generator], np.ndarray] | None = None
    #: heavy tails: the window is theta +/- cap instead of quantiles
    cap: float | None = None
    moment: Callable[[float, np.ndarray], tuple] | None = None
    charfn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def statistic_is_sample(self) -> bool:
        """Whether the law's line is the sample's: g(x) = x, or a discrete
        law's support points."""
        return self.draw_statistic is None

    def window(self, theta, tail: float):
        """Statistic interval [lo, hi] (support points, for discrete laws)
        holding all but ``tail`` of the mass under theta -- or all but what
        lies beyond the heavy-tail cap -- clamped to the support: shape
        theta's shape + (2,).  An end that is NaN, or past the floats where
        the support is not, raises :class:`DomainError` naming its theta."""
        theta = np.asarray(theta, dtype=float)
        ends = self.window_ends(theta, tail)
        lost = ~np.isfinite(ends).all(axis=-1)
        if lost.any():  # NaN: e.g. the Poisson's pdtrik beyond about 1e11
            what = "NaN" if np.isnan(ends[lost][0]).any() else "past the largest float"
            raise DomainError(f"theta = {float(theta[lost].flat[0])!r}: the law's quantile is "
                              f"{what} there, so no truncation window holds its mass")
        return ends

    def window_ends(self, theta, tail: float) -> np.ndarray:
        """The ends of :meth:`window`, unchecked: NaN or infinite where no
        window holds the mass."""
        theta = np.asarray(theta, dtype=float)
        if self.cap is not None:
            ends = np.stack([theta - self.cap, theta + self.cap], axis=-1)
        else:
            q = np.array([tail / 2.0, 1.0 - tail / 2.0])
            with np.errstate(over="ignore"):  # a quantile past the floats is inf
                ends = self.ppf(theta[..., None], q)
        return np.clip(ends, self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class Piecewise:
    """A piecewise-affine function on the line of a family's law
    (statistic values, or support points for a discrete law; see
    :class:`StatLaw`): ``a[i] + b[i] * v`` between ``edges[i]`` and
    ``edges[i + 1]``, ``outside`` beyond the edges.  Pieces are (lo, hi]
    when ``right_closed`` and [lo, hi) otherwise, as the estimator's cells,
    so a value on an edge selects the estimator's piece.  A constant has
    no pieces.  With a ``period`` p the pieces make up one period,
    edges[-1] = edges[0] + p, and repeat without end (``outside`` is
    unused): the copy of piece i shifted by j p is a[i] + b[i] (v - j p).

    Read at points, it is one search into the edges and one gather from
    ``a`` and ``b`` padded with ``outside`` and 0; without ramps, from
    ``a`` alone, so a -0.0 level reads -0.0 (a + 0 v gives +0.0) and a
    piece that reaches an infinite edge reads its level there (not
    0 * inf).  No shipped composite has a -0.0 level."""

    edges: np.ndarray
    a: np.ndarray
    b: np.ndarray
    outside: float
    right_closed: bool = False
    period: float | None = None

    @classmethod
    def constant(cls, value: float) -> "Piecewise":
        return cls(np.empty(0), np.empty(0), np.empty(0), float(value))

    def __call__(self, v) -> np.ndarray:
        """The values at the points v (an array, or one point), shaped as v."""
        v = np.asarray(v, dtype=float)
        if not len(self.a):
            return np.full(v.shape, self.outside)
        if not v.ndim:  # one point as a batch of one
            return self(v.reshape(1)).reshape(())
        if self.period is not None:  # into the first period (floor may round)
            p, e0 = self.period, self.edges[0]
            v = v - p * np.floor((v - e0) / p)
            v = v + np.where(v < e0, p, np.where(v >= self.edges[-1], -p, 0.0))
        a, b = self._padded
        i = self.edges.searchsorted(v, "left" if self.right_closed else "right")
        if not self.ramps:
            return a[i]
        out = a[i] + b[i] * v
        if not np.isfinite(v).all():  # beyond the edges 0 * inf is NaN, not outside
            out[(i == 0) | (i == len(self.edges))] = self.outside
        return out

    @cached_property
    def _padded(self) -> tuple:
        """``a`` with ``outside`` and ``b`` with 0 at both ends, indexed by
        the search: i is the piece that ends at edge i, 0 and len(edges)
        the points beyond."""
        return (np.concatenate([[self.outside], self.a, [self.outside]]),
                np.concatenate([[0.0], self.b, [0.0]]))

    @cached_property
    def sup(self) -> float:
        """The largest value taken (an affine piece peaks at an edge)."""
        ends = [self.a + self.b * self.edges[:-1], self.a + self.b * self.edges[1:]]
        values = [float(e.max()) for e in ends if len(e)]
        return max(values if self.period else [self.outside, *values])

    @cached_property
    def ramps(self) -> bool:
        """Whether some piece has a slope (b != 0)."""
        return bool(np.any(self.b != 0.0))


def _one(a):
    """A 0-d result as a Python scalar, any other as the array (the
    one-value rule of the Conventions above)."""
    a = np.asarray(a)
    return a.item() if a.ndim == 0 else a


def _on_arrays(fn):
    """fn called on float arrays, its 0-d result as a Python scalar (fn
    itself when it is such a wrapper already)."""
    if getattr(fn, "_on_arrays", False):
        return fn

    def on_arrays(*args):
        return _one(fn(*[np.asarray(a, dtype=float) for a in args]))
    on_arrays.__wrapped__, on_arrays._on_arrays = fn, True
    return on_arrays


@dataclass(frozen=True)
class Family:
    """A one-parameter family: log-density, divergence, pointwise
    parameter estimate and the law of that estimate's statistic.

    The four callables are written on float arrays, and the family wraps
    them once, at construction, with the one-value rule (see Conventions
    above).  ``log_density(theta, x)`` takes a batch of samples (for
    product families, the last axis is the coordinate axis) and returns
    log p_theta(x), with ``-inf`` off the support; theta broadcasts
    against the batch's shape (a column of thetas gives a row per theta).
    ``divergence_fn`` broadcasts over both arguments and must satisfy
    d(t, t) = 0, d >= 0 for the values it computes, not only in exact
    arithmetic (a form that can round below 0 clamps at 0).
    ``estimator_g`` maps samples to the parameter value each indicates
    (mean, rate, squared norm over n, ...), possibly on the closure of the
    parameter space, one value per sample of ``log_density``'s batch.
    ``lift(v)`` is a sample x with ``estimator_g(x) == v`` (the checker's
    way onto the statistic axis); ``law`` is the distribution of g(X).
    """

    name: str
    param_space: Interval
    sample_dim: int
    log_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    divergence_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    estimator_g: Callable[[np.ndarray], np.ndarray]
    lift: Callable[[np.ndarray], np.ndarray]
    law: StatLaw

    def __post_init__(self) -> None:
        for name in ("log_density", "divergence_fn", "estimator_g", "lift"):
            object.__setattr__(self, name, _on_arrays(getattr(self, name)))

    def validate_param(self, theta: float, *, closure: bool = False) -> float:
        theta = float(theta)
        ok = (
            self.param_space.contains_closure(theta)
            if closure
            else self.param_space.contains(theta)
        )
        if not ok:
            raise DomainError(
                f"parameter {theta!r} outside the {self.name} parameter space"
            )
        return theta


def divergence(family: Family, theta1: float, theta2: float) -> float:
    """Family divergence d(theta1 || theta2).

    ``theta1`` may sit on the closure of the parameter space (it is where
    pointwise estimates land for boundary samples); ``theta2`` must be an
    interior parameter.  Returns a value in [0, +inf].
    """
    t1 = family.validate_param(theta1, closure=True)
    t2 = family.validate_param(theta2)
    return family.divergence_fn(t1, t2)


# ---------------------------------------------------------------------------
# Normalizing factors and the p-to-e calibrator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorInputs:
    """Constants feeding the normalizing-factor formulas.

    ``c_prime`` bounds the divergence from the pointwise estimate to the
    selected net point within one cell; ``alpha`` is the growth exponent
    of the divergence in the number of net points separated; ``c`` lower
    bounds the divergence between consecutive net points.  A bundle routed
    through the growth formula carries (c_prime, alpha); one routed
    through the step formula carries (c_prime, c).
    """

    c_prime: float = 0.0
    alpha: float | None = None
    c: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.c_prime < math.inf:
            raise DomainError(f"c_prime must be finite and >= 0 (got {self.c_prime!r})")
        if self.alpha is not None and not self.alpha > 0:
            raise DomainError(f"alpha must be > 0 (got {self.alpha!r})")
        if self.c is not None and not self.c > 0:
            raise DomainError(f"c must be > 0 (got {self.c!r})")


def factor_from_growth(c_prime: float, alpha: float) -> float:
    """Normalizing factor exp(c') * (7 + 2/alpha), its inputs checked as
    :class:`FactorInputs` checks them.

    Valid whenever the divergence at distance k net points grows at least
    like (1 + alpha) * log(k - 1) in both directions and each cell stays
    within divergence c' of its net point.  Strictly decreasing in alpha
    and strictly increasing in c'.
    """
    FactorInputs(c_prime, alpha=alpha)
    return _or_inf(lambda: math.exp(c_prime)) * (7.0 + 2.0 / alpha)


def factor_from_steps(c_prime: float, c: float) -> float:
    """Normalizing factor exp(c') * (5 + 2 / (e^c - 1)), its inputs
    checked as :class:`FactorInputs` checks them.

    Valid when consecutive net points are separated by divergence more
    than c in both directions and the divergence satisfies the reverse
    triangle inequality along monotone triples.
    """
    FactorInputs(c_prime, c=c)
    return _or_inf(lambda: math.exp(c_prime)) * (5.0 + 2.0 / _or_inf(lambda: math.expm1(c)))


def calibrate_p_to_e(kappa: float, p) -> object:
    """The calibrator kappa * p**(kappa - 1), mapping p-values to e-values.

    ``kappa`` must lie in (0, 1).  ``p`` may be a scalar in [0, 1] or an
    array; p == 0 yields +inf, which is a legitimate e-value.
    """
    if not 0.0 < kappa < 1.0:
        raise DomainError("kappa must lie strictly inside (0, 1)")
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("p must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return _one(kappa * np.power(arr, kappa - 1.0))


# ---------------------------------------------------------------------------
# Nets
# ---------------------------------------------------------------------------

#: Net indices stay below this in magnitude: beyond it consecutive net
#: points are no longer distinct floats (and, further out, an index no
#: longer fits in an int64).
_INDEX_LIMIT = 2.0 ** 53

#: the offsets of the indices a floor estimate is repaired from
_AROUND = np.arange(-1, 3)


def _index_array(ks) -> np.ndarray:
    """Net indices (one, a sequence or a range) as an int64 array."""
    if isinstance(ks, range):  # without a Python int per element
        return np.arange(ks.start, ks.stop, ks.step, dtype=np.int64)
    return np.asarray(ks, dtype=np.int64)


def _int_index(k: np.ndarray) -> np.ndarray:
    """Float index estimates as int64, raising :class:`DomainError` where
    one is not finite or reaches ``_INDEX_LIMIT`` in magnitude."""
    if not (np.abs(k) < _INDEX_LIMIT).all():
        raise DomainError("a net index beyond 2**53, where the net points are "
                          "no longer distinct floats")
    return np.asarray(k).astype(np.int64)


def _midpoint(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """0.5 (x + y), or 0.5 x + 0.5 y where that sum of finite points
    overflows: every finite midpoint keeps its bits, and the midpoint of
    two points near the largest float stays finite."""
    with np.errstate(over="ignore"):
        total = x + y
    over = np.isinf(total) & np.isfinite(x) & np.isfinite(y)
    return np.where(over, 0.5 * x + 0.5 * y, 0.5 * total)


class Net:
    """An ordered countable parameter grid.

    Subclasses define two primitives from their closed form, both on
    arrays: ``_points(k)`` maps int64 indices to their points, strictly
    increasing in k; ``_floor(t)`` maps values to the largest index whose
    point is at most each (``k_min - 1`` below the smallest point), an
    int64 array.  Index bounds ``k_min`` / ``k_max`` are ``None`` when the
    net is unbounded on that side.  The access below is derived from the
    two and follows the one-value rule (see Conventions above).
    """

    k_min: int | None = None
    k_max: int | None = None

    def points(self, ks):
        """The points at one index, a sequence or a range of them; an index
        beyond a bounded net raises :class:`DomainError`."""
        k = _index_array(ks)
        if (self.k_min is not None or self.k_max is not None) and (self._clip(k) != k).any():
            raise DomainError(f"index beyond the net's k_min={self.k_min}, k_max={self.k_max}")
        return _one(self._points(k))

    def _points(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _floor(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _repaired(self, k: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The floor index of t from an estimate k at most two off: k
        less the points k - 1 and k above t, plus k + 1 and k + 2 at or
        below it."""
        p, t = self._points(k[..., None] + _AROUND), t[..., None]
        return k + (p[..., 2:] <= t).sum(axis=-1) - (p[..., :2] > t).sum(axis=-1)

    def _clip(self, k: np.ndarray) -> np.ndarray:
        """Indices moved into [k_min, k_max]."""
        if self.k_min is not None:
            k = np.maximum(k, self.k_min)
        return k if self.k_max is None else np.minimum(k, self.k_max)

    def _points_or_none(self, k: np.ndarray):
        """points(k), None (one index) or NaN (an array) beyond the net."""
        inside = self._clip(k)
        p = np.where(inside != k, np.nan, self._points(inside))
        return p if p.ndim else None if np.isnan(p) else p.item()

    def _floor_below(self, t: np.ndarray) -> np.ndarray:
        """The largest index whose point is below each t."""
        k = self._floor(t)
        return k - (self._points(self._clip(k)) == t)

    def pred(self, t):
        """max{s in S : s < t}; None (one t) or NaN (an array) where no
        point lies below t."""
        return self._points_or_none(self._floor_below(np.asarray(t, dtype=float)))

    def succ(self, t):
        """min{s in S : t < s}; None (one t) or NaN (an array) where no
        point lies above t."""
        return self._points_or_none(self._floor(np.asarray(t, dtype=float)) + 1)

    def round_index(self, t):
        """Index of the nearest net element; ties (at the float midpoint,
        the edge of :meth:`RoundToNet.edges`) go to the successor."""
        t = np.asarray(t, dtype=float)
        k = self._floor(t)
        lo, hi = self._clip(k), self._clip(k + 1)  # equal beyond the net's ends
        mid = _midpoint(self._points(lo), self._points(hi))
        return _one(lo + (hi - lo) * (t >= mid))

    def round(self, t):
        return self.points(self.round_index(t))

    def count_between(self, a, b):
        """|S intersect (a, b)| for the open interval, 0 when a >= b."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        n = self._floor_below(b) - self._floor(a)
        return _one(np.where(a < b, np.maximum(0, n), 0))


def net_neighbors(
    net: Net, theta: float
) -> tuple[float | None, float, float | None]:
    """(pred, round, succ) of ``theta`` in the net.

    pred/succ are strict neighbours (None beyond the net's extremes);
    round is the nearest element with ties broken upward.
    """
    return net.pred(theta), net.round(theta), net.succ(theta)


class IntegerLattice(Net):
    """The integers."""

    def _points(self, k):
        return k.astype(float)

    def _floor(self, t):
        return _int_index(np.floor(t))


@dataclass(frozen=True)
class ScaledLattice(Net):
    """The lattice (alpha / sqrt(n)) * Z."""

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise DomainError("alpha must be > 0")
        if self.n < 1:
            raise DomainError("n must be a positive integer")

    @property
    def spacing(self) -> float:
        return self.alpha / math.sqrt(self.n)

    def _points(self, k):
        return k * self.spacing

    def _floor(self, t):
        return self._repaired(_int_index(np.floor(t / self.spacing)), t)


def _powers_of_two(k: np.ndarray) -> np.ndarray:
    """2^k for each index, inf beyond the floats."""
    with np.errstate(over="ignore"):
        return np.ldexp(1.0, k)


class DyadicInt(Net):
    """Powers of two {2^k}_{k >= 0} = {1, 2, 4, ...}."""

    k_min = 0

    def _points(self, k):
        return _powers_of_two(k)

    def _floor(self, t):
        # exact: frexp gives t = m * 2^e with m in [0.5, 1); below 1, -1
        return (np.frexp(np.maximum(t, 0.5))[1] - 1).astype(np.int64)


class DyadicReal(Net):
    """Powers of two over all integer exponents {2^k}_{k in Z}."""

    def _points(self, k):
        return _powers_of_two(k)

    def _floor(self, t):
        if not (t > 0.0).all():
            raise DomainError("dyadic net is only defined for positive reals")
        return (np.frexp(t)[1] - 1).astype(np.int64)


class Squares(Net):
    """Perfect squares {t^2}_{t >= 1} = {1, 4, 9, ...}."""

    k_min = 1

    def _points(self, k):
        k = k.astype(float)
        return k * k

    def _floor(self, t):
        # below 1 the repair ends at 0 or -1: both mean below the net
        return np.maximum(self._repaired(_int_index(np.floor(np.sqrt(np.maximum(t, 1.0)))), t), 0)


class Geometric(Net):
    """A geometric grid {ratio^k}_{k in Z}, ratio > 1, a float: the point
    of index k is exp(k log ratio), 0.0 below the floats and inf above
    them."""

    def __init__(self, ratio: float):
        if not 1.0 < ratio < math.inf:
            raise DomainError(f"ratio must be a finite number above 1 (got {ratio!r})")
        self.ratio = float(ratio)
        self._log_ratio = math.log(self.ratio)

    def _points(self, k):
        with np.errstate(under="ignore", over="ignore"):
            return np.exp(_int_index(k) * self._log_ratio)

    def _floor(self, t):
        if not (t > 0.0).all():
            raise DomainError("geometric net is only defined for positive reals")
        return self._repaired(_int_index(np.floor(np.log(t) / self._log_ratio)), t)


def _or_inf(value: Callable[[], float]) -> float:
    """value(), or inf where the float it gives overflows."""
    try:
        return value()
    except OverflowError:
        return math.inf


class BinomialSine(Net):
    """The finite success-probability grid sin^2(pi t / (2 L)) for
    integer t with 0 < t < L, L = floor(sqrt(n)).

    Strictly increasing in t and contained in (0, 1); the endpoints t = 0
    and t = L (which would give p = 0 and p = 1) are excluded.
    """

    def __init__(self, n: int):
        if n < 4:
            raise DomainError("the sine net needs n >= 4 (at least one point)")
        self.n = int(n)
        self.L = math.isqrt(self.n)
        self.k_min = 1
        self.k_max = self.L - 1
        self._table = np.array(
            [math.sin(math.pi * t / (2 * self.L)) ** 2 for t in range(1, self.L)])

    def _points(self, k):
        return self._table[k - 1]

    def _floor(self, t):
        return np.searchsorted(self._table, t, "right")

    def indices(self) -> range:
        return range(self.k_min, self.k_max + 1)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


class Estimator:
    """Maps statistic values to net indices.

    ``index(v)`` selects the net index of each statistic value v (one
    value or an array, the one-value rule, see Conventions above); the
    sample is reduced to its statistic before, by ``Family.estimator_g``.
    The cell of index k is the statistic-space preimage of the k-th net
    point: ``edges(ks)`` gives each cell's two ends, shape ks.shape +
    (2,), and a cell holds its right end when the class's
    ``right_closed`` is set and its left end otherwise.
    """

    net: Net
    right_closed: bool = False

    def __init__(self, net: Net):
        self.net = net

    def index(self, v):
        raise NotImplementedError

    def edges(self, ks) -> np.ndarray:
        raise NotImplementedError


class RoundToNet(Estimator):
    """Round the statistic to the nearest net point (ties upward): the
    cells run between the midpoints of neighbouring points, open above,
    and without end beyond the net's extreme points."""

    def index(self, v):
        return self.net.round_index(v)

    def edges(self, ks) -> np.ndarray:
        net, k = self.net, _index_array(ks)
        below, s, above = (net._points(net._clip(k + d)) for d in (-1, 0, 1))
        lo = np.where(k == net.k_min, -np.inf, _midpoint(below, s))
        hi = np.where(k == net.k_max, np.inf, _midpoint(s, above))
        return np.stack([lo, hi], axis=-1)


class CeilDyadic(Estimator):
    """Map x to 2^(ceil(log2 x)); on the integer net, 0 maps to 1.

    The cell of 2^j is (2^(j-1), 2^j]; on the integer net the smallest
    cell is everything up to 1, so {0, 1} on the support.  Values go
    unchecked: ``FamilyBundle.locate`` is the support check.
    """

    right_closed = True

    def __init__(self, net: DyadicInt | DyadicReal):
        if not isinstance(net, (DyadicInt, DyadicReal)):
            raise DomainError("ceil_dyadic requires a dyadic net")
        self.net = net
        self._integer = isinstance(net, DyadicInt)

    def index(self, v):
        v = np.asarray(v, dtype=float)
        # 2^(e-1) < v <= 2^e for v = m 2^e with m in (1/2, 1], so e - 1 at
        # a power of two; 0 on the integers selects 2^0 = 1, as 1 does
        m, e = np.frexp(np.maximum(v, 1.0) if self._integer else v)
        return _one((e - (m == 0.5)).astype(np.int64))

    def edges(self, ks) -> np.ndarray:
        k = _index_array(ks)
        lo = self.net._points(k - 1)
        if self._integer:
            lo = np.where(k == 0, -np.inf, lo)
        return np.stack([lo, self.net._points(k)], axis=-1)


TieRule = Literal["up", "even", "odd"]

#: each tie rule's choice on the neighbourhood of m + 1/2, as
#: m + a + b (m mod 2) for its (a, b) (m & 1 is m mod 2 for int64 m)
_TIES = {"up": (1, 0), "even": (0, 1), "odd": (1, -1)}


class REpsilon(Estimator):
    """Nearest-integer rounding, redefined on the epsilon-neighbourhoods
    of half-integers.

    Outside every interval [m + 1/2 - eps, m + 1/2 + eps) the map is plain
    nearest-integer rounding; on the neighbourhood of m + 1/2 it is the
    constant ``m`` or ``m + 1`` chosen by the tie rule: "up" (``m + 1``,
    the bundles' rule), "even" or "odd" (the even/odd split's halves).
    Half-open like the cells, so ``index`` and ``edges`` agree on every
    float (which end the neighbourhood holds is a null set under
    continuous laws).  Requires eps in (0, 1/5] (:func:`_epsilon`).
    """

    def __init__(self, epsilon: float, tie: TieRule = "up"):
        self.epsilon = _epsilon(epsilon)
        if tie not in _TIES:
            raise DomainError(f"unknown tie rule {tie!r}")
        self.net = IntegerLattice()
        self._tie = _TIES[tie]

    def _choice(self, m: np.ndarray) -> np.ndarray:
        """The integer the neighbourhood of m + 1/2 selects."""
        a, b = self._tie
        return m + a + b * (m & 1)

    def index(self, v):
        v = np.asarray(v, dtype=float)  # compared with the floats bounding the cells
        m = self.net._floor(v)  # half-integer m + 0.5 is the one in [m, m+1)
        eps = self.epsilon
        return _one(np.where(v < m + 0.5 - eps, m,
                             np.where(v < m + 0.5 + eps, self._choice(m), m + 1)))

    def edges(self, ks) -> np.ndarray:
        n, eps = _index_array(ks), self.epsilon
        left = np.where(self._choice(n - 1) == n, n - 0.5 - eps, n - 0.5 + eps)
        right = np.where(self._choice(n) == n, n + 0.5 + eps, n + 0.5 - eps)
        return np.stack([left, right], axis=-1)
