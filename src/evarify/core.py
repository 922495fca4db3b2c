"""Core machinery for net-based composite e-variables.

An e-variable for a hypothesis (a set of distributions) is a non-negative
statistic whose expectation is at most 1 under every distribution in the
hypothesis.  This module holds the parameter-space machinery used to turn
per-parameter e-variables into an e-variable for a whole one-parameter
family:

* one-parameter ``Family`` bundles (log-density, divergence, pointwise
  estimate of the parameter indicated by a sample),
* countable parameter ``Net`` grids with predecessor / successor / rounding
  access,
* ``Estimator`` maps from samples to net points, with explicit cell
  geometry in statistic space,
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

Rounding to a net breaks ties upward (toward the successor).  Predecessor
and successor are strict: ``pred(t) < t < succ(t)``; ``None`` signals that
``t`` lies beyond the net's extreme elements.

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
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
    "Cell",
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


# ---------------------------------------------------------------------------
# Parameter spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A (possibly open, possibly integer-restricted) real interval."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True
    integer: bool = False

    def contains(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        if self.integer and value != int(value):
            return False
        if value < self.lo or (self.lo_open and value == self.lo):
            return False
        if value > self.hi or (self.hi_open and value == self.hi):
            return False
        return True

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
    samples, (m, n) for n-vectors.  ``statistic_is_sample`` says g(x) = x.

    Location families with unit scale also carry ``moment(theta, v)``,
    returning the CDF and the partial-first-moment antiderivative
    G(v) = int^v t p_theta(t) dt.
    """

    discrete: bool
    cdf: Callable[[object, object], np.ndarray]
    sf: Callable[[object, object], np.ndarray]
    ppf: Callable[[object, object], np.ndarray]
    sample: Callable[[float, int, np.random.Generator], np.ndarray]
    lo: float = -math.inf
    hi: float = math.inf
    statistic_is_sample: bool = True
    #: heavy tails: the window is theta +/- cap instead of quantiles
    cap: float | None = None
    #: smallest lower quantile level a window uses (keeps it off g = 0)
    tail_floor: float = 0.0
    moment: Callable[[float, np.ndarray], tuple] | None = None

    def window(self, theta: float, tail: float) -> tuple[float, float]:
        """Statistic interval [lo, hi] (support points, for discrete laws)
        holding all but ``tail`` of the mass under theta -- or all but what
        lies beyond the heavy-tail cap -- clamped to the support."""
        if self.cap is not None:
            lo, hi = theta - self.cap, theta + self.cap
        else:
            q = np.array([max(tail / 2.0, self.tail_floor), 1.0 - tail / 2.0])
            lo, hi = (float(v) for v in self.ppf(theta, q))
        return min(max(lo, self.lo), self.hi), min(max(hi, self.lo), self.hi)


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
    unused): the copy of piece i shifted by j p is a[i] + b[i] (v - j p)."""

    edges: np.ndarray
    a: np.ndarray
    b: np.ndarray
    outside: float
    right_closed: bool = False
    period: float | None = None

    @classmethod
    def constant(cls, value: float) -> "Piecewise":
        return cls(np.empty(0), np.empty(0), np.empty(0), float(value))

    def __call__(self, v: float) -> float:
        if self.period is not None:  # into the first period (floor may round)
            p, e0 = self.period, self.edges.item(0)
            v -= p * math.floor((v - e0) / p)
            v += p if v < e0 else -p if v >= self.edges.item(-1) else 0.0
        i = int(self.edges.searchsorted(v, "left" if self.right_closed else "right")) - 1
        return self.a.item(i) + self.b.item(i) * v if 0 <= i < len(self.a) else self.outside

    @property
    def sup(self) -> float:
        """The largest value taken (an affine piece peaks at an edge)."""
        ends = [self.a + self.b * self.edges[:-1], self.a + self.b * self.edges[1:]]
        values = [float(e.max()) for e in ends if len(e)]
        return max(values if self.period else [self.outside, *values])


@dataclass(frozen=True)
class Family:
    """A one-parameter family: log-density, divergence, pointwise
    parameter estimate and the law of that estimate's statistic.

    ``log_density(theta, x)`` accepts a scalar or an array of samples (for
    product families, the last axis is the coordinate axis) and returns
    log p_theta(x), with ``-inf`` off the support.  ``divergence_fn`` is
    numpy-aware in both arguments and must satisfy d(t, t) = 0, d >= 0.
    ``estimator_g`` maps a sample to the parameter value it indicates
    (mean, rate, squared norm over n, ...), possibly on the closure of the
    parameter space; ``lift(v)`` is a sample x with ``estimator_g(x) == v``
    (the checker's way onto the statistic axis); ``law`` is the
    distribution of g(X).
    """

    name: str
    param_space: Interval
    sample_dim: int
    log_density: Callable[[float, object], object]
    divergence_fn: Callable[[object, object], object]
    estimator_g: Callable[[object], float]
    lift: Callable[[float], object]
    law: StatLaw

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
    return float(family.divergence_fn(t1, t2))


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
        if self.c_prime < 0 or not math.isfinite(self.c_prime):
            raise DomainError("c_prime must be finite and >= 0")
        if self.alpha is not None and self.alpha <= 0:
            raise DomainError("alpha must be > 0")
        if self.c is not None and self.c <= 0:
            raise DomainError("c must be > 0")


def factor_from_growth(c_prime: float, alpha: float) -> float:
    """Normalizing factor exp(c') * (7 + 2/alpha).

    Valid whenever the divergence at distance k net points grows at least
    like (1 + alpha) * log(k - 1) in both directions and each cell stays
    within divergence c' of its net point.  Strictly decreasing in alpha
    and strictly increasing in c'.
    """
    if not alpha > 0:
        raise DomainError("alpha must be > 0")
    if c_prime < 0:
        raise DomainError("c_prime must be >= 0")
    return math.exp(c_prime) * (7.0 + 2.0 / alpha)


def factor_from_steps(c_prime: float, c: float) -> float:
    """Normalizing factor exp(c') * (5 + 2 / (e^c - 1)).

    Valid when consecutive net points are separated by divergence more
    than c in both directions and the divergence satisfies the reverse
    triangle inequality along monotone triples.
    """
    if not c > 0:
        raise DomainError("c must be > 0")
    if c_prime < 0:
        raise DomainError("c_prime must be >= 0")
    return math.exp(c_prime) * (5.0 + 2.0 / math.expm1(c))


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
        out = kappa * np.power(arr, kappa - 1.0)
    if arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Nets
# ---------------------------------------------------------------------------


class Net:
    """An ordered countable parameter grid.

    Subclasses define ``point(k)`` (strictly increasing in the index k)
    and ``_floor_index(t)`` (the largest k with point(k) <= t, or None
    when t lies below the smallest element).  Index bounds ``k_min`` /
    ``k_max`` are ``None`` when the net is unbounded on that side.
    """

    kind: str = "abstract"
    k_min: int | None = None
    k_max: int | None = None

    def point(self, k: int) -> float:
        raise NotImplementedError

    def _floor_index(self, t: float) -> int | None:
        raise NotImplementedError

    # -- derived access ----------------------------------------------------

    def pred_index(self, t: float) -> int | None:
        """Index of max{s in S : s < t}, or None."""
        k = self._floor_index(t)
        if k is None:
            return None
        if self.point(k) == t:
            k -= 1
        if self.k_min is not None and k < self.k_min:
            return None
        return k

    def succ_index(self, t: float) -> int | None:
        """Index of min{s in S : t < s}, or None."""
        k = self._floor_index(t)
        k = (self.k_min if self.k_min is not None else 0) - 1 if k is None else k
        k += 1
        if self.k_max is not None and k > self.k_max:
            return None
        return k

    def pred(self, t: float) -> float | None:
        k = self.pred_index(t)
        return None if k is None else self.point(k)

    def succ(self, t: float) -> float | None:
        k = self.succ_index(t)
        return None if k is None else self.point(k)

    def round_index(self, t: float) -> int:
        """Index of the nearest net element; ties (at the float midpoint,
        the edge of :meth:`RoundToNet.cell`) go to the successor."""
        lo_k = self._floor_index(t)
        if lo_k is None:
            k = self.k_min
            if k is None:  # pragma: no cover - all nets unbounded below have points everywhere
                raise DomainError("no net element below or at t on an unbounded net")
            return k
        hi_k = lo_k + 1
        if self.k_max is not None and hi_k > self.k_max:
            return lo_k
        return lo_k if t < 0.5 * (self.point(lo_k) + self.point(hi_k)) else hi_k

    def round(self, t: float) -> float:
        return self.point(self.round_index(t))

    def count_between(self, a: float, b: float) -> int:
        """|S intersect (a, b)| for the open interval, 0 when a >= b."""
        if not a < b:
            return 0
        ka = self.succ_index(a)
        if ka is None:
            return 0
        kb = self.pred_index(b)
        if kb is None:
            return 0
        return max(0, kb - ka + 1)


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

    kind = "integer_lattice"

    def point(self, k: int) -> float:
        return float(k)

    def _floor_index(self, t: float) -> int | None:
        return math.floor(t)


@dataclass(frozen=True)
class ScaledLattice(Net):
    """The lattice (alpha / sqrt(n)) * Z."""

    alpha: float
    n: int
    kind: str = "scaled_lattice"

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise DomainError("alpha must be > 0")
        if self.n < 1:
            raise DomainError("n must be a positive integer")

    @property
    def spacing(self) -> float:
        return self.alpha / math.sqrt(self.n)

    def point(self, k: int) -> float:
        return k * self.spacing

    def _floor_index(self, t: float) -> int | None:
        h = self.spacing
        k = math.floor(t / h)
        # float slop: repair so that point(k) <= t < point(k + 1)
        while self.point(k) > t:
            k -= 1
        while self.point(k + 1) <= t:
            k += 1
        return k


class DyadicInt(Net):
    """Powers of two {2^k}_{k >= 0} = {1, 2, 4, ...}."""

    kind = "dyadic_int"
    k_min = 0

    def point(self, k: int) -> float:
        return float(2.0 ** k)

    def _floor_index(self, t: float) -> int | None:
        if t < 1.0:
            return None
        # exact: frexp gives t = m * 2^e with m in [0.5, 1)
        _, e = math.frexp(t)
        return e - 1


class DyadicReal(Net):
    """Powers of two over all integer exponents {2^k}_{k in Z}."""

    kind = "dyadic_real"

    def point(self, k: int) -> float:
        return float(2.0 ** k)

    def _floor_index(self, t: float) -> int | None:
        if t <= 0.0:
            raise DomainError("dyadic net is only defined for positive reals")
        _, e = math.frexp(t)
        return e - 1


class Squares(Net):
    """Perfect squares {t^2}_{t >= 1} = {1, 4, 9, ...}."""

    kind = "squares"
    k_min = 1

    def point(self, k: int) -> float:
        return float(k * k)

    def _floor_index(self, t: float) -> int | None:
        if t < 1.0:
            return None
        k = math.isqrt(int(t))
        while k * k > t:
            k -= 1
        while (k + 1) * (k + 1) <= t:
            k += 1
        return k


class Geometric(Net):
    """A geometric grid {ratio^k}_{k in Z}, ratio > 1.

    When the ratio is rational (e.g. 1 + 1/sqrt(n) with square n) the
    points are computed by exact rational exponentiation and rounded once
    to float, so long index windows do not accumulate rounding error.
    """

    kind = "geometric"

    def __init__(self, ratio: float, exact_ratio: Fraction | None = None):
        if ratio <= 1.0:
            raise DomainError("ratio must exceed 1")
        self.ratio = float(ratio)
        self._exact = exact_ratio
        self._log_ratio = math.log(ratio)
        self._cache: dict[int, float] = {}

    def point(self, k: int) -> float:
        cached = self._cache.get(k)
        if cached is not None:
            return cached
        if self._exact is not None:
            value = float(self._exact ** k)
        else:
            value = math.exp(k * self._log_ratio)
        self._cache[k] = value
        return value

    def _floor_index(self, t: float) -> int | None:
        if t <= 0.0:
            raise DomainError("geometric net is only defined for positive reals")
        k = math.floor(math.log(t) / self._log_ratio)
        while self.point(k) > t:
            k -= 1
        while self.point(k + 1) <= t:
            k += 1
        return k


class BinomialSine(Net):
    """The finite success-probability grid sin^2(pi t / (2 L)) for
    integer t with 0 < t < L, L = floor(sqrt(n)).

    Strictly increasing in t and contained in (0, 1); the endpoints t = 0
    and t = L (which would give p = 0 and p = 1) are excluded.
    """

    kind = "binomial_sine"

    def __init__(self, n: int):
        if n < 4:
            raise DomainError("the sine net needs n >= 4 (at least one point)")
        self.n = int(n)
        self.L = math.isqrt(self.n)
        self.k_min = 1
        self.k_max = self.L - 1
        self._points = [
            math.sin(math.pi * t / (2 * self.L)) ** 2 for t in range(1, self.L)
        ]

    def point(self, k: int) -> float:
        return self._points[k - 1]

    def _floor_index(self, t: float) -> int | None:
        if t < self._points[0]:
            return None
        # bisect over the cached, strictly increasing point list
        i = bisect_left(self._points, t)
        if i < len(self._points) and self._points[i] == t:
            return i + 1
        return i  # points[i-1] < t, 1-based index i

    def indices(self) -> range:
        return range(self.k_min, self.k_max + 1)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One estimator cell in statistic space: the interval of statistic
    values mapped to a given net point."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def contains(self, v: float) -> bool:
        if v < self.lo or (not self.lo_closed and v == self.lo):
            return False
        if v > self.hi or (not self.hi_closed and v == self.hi):
            return False
        return True

    def clip(self, lo: float, hi: float) -> "Cell":
        """Intersect with the closed interval [lo, hi]."""
        new_lo, new_lo_closed = self.lo, self.lo_closed
        if lo > new_lo:
            new_lo, new_lo_closed = lo, True
        new_hi, new_hi_closed = self.hi, self.hi_closed
        if hi < new_hi:
            new_hi, new_hi_closed = hi, True
        return Cell(new_lo, new_hi, new_lo_closed, new_hi_closed)

    def integer_range(self) -> tuple[int, int]:
        """Smallest/largest integers inside the cell (inclusive); the cell
        must be bounded (clip against the support first)."""
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("integer_range needs a bounded cell")
        lo = math.ceil(self.lo)
        if lo == self.lo and not self.lo_closed:
            lo += 1
        hi = math.floor(self.hi)
        if hi == self.hi and not self.hi_closed:
            hi -= 1
        return int(lo), int(hi)


class Estimator:
    """Maps a sample to a net point through a scalar statistic.

    ``statistic(x)`` reduces the sample; ``index(x)`` selects the net
    index; calling the estimator returns the selected net point.  The cell
    of index k is the statistic-space preimage of the k-th net point.
    """

    kind: str = "abstract"
    net: Net

    def statistic(self, x) -> float:
        raise NotImplementedError

    def index(self, x) -> int:
        raise NotImplementedError

    def __call__(self, x) -> float:
        return self.net.point(self.index(x))

    def statistic_index(self, v: float) -> int:
        """The net index selected by statistic value v (the same as
        ``index`` where the statistic is the sample itself)."""
        return self.index(v)

    def cell(self, k: int) -> Cell:
        raise NotImplementedError


class RoundToNet(Estimator):
    """Round the statistic to the nearest net point (ties upward)."""

    kind = "round_to_net"

    def __init__(self, net: Net, statistic: Callable[[object], float] | None = None):
        self.net = net
        self._statistic = statistic

    def statistic(self, x) -> float:
        if self._statistic is None:
            return float(x)
        return float(self._statistic(x))

    def index(self, x) -> int:
        return self.net.round_index(self.statistic(x))

    def statistic_index(self, v: float) -> int:
        return self.net.round_index(v)

    def cell(self, k: int) -> Cell:
        net = self.net
        s = net.point(k)
        if net.k_min is not None and k == net.k_min:
            lo, lo_closed = -math.inf, False
        else:
            lo, lo_closed = 0.5 * (net.point(k - 1) + s), True
        if net.k_max is not None and k == net.k_max:
            hi, hi_closed = math.inf, False
        else:
            hi, hi_closed = 0.5 * (s + net.point(k + 1)), False
        return Cell(lo, hi, lo_closed, hi_closed)


class CeilDyadic(Estimator):
    """Map x to 2^(ceil(log2 x)); on the integer net, 0 maps to 1.

    The cell of 2^j is (2^(j-1), 2^j]; on the integer net the smallest
    cell is {0, 1}.
    """

    kind = "ceil_dyadic"

    def __init__(self, net: DyadicInt | DyadicReal):
        if not isinstance(net, (DyadicInt, DyadicReal)):
            raise DomainError("ceil_dyadic requires a dyadic net")
        self.net = net
        self._integer = isinstance(net, DyadicInt)

    def statistic(self, x) -> float:
        return float(x)

    def index(self, x) -> int:
        v = self.statistic(x)
        if self._integer:
            if v < 0 or v != int(v):
                raise DomainError(f"{v!r} is not a non-negative integer")
            iv = int(v)
            return (iv - 1).bit_length() if iv >= 1 else 0
        if v <= 0.0:
            raise DomainError("ceil_dyadic on reals needs x > 0")
        m, e = math.frexp(v)
        return e - 1 if m == 0.5 else e

    def cell(self, k: int) -> Cell:
        if self._integer and k == 0:
            return Cell(0.0, 1.0, True, True)
        return Cell(self.net.point(k - 1), self.net.point(k), False, True)


TieRule = Literal["up", "down", "even", "odd"]


class REpsilon(Estimator):
    """Nearest-integer rounding, redefined on the epsilon-neighbourhoods
    of half-integers.

    Outside every interval [m + 1/2 - eps, m + 1/2 + eps) the map is plain
    nearest-integer rounding; on the neighbourhood of m + 1/2 it is the
    constant ``m`` or ``m + 1`` chosen by the tie rule ("up", "down",
    "even", "odd", or a callable m -> chosen integer).  Half-open like the
    cells, so ``index`` and ``cell`` agree on every float (which end the
    neighbourhood holds is a null set under continuous laws).  Requires
    eps <= 1/5 so neighbouring choices cannot interact.
    """

    kind = "r_epsilon"

    def __init__(self, epsilon: float, tie: TieRule | Callable[[int], int] = "up",
                 net: IntegerLattice | None = None):
        if not 0.0 < epsilon <= 0.2:
            raise DomainError("epsilon must lie in (0, 1/5]")
        self.epsilon = float(epsilon)
        self.net = net if net is not None else IntegerLattice()
        if callable(tie):
            self._choice = tie
        elif tie == "up":
            self._choice = lambda m: m + 1
        elif tie == "down":
            self._choice = lambda m: m
        elif tie == "even":
            self._choice = lambda m: m if m % 2 == 0 else m + 1
        elif tie == "odd":
            self._choice = lambda m: m if m % 2 != 0 else m + 1
        else:
            raise DomainError(f"unknown tie rule {tie!r}")
        self.tie = tie if not callable(tie) else "custom"

    def statistic(self, x) -> float:
        return float(x)

    def index(self, x) -> int:
        v = self.statistic(x)  # compared with the floats bounding the cells
        m = math.floor(v)  # half-integer m + 0.5 is the one in [m, m+1)
        if v < m + 0.5 - self.epsilon:
            return int(m)
        return int(self._choice(m)) if v < m + 0.5 + self.epsilon else int(m) + 1

    def cell(self, n: int) -> Cell:
        eps = self.epsilon
        left = n - 0.5 - eps if self._choice(n - 1) == n else n - 0.5 + eps
        right = n + 0.5 + eps if self._choice(n) == n else n + 0.5 - eps
        return Cell(left, right, True, False)
