"""Expectations of periodic composites as Fourier series.

On a location law (one with ``StatLaw.charfn``), a composite f that
repeats with period P has E_theta[f] periodic in theta too, and by Poisson
summation it is a Fourier series in theta whose terms fall as the law's
characteristic function.  A few terms give E_theta at every theta, and a
scan of one period gives the sup over the whole parameter line, each with
a derived bound.  The verifier takes the interpolated factor from
:func:`periodic_sup`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Piecewise, StatLaw, _CDF_EPS, _UNIT_ROUNDOFF

__all__ = ["periodic_sup"]


#: theta points per period that :func:`periodic_sup` scans; their spacing
#: h sets the scan's charge L2 h^2 / 8
_SCAN_POINTS = 4096


def _fourier_terms(pw: Piecewise, law: StatLaw) -> tuple[np.ndarray, np.ndarray, float]:
    """E_theta of a periodic piecewise f (period P) on a location law as a
    Fourier series, by Poisson summation (Feller, *An Introduction to
    Probability Theory and Its Applications*, Vol. II, ch. XIX):
    E_theta = sum over all integers m of c_m phi(w_m) e^(i w_m theta), with
    w_m = 2 pi m / P, phi = ``law.charfn`` and c_m = (1/P) int over one
    period of f(v) e^(-i w_m v) dv, in closed form per affine piece.  phi
    is real and even and f real, so E_theta = Re(d_0 + 2 sum_{m=1}^M d_m
    e^(i w_m theta)) plus the terms beyond M, d_m = c_m phi(w_m).

    Returns w_m and d_m for m = 0..M, and a bound on the error of that
    sum at any theta in [0, P):
    - the terms beyond M: |c_m| <= sup|f|, so they are at most
      2 sup|f| sum_{m>M} phi(w_m), summed as a geometric series in
      phi(w_{M+2}) / phi(w_{M+1}), which bounds every later ratio
      (``StatLaw.charfn``).  M is the fewest terms that bring this under
      u sup|f|, u the unit roundoff;
    - rounding: every term of a c_m or of the sum is a product of rounded
      factors and of one exp, cos or sin, whose argument is at most
      Phi = w_M (max|edge| + P) and is rounded within Phi u; with K the
      longest chain of sums, each computed term is off by at most
      (Phi + K) _CDF_EPS times its magnitude, and |c_m| <= A_m, the
      magnitudes summed into it.
    """
    P = float(pw.period)
    lo, hi = pw.edges[:-1], pw.edges[1:]
    L, R = pw.a + pw.b * lo, pw.a + pw.b * hi  # each piece's values at its ends
    sup_f = float(np.max(np.abs(np.concatenate([L, R]))))
    w1, M, tail = 2.0 * math.pi / P, 0, math.inf
    while tail > _UNIT_ROUNDOFF * sup_f:  # phi decays, so this ends
        M += 1
        p1, p2 = law.charfn(np.array([M + 1.0, M + 2.0]) * w1)
        tail = 2.0 * sup_f * p1 / (1.0 - p2 / p1) if p1 > 0.0 else 0.0
    w = w1 * np.arange(M + 1.0)
    wm = w[1:, None]

    def anti(v, fv):  # an antiderivative of (a + b v) e^(-i w v), at v
        cos, sin, p, q = np.cos(wm * v), np.sin(wm * v), pw.b / (wm * wm), fv / wm
        return np.stack([cos * p + sin * q, cos * q - sin * p])

    size, width = np.abs(L) + np.abs(R), hi - lo
    re, im = (anti(hi, R) - anti(lo, L)).sum(axis=2)
    c = np.concatenate([[np.dot(L + R, width) / 2.0], re + 1j * im]) / P
    A = np.concatenate([[np.dot(size, width) / 2.0],
                        (size / wm + 2.0 * np.abs(pw.b) / (wm * wm)).sum(axis=1)]) / P
    phi = np.concatenate([[1.0], law.charfn(w[1:])])
    Phi = w[-1] * (float(np.max(np.abs(pw.edges))) + P)
    K = 2.0 * len(pw.a) + 2.0 * M + 6.0
    rounding = (Phi + K) * _CDF_EPS * (A[0] + 2.0 * float(np.dot(phi[1:], A[1:])))
    return w, c * phi, float(tail + rounding)


def _series_at(w: np.ndarray, d: np.ndarray, theta) -> np.ndarray:
    """Re(d_0 + 2 sum_{m>=1} d_m e^(i w_m theta)) at each theta."""
    x = np.multiply.outer(np.asarray(theta, dtype=float), w[1:])
    return d[0].real + 2.0 * np.sum(d[1:].real * np.cos(x) - d[1:].imag * np.sin(x), axis=-1)


def periodic_sup(pw: Piecewise, law: StatLaw) -> tuple[float, float]:
    """sup over every real theta of E_theta[f], f a periodic piecewise on
    a location law, and a bound on its error: the largest value of the
    Fourier series (:func:`_fourier_terms`) on ``_SCAN_POINTS`` thetas
    spaced h over one period, plus the series' bound and the scan's
    charge.  The series S is smooth and periodic, so at its maximum
    S' = 0, and the nearest scanned theta, at most h/2 away, is within
    L2 h^2 / 8 of it, L2 >= sup |S''| = 2 sum w_m^2 |d_m|; the computed
    d_m are off by at most the series' bound in all, so L2 adds
    w_M^2 times that bound."""
    w, d, bound = _fourier_terms(pw, law)
    h = pw.period / _SCAN_POINTS
    values = _series_at(w, d, h * np.arange(_SCAN_POINTS))
    L2 = 2.0 * float(np.dot(w * w, np.abs(d))) + w[-1] ** 2 * bound
    return float(values.max()), bound + L2 * h * h / 8.0
