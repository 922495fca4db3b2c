"""The Fourier series of a periodic composite's expectation and its sup
over every theta."""

import mpmath as mp
import numpy as np
import pytest

from evarify.core import DomainError, Piecewise
from evarify.families import make_bundle
from evarify.fourier import _fourier_terms, _series_at, periodic_sup
from evarify.verifier import (
    _piecewise_expectations,
    certify_interpolated_factor,
    default_theta_grid,
    expectation,
    interpolated_spike_composite,
)


class TestFourierSeries:
    """E_theta of the periodic interpolated composite as the Fourier
    series sum_m c_m phi(2 pi m) e^(2 pi i m theta), and its sup over
    every theta."""

    CASES = [(name, eps) for name in ("normal_mean", "cauchy") for eps in (0.05, 0.1, 0.2)]

    @staticmethod
    def _terms(name, eps, C=1.0):
        b = make_bundle(name, epsilon=0.2)
        pw = interpolated_spike_composite(b, eps, C).piecewise
        return b, pw, _fourier_terms(pw, b.family.law)

    @staticmethod
    def _jumpy(seed, period):
        """A periodic piecewise with random jumps and slopes, not
        symmetric: the interpolated composite is continuous and even, so
        its values at the edges cancel out of c_m and its sup sits on a
        scanned theta."""
        rng = np.random.default_rng(seed)
        inner = np.sort(rng.uniform(0.0, period, 4))
        edges = np.concatenate([[0.0], inner, [period]]) - 0.3
        return Piecewise(edges, rng.uniform(0.5, 3.0, 5), rng.uniform(-2.0, 2.0, 5), 0.0,
                         period=period)

    JUMPY = [(name, seed, period) for name in ("normal_mean", "cauchy")
             for seed, period in ((1, 1.0), (2, 2.5), (3, 0.75))]

    @pytest.mark.parametrize("name,eps", CASES)
    def test_coefficients_against_mpmath(self, name, eps):
        """Oracle: c_m = int over one period of f(v) e^(-2 pi i m v) dv by
        mpmath.quad at 30 digits, piece by piece, from the same float
        pieces; d_m = c_m phi(2 pi m) within the series' bound."""
        b, pw, _ = self._terms(name, eps)
        self._check_coefficients(b.family.law, pw)

    @pytest.mark.parametrize("name,seed,period", JUMPY)
    def test_coefficients_of_jumps_against_mpmath(self, name, seed, period):
        law = make_bundle(name, epsilon=0.2).family.law
        self._check_coefficients(law, self._jumpy(seed, period))

    @staticmethod
    def _check_coefficients(law, pw):
        w, d, bound = _fourier_terms(pw, law)
        phi = law.charfn(w)
        with mp.workdps(30):
            for m, wm in enumerate(w):
                want = mp.mpc(0)
                for lo, hi, a, slope in zip(pw.edges[:-1], pw.edges[1:], pw.a, pw.b):
                    want += mp.quad(lambda v: (mp.mpf(a) + mp.mpf(slope) * v)
                                    * mp.expj(-mp.mpf(wm) * v), [mp.mpf(lo), mp.mpf(hi)])
                want /= pw.period
                c = complex(d[m]) / phi[m]
                assert abs(c - complex(want)) <= 1e-12, (m, c, want)
                assert abs(complex(d[m]) - complex(want) * phi[m]) <= bound, m

    @pytest.mark.parametrize("name,eps", CASES)
    def test_series_agrees_with_the_window_engine_on_the_default_grid(self, name, eps):
        b, pw, (w, d, bound) = self._terms(name, eps)
        comp = interpolated_spike_composite(b, eps, 1.0)
        for theta in default_theta_grid(b):
            row = expectation(comp, theta)
            gap = abs(float(_series_at(w, d, theta)) - row.estimate)
            assert gap <= row.error_bound + bound, (theta, gap, row)

    @pytest.mark.parametrize("name,seed,period", JUMPY)
    def test_series_of_jumps_agrees_with_the_window_engine(self, name, seed, period):
        """Oracle: the closed-form engine's copies over the law's window
        (on the normal its bound is near 1e-12)."""
        law = make_bundle(name, epsilon=0.2).family.law
        pw = self._jumpy(seed, period)
        w, d, bound = _fourier_terms(pw, law)
        for theta in (0.0, 0.1234, -7.7, 0.5 * period, 250.3):
            row = _piecewise_expectations(pw, law, 1e-12, [theta])[0]
            gap = abs(float(_series_at(w, d, theta)) - row.estimate)
            assert gap <= row.error_bound + bound, (theta, gap, row)

    @pytest.mark.parametrize("name,seed,period", JUMPY)
    def test_sup_of_jumps_covers_its_refined_maximum(self, name, seed, period):
        """The series' maximum lies between scanned thetas here: 20,001
        thetas within one scan step of the best scanned one find it, and
        it lies within the scan's charge of the sup."""
        law = make_bundle(name, epsilon=0.2).family.law
        pw = self._jumpy(seed, period)
        w, d, _ = _fourier_terms(pw, law)
        sup, bound = periodic_sup(pw, law)
        h = period / 4096
        scan = h * np.arange(4096)
        best = scan[np.argmax(_series_at(w, d, scan))]
        top = _series_at(w, d, best + np.linspace(-h, h, 20_001)).max()
        assert sup - bound <= top <= sup + bound

    @pytest.mark.parametrize("name,eps", CASES)
    def test_sup_plus_bound_covers_every_theta(self, name, eps):
        """10^4 random thetas over 2,000 periods, and the scan's points
        with their float neighbours and midpoints: the series never
        exceeds sup + bound, and comes within the bound of the sup."""
        b, pw, (w, d, _) = self._terms(name, eps)
        sup, bound = periodic_sup(pw, b.family.law)
        scan = np.arange(4096) / 4096
        thetas = np.concatenate([np.random.default_rng(17).uniform(-1000.0, 1000.0, 10_000),
                                 scan, np.nextafter(scan, 1.0), scan + 0.5 / 4096])
        values = _series_at(w, d, thetas)
        assert values.max() <= sup + bound
        assert values.max() >= sup - bound

    def test_few_terms_and_a_small_positive_bound(self):
        """Cauchy needs a few terms (phi(2 pi m) = e^(-2 pi m)), the
        normal (phi(2 pi m) = e^(-2 pi^2 m^2)) one or two; the series'
        bound is positive and at rounding level."""
        (_, _, (w_c, _, bound_c)), (_, _, (w_n, _, _)) = (
            self._terms("cauchy", 0.05), self._terms("normal_mean", 0.05))
        assert 3 <= len(w_c) - 1 <= 10 and len(w_n) - 1 <= 2
        assert 0.0 < bound_c < 1e-12

    def test_shipped_factor_holds_where_the_grid_search_did_not(self):
        """At the shipped C every epsilon's sup over all theta is at most
        C; the grid search's C = 3.3031923 on Cauchy fell below the
        epsilon = 0.05 sup."""
        b = make_bundle("cauchy", epsilon=0.2)
        C, per_eps = certify_interpolated_factor(b)
        assert all((sup + bound) / C <= 1.0 for sup, bound in per_eps.values())
        assert per_eps[0.05][0] / 3.3031923 > 1.0

    def test_a_law_without_charfn_is_rejected(self):
        """The factor's composite is built from unit-cell spikes, which
        exist only on the laws that carry ``moment`` and so ``charfn``."""
        with pytest.raises(DomainError, match="interpolation is certified"):
            certify_interpolated_factor(make_bundle("normal_mean", n=16, alpha=1.0))

    def test_no_epsilon_is_rejected(self):
        with pytest.raises(DomainError, match="epsilons"):
            certify_interpolated_factor(make_bundle("cauchy", epsilon=0.2), epsilons=())
        with pytest.raises(DomainError, match="epsilon"):
            certify_interpolated_factor(make_bundle("cauchy", epsilon=0.2), epsilons=(0.3,))
