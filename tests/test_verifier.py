"""Expectation engines, spike suites, sweeps, and counterexamples."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from evarify.combinator import (
    CompositeEVariable,
    EVariable,
    _many,
    bump_weight,
    combine_discrete,
    combine_interpolated,
    components_from_specs,
    constant_evar,
    interpolated_spike_composite,
    likelihood_ratio_evar,
    spike_evar,
    spike_suite,
    unit_cell_spikes,
)
from evarify.core import DomainError, Piecewise
from evarify.families import make_bundle
from evarify.verifier import (
    ExpectationPlan,
    certify_interpolated_factor,
    default_theta_grid,
    expectation,
    mle_counterexample_poisson,
    mle_counterexample_poisson_with_bound,
    spike_composite,
    sweep,
    uniform_ceiling_budget,
    uniform_ceiling_budget_max,
)
from evarify.verifier import (
    _MC_BLOCK,
    _QUAD_ROUNDS,
    _QUAD_TOL,
    _gauss_legendre,
    _default_level,
    _json_bytes,
    _keyed_cells,
    _rng_for,
    _statistic_knots,
    _tail_charge,
    _window_quadrature,
)


class TestExpectation:
    def test_constant_one_normalizes(self):
        """E[1] = 1 checks that each family's density sums/integrates
        to 1 over the support."""
        for name, kw, theta in [
            ("poisson", {}, 25.0),
            ("binomial", {"n": 64}, 0.37),
            ("discrete_uniform", {}, 129.0),
            ("continuous_uniform", {}, 0.7),
            ("normal_mean", {"alpha": 1.0, "n": 4}, -2.3),
            ("normal_variance", {"n": 4}, 3.1),
            ("cauchy", {"epsilon": 0.2}, 11.0),
        ]:
            b = make_bundle(name, **kw)
            comp = combine_discrete(b, {}, factor_C=1.0)
            res = expectation(comp, theta)
            assert res.estimate == pytest.approx(1.0, abs=1e-6), name
            assert res.error_bound <= 1e-6

    def test_discrete_uniform_all_ones_with_factor(self):
        b = make_bundle("discrete_uniform")
        res = expectation(combine_discrete(b, {}), 7.0)
        assert res.estimate == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_spike_has_unit_mean_at_its_own_point(self):
        for name, kw, k in [
            ("poisson", {}, 3),
            ("discrete_uniform", {}, 3),
            ("binomial", {"n": 64}, 4),
            ("normal_mean", {"alpha": 1.0, "n": 1}, 0),
            ("normal_variance", {"n": 4}, 2),
            ("cauchy", {"epsilon": 0.2}, 0),
        ]:
            b = make_bundle(name, **kw)
            spike = spike_evar(b, k)
            res = expectation(spike, b.net.points(k), b)
            assert res.estimate == pytest.approx(1.0, abs=1e-7), name

    def test_poisson_inverse_own_probability(self):
        """Oracle: exact summation of exp(x) x! / x^x against the
        Poisson(25) mass; the asymptotic anchor is sqrt(2 pi 25)."""
        b = make_bundle("poisson")
        from evarify.combinator import EVariable

        def f(x):
            x = float(x)
            if x == 0.0:
                return 1.0
            return math.exp(x + math.lgamma(x + 1.0) - x * math.log(x))

        e = EVariable(fn=f, sup_bound=None)
        res = expectation(e, 25.0, b)
        assert res.estimate == pytest.approx(12.511828386727649, rel=1e-9)
        assert res.estimate == pytest.approx(math.sqrt(2 * math.pi * 25), rel=0.01)

    def test_infinite_values_on_positive_mass_reported(self):
        b = make_bundle("poisson")
        from evarify.combinator import EVariable

        e = EVariable(fn=lambda x: math.inf if x == 3 else 1.0)
        res = expectation(e, 3.0, b)
        assert res.estimate == math.inf

    def test_monte_carlo_matches_exact(self):
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        comp = spike_composite(b, [0.3])
        exact = expectation(comp, 0.3)
        mc = expectation(comp, 0.3, plan=ExpectationPlan(
            method="monte_carlo", mc_samples=40_000, seed=3))
        assert mc.method == "monte_carlo"
        # the suite composite is one-level here: its spread is rounding
        # noise, and the bound's rounding charge covers it
        assert abs(mc.estimate - exact.estimate) <= 4.0 * mc.error_bound

    def test_monte_carlo_deterministic_per_seed_and_index(self):
        b = make_bundle("cauchy", epsilon=0.2)
        comp = spike_composite(b, [0.0])
        plan = ExpectationPlan(method="monte_carlo", mc_samples=20_000, seed=11)
        r1 = expectation(comp, 0.0, plan=plan, theta_index=4)
        r2 = expectation(comp, 0.0, plan=plan, theta_index=4)
        r3 = expectation(comp, 0.0, plan=plan, theta_index=5)
        assert r1 == r2
        assert r1.estimate != r3.estimate

    def test_seeds_from_2_63_get_their_own_stream(self):
        """The Philox key is a uint64 array: seeds 2**63 and 2**63 + 1 (one
        float64 key when numpy read the key as a list) draw different
        numbers, and a seed below 2**63 draws what the list key drew."""
        a = _rng_for(2**63, 0).random(8)
        b = _rng_for(2**63 + 1, 0).random(8)
        assert not np.array_equal(a, b)
        for seed, index in [(12345, 0), (12345, 7), (2**63 - 1, 3)]:
            listed = np.random.Generator(np.random.Philox(key=[seed, index]))
            np.testing.assert_array_equal(_rng_for(seed, index).random(64), listed.random(64))

    def test_monte_carlo_ci_shrinks_with_samples(self):
        """Doubling the sample count must shrink the 99% CI half-width
        by about 1/sqrt(2), checked at three sizes, on a likelihood ratio:
        a spike composite on this net is one-level (at any C), its spread
        rounding noise."""
        b = make_bundle("normal_mean", alpha=1.0, n=1)
        lr = likelihood_ratio_evar(b.family, 0.2, 0.7)
        widths = []
        for i, m in enumerate((10_000, 20_000, 40_000)):
            plan = ExpectationPlan(method="monte_carlo", mc_samples=m, seed=7)
            widths.append(expectation(lr, 0.2, b, plan=plan, theta_index=i).error_bound)
        assert min(widths) > 1e-3
        for w_big, w_small in zip(widths, widths[1:]):
            assert 0.6 <= w_small / w_big <= 0.8

    def test_generic_quadrature_path(self):
        # a composite without a cellwise profile: generic piecewise quad
        b = make_bundle("cauchy", epsilon=0.2)
        from evarify.combinator import EVariable

        wavy = {0: EVariable(fn=lambda x: 1.0 + 0.5 * math.sin(float(x)),
                             sup_bound=1.5)}
        comp = combine_discrete(b, wavy, factor_C=2.0)
        assert comp.piecewise is None
        res = expectation(comp, 0.0)
        assert res.method == "quadrature"
        # sanity: between the all-halves and all-max composites
        assert 0.4 < res.estimate < 0.8

    def test_generic_quadrature_refuses_a_statistic_other_than_the_sample(self):
        """The quadrature window lives in statistic space; for x^2 it would
        miss every x < 0 (it returned 0.5 for this likelihood ratio)."""
        b = make_bundle("normal_variance", n=1)
        lr = likelihood_ratio_evar(b.family, 1.0, 1.3)
        with pytest.raises(DomainError, match="monte_carlo"):
            expectation(lr, 1.0, b)
        mc = expectation(lr, 1.0, b, ExpectationPlan(
            method="monte_carlo", mc_samples=50_000, seed=5))
        assert abs(mc.estimate - 1.0) <= mc.error_bound

    def test_monte_carlo_on_a_plain_component_with_one_observation(self):
        """Scalar Gaussian samples reach a plain callable as floats; the
        Monte Carlo value agrees with quadrature."""
        b = make_bundle("normal_mean", n=1)
        lr = likelihood_ratio_evar(b.family, 0.3, 0.8)
        quad = expectation(lr, 0.3, b)
        mc = expectation(lr, 0.3, b, ExpectationPlan(
            method="monte_carlo", mc_samples=50_000, seed=2))
        assert abs(mc.estimate - quad.estimate) <= mc.error_bound + quad.error_bound


#: the laws whose line is the sample, each at a theta of its own
SAMPLE_LINE_LAWS = [("poisson", {}, 30.25), ("binomial", {"n": 64}, 0.5),
                    ("discrete_uniform", {}, 129.0), ("continuous_uniform", {}, 0.7),
                    ("normal_mean", {"n": 1}, 0.3), ("cauchy", {"epsilon": 0.2}, 1.3)]


def _lr_calibrated_poisson():
    """The benchmark's generic Poisson composite: likelihood ratios on net
    indices 1 to 7, upper-tail calibrated p-values on 8 to 13."""
    b = make_bundle("poisson")
    specs = ([{"index": k, "type": "likelihood_ratio", "alternative": 1.2 * k * k + 0.5}
              for k in range(1, 8)]
             + [{"index": k, "type": "calibrated_p", "kappa": 0.5} for k in range(8, 14)])
    return b, combine_discrete(b, components_from_specs(specs, b))


class TestGenericExactSum:
    """A generic component on a discrete law is summed over the support
    points of the law's window, and 8 more above it."""

    @pytest.mark.parametrize("lam", [30.25, 1000.0, 1e5])
    def test_the_sum_starts_at_the_window_not_the_support(self, lam):
        """It once summed from the support's first point: at lambda = 1e5
        100,000 terms where the window holds about 4,500."""
        b = make_bundle("poisson")
        seen = []
        e = EVariable(fn=lambda x: seen.append(np.array(x)) or np.ones(len(x)), vectorized=True)
        assert expectation(e, lam, b).method == "exact_sum"
        lo, top = b.family.law.window(lam, 1e-12).tolist()
        xs = np.concatenate(seen)
        assert lo > 0 and xs.tolist() == np.arange(lo, top + 9.0).tolist()

    def test_a_window_beyond_2_22_terms_is_refused(self):
        """lambda = 1e11: about 4.5 million terms; the sum names theta and
        points to Monte Carlo, before any term is made."""
        b = make_bundle("poisson")
        e = EVariable(fn=lambda x: pytest.fail("evaluated"), vectorized=True)
        with pytest.raises(DomainError, match=r"theta = 100000000000\.0: .*2\*\*22.*monte_carlo"):
            expectation(e, 1e11, b)

    @pytest.mark.parametrize("lam", [30.25, 200.0, 1000.0])
    def test_within_its_bound_of_a_40_digit_sum_over_the_whole_support(self, lam):
        """The benchmark rows whose windows start above 0 (at 1, 108 and
        783): the truncated sum and its tail charge hold the exact
        expectation, summed at 40 digits from 0, the composite's values
        taken as computed (1/C beyond its components' cells)."""
        b, comp = _lr_calibrated_poisson()
        res = expectation(comp, lam)
        assert res.method == "exact_sum"
        xs = np.arange(0.0, lam + 50.0 * math.sqrt(lam) + 400.0)
        values, base = comp.eval_many(xs), 1.0 / comp.factor_C
        assert np.all(values[xs > 400.0] == base)
        with mp.workdps(40):
            lam_mp = mp.mpf(lam)
            oracle = mp.mpf(base) + mp.fsum(
                mp.exp(-lam_mp + x * mp.log(lam_mp) - mp.loggamma(x + 1)) * (mp.mpf(v) - base)
                for x, v in zip(xs.tolist(), values.tolist()) if v != base)
        assert abs(res.estimate - float(oracle)) <= res.error_bound


class TestMonteCarloDraws:
    """A piecewise is read at draws on the law's line; any other test gets
    sample vectors, drawn in blocks."""

    @pytest.mark.parametrize("name,kw,theta", SAMPLE_LINE_LAWS)
    def test_on_the_sample_line_the_located_samples_are_read(self, name, kw, theta):
        """Where the law's line is the sample, the estimate is the mean of
        the composite on the samples, bit for bit, and the bound is their
        CI half-width plus a rounding charge."""
        b = make_bundle(name, **kw)
        assert b.family.law.draw_statistic is None
        comp, m = spike_composite(b, [theta]), 30_000
        got = expectation(comp, theta, plan=ExpectationPlan(
            method="monte_carlo", mc_samples=m, seed=9), theta_index=2)
        values = comp.eval_many(b.family.law.sample(theta, m, _rng_for(9, 2)))
        assert got.estimate == float(np.mean(values))
        half_width = 2.576 * float(np.std(values, ddof=1)) / math.sqrt(m)
        assert half_width < got.error_bound <= half_width + 1e-10 * float(np.max(values))

    def test_a_generic_composite_gets_sample_vectors(self):
        """A component may read more of X than its mean.  This one reads
        the first coordinate, and every cell within 10 sd of the mean has
        it, so E = 2 P(X_0 > theta + 1/2) = 2 ndtr(-1/2) up to 1e-22; a
        route through draws of the mean cannot read X_0."""
        from scipy.special import ndtr

        b, theta = make_bundle("normal_mean", n=4), 0.3
        first = EVariable(fn=lambda x: 2.0 * (x[..., 0] > theta + 0.5), vectorized=True)
        comp = combine_discrete(b, {k: first for k in range(b.index(theta - 5.0),
                                                            b.index(theta + 5.0) + 1)}, 1.0)
        assert comp.piecewise is None
        mc = expectation(comp, theta, plan=ExpectationPlan(
            method="monte_carlo", mc_samples=50_000, seed=6))
        assert abs(mc.estimate - 2.0 * ndtr(-0.5)) <= mc.error_bound

    def test_sample_vectors_in_blocks_equal_one_draw(self):
        """Blocks of rows from one stream are the rows of one draw: the
        estimate of a likelihood-ratio composite over just more than one
        block is the mean over one unblocked draw, bit for bit."""
        b = make_bundle("normal_variance", n=4)
        lrs = {k: likelihood_ratio_evar(b.family, b.net.points(k), 1.3 * b.net.points(k))
               for k in range(-3, 4)}
        comp, m = combine_discrete(b, lrs, 1.0), _MC_BLOCK + 7
        got = expectation(comp, 1.0, plan=ExpectationPlan(
            method="monte_carlo", mc_samples=m, seed=4), theta_index=1)
        values = comp.eval_many(b.family.law.sample(1.0, m, _rng_for(4, 1)))
        assert got.estimate == float(np.mean(values))

    def test_statistic_draws_off_the_support_raise(self):
        """Statistic draws meet the check located samples meet: at the
        least positive variance some draws of x^2 round to 0, and the
        composite refuses them as it refuses such samples."""
        b = make_bundle("normal_variance", n=1)
        comp = spike_composite(b, [1.0])
        plan = ExpectationPlan(method="monte_carlo", mc_samples=1000)
        with pytest.raises(DomainError, match=r"lies in \(0, inf\) \(got 0.0\)"):
            expectation(comp, 5e-324, plan=plan)
        with pytest.raises(DomainError, match=r"\(got 0.0\)"):
            comp.eval_many(b.family.law.sample(5e-324, 1000, _rng_for(0, 0)))

    def test_statistic_draws_allocate_no_sample_vectors(self):
        """At the default 10^6 draws a piecewise on normal_variance n=64
        reads 8 MB of statistic draws, where sample vectors take 512 MB."""
        import tracemalloc

        b = make_bundle("normal_variance", n=64)
        comp = spike_composite(b, [1.0])
        tracemalloc.start()
        try:
            res = expectation(comp, 1.0, plan=ExpectationPlan(method="monte_carlo", seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.method == "monte_carlo"
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("name,kw,theta,m", [
        ("poisson", {}, 4.0, 20_000), ("poisson", {}, 200.0, 20_000),
        ("poisson", {}, 1e5, 20_000), ("binomial", {"n": 64}, 0.5, 20_000),
        ("binomial", {"n": 10**4}, 0.3, 20_000), ("discrete_uniform", {}, 129.0, 20_000),
        ("poisson", {}, 1e6, 64)])
    def test_a_discrete_law_reads_the_composite_once_per_support_point(
            self, monkeypatch, name, kw, theta, m):
        """Located draws that span at most m support points read the
        composite once, on those points, and each draw takes its point's
        value: the composite at the draws, bit for bit.  Draws that span
        more (Poisson at 10^6 with 64 samples span thousands) read it once
        at the draws themselves."""
        b = make_bundle(name, **kw)
        comp = spike_composite(b, [theta])
        x = b.locate(b.family.law.sample(theta, m, _rng_for(5, 3)))
        values, span = comp.piecewise(x), x.max() - x.min() + 1.0
        reads, call = [], Piecewise.__call__
        monkeypatch.setattr(Piecewise, "__call__",
                            lambda pw, v: reads.append((v, call(pw, v))) or reads[-1][1])
        got = expectation(comp, theta, plan=ExpectationPlan(
            method="monte_carlo", mc_samples=m, seed=5), theta_index=3)
        monkeypatch.undo()
        assert len(reads) == 1
        (at, table), = reads
        assert got.estimate == float(np.mean(values))
        if theta == 1e6:
            assert span > m and at.tolist() == x.tolist()
            return
        assert span <= m and at.tolist() == np.arange(x.min(), x.max() + 1.0).tolist()
        assert table[(x - at[0]).astype(int)].view(np.uint64).tolist() == \
            values.view(np.uint64).tolist()


class TestSpikes:
    def test_discrete_uniform_cell_and_level(self):
        b = make_bundle("discrete_uniform")
        spike = spike_evar(b, 3)  # net point 8, cell {5,...,8}
        assert spike.level == pytest.approx(9.0 / 4.0)
        assert spike(5) == spike(8) == spike.level
        assert spike(4) == 0.0

    def test_poisson_cell_probability(self):
        b = make_bundle("poisson")
        spike = spike_evar(b, 3)  # square 9, integers 7..12
        mass = stats.poisson.cdf(12, 9) - stats.poisson.cdf(6, 9)
        assert spike.level == pytest.approx(1.0 / mass, rel=1e-12)

    def test_normal_mean_cell_probability(self):
        """Oracle: error-function quadrature of the +/- spacing/2 cell
        around 0 for the unit lattice (n = 1, alpha = 1)."""
        b = make_bundle("normal_mean", alpha=1.0, n=1)
        spike = spike_evar(b, 0)
        mass = float(mp.erf(mp.mpf(1) / 2 / mp.sqrt(2)))
        assert spike.level == pytest.approx(1.0 / mass, rel=1e-12)
        assert spike.level == pytest.approx(2.611477971571779, rel=1e-12)

    def test_zero_probability_cell_raises(self):
        b = make_bundle("continuous_uniform")

        class _EmptyCellEstimator(type(b.estimator)):
            def edges(self, ks):
                return np.full((*np.shape(ks), 2), 5.0)

        bad = replace(b, estimator=_EmptyCellEstimator(b.net))
        with pytest.raises(DomainError, match="zero probability"):
            spike_evar(bad, 3)

    def test_suite_covers_requested_indices(self):
        b = make_bundle("poisson")
        suite = spike_suite(b, range(1, 9))
        assert sorted(suite) == list(range(1, 9))

    def test_binomial_levels_from_the_estimator_on_each_count(self):
        """Oracle: group the counts 0..49 by the estimator's index (float
        cell edges would misplace some: (1/49) * 49 < 1) and take each
        group's mass from scipy.stats."""
        n = 49
        b = make_bundle("binomial", n=n)
        index = [b.estimator.index(b.family.estimator_g(c)) for c in range(n + 1)]
        suite = spike_suite(b, b.net.indices())
        for k in b.net.indices():
            counts = [c for c in range(n + 1) if index[c] == k]
            p = b.net.points(k)
            mass = stats.binom.cdf(max(counts), n, p) - stats.binom.cdf(min(counts) - 1, n, p)
            assert suite[k].level == 1.0 / mass
            assert spike_evar(b, k).level == suite[k].level


#: The benchmark's nine family configurations plus the r^epsilon normal mean.
SELECTION_CONFIGS = [
    ("binomial", {"n": 64}),
    ("binomial", {"n": 10_000}),
    ("discrete_uniform", {}),
    ("poisson", {}),
    ("continuous_uniform", {}),
    ("normal_mean", {"n": 1}),
    ("normal_mean", {"n": 16}),
    ("normal_variance", {"n": 64}),
    ("cauchy", {"epsilon": 0.2}),
    ("normal_mean", {"epsilon": 0.2}),
]


class TestSpikeCompositeSelection:
    @pytest.mark.parametrize("name,kw", SELECTION_CONFIGS)
    def test_piecewise_selects_the_estimators_component(self, name, kw):
        """The composite's piecewise, read at a point of the law's line,
        equals the level of the component the estimator selects there
        over C (1/C without a component): at every cell edge and both its
        float neighbours, at the support points of the pieces for
        discrete laws, and at 1,000 samples.  The piecewise is read on all
        points in one call, and the composite at the samples both one at a
        time and as one batch.

        The discrete uniform's pieces hold 4.2 million support points;
        there the points within 3 of an edge (where the selection can
        change) and 10^5 seeded others are checked."""
        b = make_bundle(name, **kw)
        comp = spike_composite(b)
        pw, est, C, law = comp.piecewise, b.estimator, comp.factor_C, b.family.law
        levels = {k: ev.level / C for k, ev in comp.components.items()}

        def expected(k):
            return levels.get(k, 1.0 / C)

        if law.discrete:
            lo, hi = max(pw.edges[0], law.lo), min(pw.edges[-1] + 1.0, law.hi)
            xs = np.arange(lo, hi + 1.0)
            if len(xs) > 200_000:
                near = (pw.edges[:, None] + np.arange(-2.0, 4.0)).ravel()
                rng = np.random.default_rng(8)
                xs = np.union1d(near[(near >= lo) & (near <= hi)],
                                rng.integers(lo, hi, 100_000, endpoint=True))
            index = [est.index(b.family.estimator_g(float(x))) for x in xs]
        else:
            xs = np.concatenate([np.nextafter(pw.edges, -np.inf), pw.edges,
                                 np.nextafter(pw.edges, np.inf)])
            index = [est.index(float(v)) for v in xs]
        np.testing.assert_array_equal(pw(xs), [expected(k) for k in index])
        grid = default_theta_grid(b)
        draws = law.sample(grid[len(grid) // 2], 1000, np.random.default_rng(3))
        want = [expected(est.index(b.family.estimator_g(x))) for x in draws]
        assert [comp(x) for x in draws] == want
        np.testing.assert_array_equal(comp.eval_many(draws), want)


class TestSweep:
    def test_all_ones_passes_everywhere(self):
        for name, kw in [("poisson", {}), ("cauchy", {"epsilon": 0.2})]:
            b = make_bundle(name, **kw)
            rep = sweep(combine_discrete(b, {}))
            assert rep.passed
            assert rep.worst_value == pytest.approx(1.0 / b.factor_C, abs=1e-9)

    def test_poisson_spike_suite_passes(self):
        b = make_bundle("poisson")
        rep = sweep(spike_composite(b))
        assert rep.passed
        assert rep.worst_value < 0.2

    def test_factor_removed_fails(self):
        b = make_bundle("poisson")
        rep = sweep(spike_composite(b, factor_C=1.0))
        assert not rep.passed
        assert rep.worst_value > 1.0

    def test_mle_style_estimator_fails_for_large_rates(self):
        """Replacing the net estimator by the identity (select the spike
        at the observation itself) breaks the e-variable property for
        large rates, no matter the factor."""
        b = make_bundle("poisson")
        lam = 2000.0
        value = mle_counterexample_poisson(lam) / b.factor_C
        assert value > 1.0

    def test_report_shape_and_verdict_rule(self):
        b = make_bundle("discrete_uniform")
        grid = [1.0, 2.0, 16.0, 17.0]
        rep = sweep(spike_composite(b, grid), grid)
        assert len(rep.rows) == 4
        assert rep.worst_value == max(r[1] for r in rep.rows)
        assert rep.passed == (rep.worst_value <= 1 + 3 * rep.worst_error_bound)
        assert rep.bundle_id == "discrete_uniform"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_row_that_is_not_finite_fails(self, value):
        """A row whose estimate or error bound is not finite certifies
        nothing: inf <= 1 + 3 * inf no longer passes."""
        b = make_bundle("poisson")
        # a constant component built directly: constant_evar rejects NaN
        const = EVariable(lambda x: value, value, Piecewise.constant(value), vectorized=True)
        rep = sweep(combine_discrete(b, {2: const}), [4.0])
        assert not all(math.isfinite(v) for v in rep.rows[0][1:3])
        assert rep.verdict == "fail"

    def test_json_and_csv_serialization(self):
        b = make_bundle("discrete_uniform")
        rep = sweep(spike_composite(b, [4.0]), [4.0])
        blob = rep.to_json_bytes()
        assert b"bundle_id" in blob and blob == rep.to_json_bytes()
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "theta,estimate,error_bound,method"
        assert len(csv.splitlines()) == 2

    def test_the_json_writer_writes_what_json_dumps_writes(self):
        """The rows are written from one per-row template, the rest by
        json: the bytes are ``json.dumps(sort_keys=True, indent=2)``'s, on
        rows holding NaN, +-inf, -0.0, 5e-324, 1e22 and a method with
        non-ASCII, quote, newline and brace characters, on a report of no
        rows and on one whose other fields hold a "rows" key."""
        b = make_bundle("discrete_uniform")
        rep = sweep(spike_composite(b, [4.0]), [4.0])
        rows = ((math.nan, math.inf, -math.inf, "quadrature"), (-0.0, 5e-324, 1e22, "\u00e9t\u00e9"),
                (1.5, -2.0, 0.1, 'a"b\n{c}\u2264'))
        for doc in (replace(rep, rows=rows, worst_value=math.nan).to_dict(),
                    replace(rep, rows=()).to_dict(), {"checks": {"rows": []}, "rows": [{"x": 1}]}):
            assert _json_bytes(doc) == json.dumps(doc, sort_keys=True, indent=2).encode()

    @pytest.mark.parametrize("method", ["exact_sum", "quadrature"])
    def test_the_plan_rejects_an_engine_name(self, tmp_path, capsys, method):
        """"auto" picks the engine, so a plan naming one (the rows' labels
        exact_sum and quadrature) is a DomainError naming it, and the CLI
        exits with the config-error code."""
        import json

        from evarify.cli import EXIT_CONFIG, run

        with pytest.raises(DomainError, match=method):
            ExpectationPlan(method=method)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plan": {"method": method},
                                   "theta_grid": {"values": [0.0, 0.3]}}))
        assert run(["certify", "--family", "normal_mean", "--n", "1",
                    "--config", str(cfg)]) == EXIT_CONFIG
        assert method in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", 2**64), ("seed", 1.5),
        ("tail_mass", float(np.nextafter(2.0**-51, 0.0))), ("tail_mass", 2.0**-52),
        ("tail_mass", 1e-17)])
    def test_the_plan_domain_ends_where_its_use_does(self, field, value):
        """A seed is one word of the Philox key, [0, 2**64).  Below a
        tail_mass of 2**-51 the spike envelope's upper quantile level
        1 - tail_mass / 4 rounds to 1, and certify once exited 3 on a net
        index beyond 2**53.  The ends themselves are accepted, and the
        tail end certifies on the families whose window is quantiles."""
        with pytest.raises(DomainError, match=field):
            ExpectationPlan(**{field: value})
        plan = ExpectationPlan(seed=2**64 - 1, tail_mass=2.0**-51)
        assert _rng_for(2**64 - 1, 0).random() != _rng_for(0, 0).random()
        for name, kw in [("poisson", {}), ("normal_mean", {"n": 16}),
                         ("normal_variance", {"n": 64})]:
            b = make_bundle(name, **kw)
            assert sweep(spike_composite(b, plan=plan), plan=plan).passed

    def test_default_grids_respect_parameter_spaces(self):
        for name, kw in [
            ("binomial", {"n": 64}), ("discrete_uniform", {}), ("poisson", {}),
            ("continuous_uniform", {}), ("normal_mean", {"alpha": 1.0, "n": 4}),
            ("normal_variance", {"n": 4}), ("cauchy", {"epsilon": 0.2}),
        ]:
            b = make_bundle(name, **kw)
            grid = default_theta_grid(b)
            assert len(grid) >= 40
            assert all(b.family.param_space.contains(t) for t in grid)
            assert grid == sorted(grid)

    @pytest.mark.parametrize("grid,message", [
        ([], "theta_grid holds no value"),
        ([1.0, math.inf], "theta_grid values: parameter inf outside"),
        ([None], "theta_grid values"),
    ])
    def test_every_grid_entry_point_checks_the_grid_first(self, grid, message):
        """The spike composite and the sweep, of a spike composite or of
        the interpolated one (its factor takes no grid), reject a bad grid
        by name before building anything from it (an envelope from a theta
        outside the space once failed as a net index beyond 2**53)."""
        poisson, cauchy = make_bundle("poisson"), make_bundle("cauchy", epsilon=0.2)
        calls = [lambda: spike_composite(poisson, grid),
                 lambda: sweep(interpolated_spike_composite(cauchy, 0.2, 1.0), grid),
                 lambda: sweep(spike_composite(poisson, [1.0]), grid)]
        for call in calls:
            with pytest.raises(DomainError, match=message):
                call()


class TestOneExpectationPath:
    """Every expectation alone, and every row of a sweep without the
    closed-form engine, is one call of ``verifier.expectation``; a sweep
    integrates a closed-form composite in one engine call, with the same
    rows; the interpolated factor computes none."""

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        from evarify import verifier

        thetas, original = [], verifier.expectation

        def counted(e, theta, *args, **kwargs):
            thetas.append(theta)
            return original(e, theta, *args, **kwargs)
        monkeypatch.setattr(verifier, "expectation", counted)
        return thetas

    @pytest.mark.parametrize("case,method", [
        ("spikes", "exact_sum"), ("likelihood_ratio", "exact_sum"),
        ("monte_carlo", "monte_carlo")])
    def test_sweep_calls_it_once_per_theta(self, monkeypatch, case, method):
        b = make_bundle("poisson")
        grid = [0.5, 3.0, 17.0]
        plan = ExpectationPlan(method="monte_carlo", mc_samples=1000, seed=4) \
            if case == "monte_carlo" else None
        comp = (combine_discrete(b, {2: likelihood_ratio_evar(b.family, b.net.points(2), 5.0)})
                if case == "likelihood_ratio" else spike_composite(b, grid))
        alone = [expectation(comp, t, plan=plan, theta_index=i) for i, t in enumerate(grid)]
        thetas = self._count_calls(monkeypatch)
        rep = sweep(comp, grid, plan)
        assert thetas == ([] if case == "spikes" else grid)
        assert rep.rows == tuple((t, r.estimate, r.error_bound, method)
                                 for t, r in zip(grid, alone))

    @pytest.mark.parametrize("name", ["normal_mean", "cauchy"])
    def test_interpolated_factor_never_calls_it(self, monkeypatch, name):
        """The factor is the sup over every theta of one Fourier series
        per epsilon: no expectation at any theta."""
        b = make_bundle(name, epsilon=0.2)
        thetas = self._count_calls(monkeypatch)
        C, per_eps = certify_interpolated_factor(b, epsilons=(0.1, 0.2))
        assert thetas == []
        assert sorted(per_eps) == [0.1, 0.2] and C == max(s + e for s, e in per_eps.values())

    def test_cached_sup_and_ramps_equal_a_fresh_computation(self):
        b = make_bundle("cauchy", epsilon=0.2)
        cases = [(spike_evar(b, 3).piecewise, False),
                 (constant_evar(2.5).piecewise, False),
                 (spike_composite(b, [0.0, 4.0]).piecewise, False),
                 (interpolated_spike_composite(b, 0.1, 2.0).piecewise, True)]
        for pw, ramps in cases:
            ends = np.concatenate([pw.a + pw.b * pw.edges[:-1], pw.a + pw.b * pw.edges[1:]])
            sup = float(ends.max()) if pw.period else float(np.max(ends, initial=pw.outside))
            assert (pw.sup, pw.ramps) == (sup, ramps)
            assert (vars(pw)["sup"], vars(pw)["ramps"]) == (sup, ramps)  # kept


#: the certify_spikes benchmark's eleven configurations, by operation
#: name: (family, params, interpolated)
CERTIFY_SPIKES_CONFIGS = {
    "binomial.n64": ("binomial", {"n": 64}, False),
    "binomial.n10000": ("binomial", {"n": 10_000}, False),
    "discrete_uniform": ("discrete_uniform", {}, False),
    "poisson": ("poisson", {}, False),
    "continuous_uniform": ("continuous_uniform", {}, False),
    "normal_mean.n1": ("normal_mean", {"n": 1}, False),
    "normal_mean.n16": ("normal_mean", {"n": 16}, False),
    "normal_variance.n64": ("normal_variance", {"n": 64}, False),
    "cauchy.eps0.2": ("cauchy", {"epsilon": 0.2}, False),
    "interpolated.cauchy.eps0.2": ("cauchy", {"epsilon": 0.2}, True),
    "interpolated.normal_mean.eps0.2": ("normal_mean", {"epsilon": 0.2}, True),
}


def _certified_composite(name, params, interpolated):
    """The composite ``evarify certify`` sweeps for the configuration."""
    b = make_bundle(name, **params)
    if not interpolated:
        return spike_composite(b, default_theta_grid(b))
    C, _ = certify_interpolated_factor(b, (0.05, 0.1, 0.2))
    return interpolated_spike_composite(b, 0.2, C)


def _one_theta_reference(pw, law, tail, theta, near=None):
    """Oracle: the closed-form engine written out for one theta; (estimate,
    error bound, the charge for the mass beyond the window, the far
    copies' charge).  A periodic piecewise sums the copies within ``near``
    of theta's own (``verifier._NEAR_COPIES`` when None; math.inf for the
    whole window) as one row of pieces, copy by copy, each copy's shifted
    edges and coefficients written out point by point, and the window's
    copies beyond them on each side as one term at the period's mean
    level."""
    from evarify import verifier
    from evarify.core import _CDF_EPS, _UNIT_ROUNDOFF

    n, sides, far_value, far_size, charge = len(pw.a), 0, 0.0, 0.0, 0.0
    near = verifier._NEAR_COPIES if near is None else near

    def at(v):
        return np.array(law.moment(theta, v) if pw.ramps else [law.cdf(theta, v)])
    if pw.period:
        w = [math.floor((v - pw.edges[0]) / pw.period) for v in law.window(theta, tail)]
        own = math.floor((theta - pw.edges[0]) / pw.period)
        j = [min(max(own - near, w[0]), w[1]), min(max(own + near, w[0]), w[1])]
        s = pw.period * np.arange(j[0], j[1] + 2.0)
        # piece i of copy m runs from point m n + i of the row to the next
        row = at(np.array([e + t for t in s[:-1] for e in pw.edges[:-1]] + [pw.edges[0] + s[-1]]))
        J = len(s) - 1
        parts = [(np.tile(pw.a, J), np.tile(pw.b, J), np.repeat(s[:-1], n),
                  row[:, :-1], row[:, 1:])]
        F = row[0, ::n]  # at the copies' starts and the last one's end
        ends = [F[0], F[-1]]
        far = [w[0] < j[0], j[1] < w[1]]
        sides = sum(far)
        if sides:
            window = law.cdf(theta, pw.edges[0] + pw.period * np.array([w[0], w[1] + 1.0]))
            ends = [window[0] if far[0] else F[0], window[1] if far[1] else F[-1]]
            # the mean of one period and the size of its monomials, term by term
            mean = size = 0.0
            for a, b, e0, e1 in zip(pw.a, pw.b, pw.edges[:-1], pw.edges[1:]):
                mean += (a + b * ((e0 + e1) / 2.0)) * (e1 - e0)
                size += (abs(a) + abs(b) * ((abs(e0) + abs(e1)) / 2.0)) * (e1 - e0)
            mean, size = mean / pw.period, size / pw.period
            gamma = [k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF) for k in (n + 5, n + 7)]
            least = float(np.minimum(pw.a + pw.b * pw.edges[:-1],
                                     pw.a + pw.b * pw.edges[1:]).min())
            deviation = max(pw.sup - mean, mean - least) + gamma[0] * size
            below, above = float(F[0] - ends[0]), float(ends[1] - F[-1])
            adjacent = ((float(F[1] - F[0]) if far[0] else 0.0)
                        + (float(F[-1] - F[-2]) if far[1] else 0.0) + 2.0 * _CDF_EPS * sides)
            mass = abs(below) + abs(above)
            far_value, far_size = mean * below + mean * above, abs(mean) * mass
            charge = 0.5 * deviation * adjacent + gamma[1] * size * mass
        F = np.array(ends)
    else:
        rows = [at(pw.edges)]
        parts = [(pw.a, pw.b, 0.0, rows[0][:, :n], rows[0][:, 1:])]
        F = rows[0][0]
    rest = max(0.0, 1.0 - float(F[-1] - F[0])) if F.size else 1.0
    estimate = at_edges = terms = 0.0
    for a, b, s, (F0, *G0), (F1, *G1) in parts:
        dF = F1 - F0
        estimate += float(np.dot(a - b * s, dF))
        if pw.ramps:
            (G0,), (G1,) = G0, G1
            dG = G1 - G0
            estimate += float(np.sum(b * dG))
            A, B = np.abs(a) + np.abs(b) * np.abs(s), np.abs(b)
            at_edges += float(np.sum((A + abs(theta) * B) * (F0 + F1)
                                     + B * (np.abs(G0) + np.abs(G1))))
            terms += float(np.sum(A * np.abs(dF) + B * np.abs(dG)))
    count = sum(part[3].shape[1] for part in parts) + sides
    estimate += far_value
    terms += far_size
    estimate += rest * (pw.sup if pw.period else pw.outside)
    eb = _CDF_EPS * (count + 2.0) * max(1.0, pw.sup)
    eb += _CDF_EPS * at_edges + _UNIT_ROUNDOFF * (count + 2.0) * terms
    beyond = 0.0
    if pw.period:
        ends = np.minimum(pw.a + pw.b * pw.edges[:-1], pw.a + pw.b * pw.edges[1:])
        beyond = rest * (pw.sup - float(ends.min()))
        eb += beyond + charge
    return estimate, eb, beyond, charge


class TestOneEnginePassPerSweep:
    """A sweep of a closed-form composite is one engine call over the
    whole grid, its non-periodic rows taken in tiles of thetas
    (:class:`TestSweepTiles`); its rows are each theta's expectation bit
    for bit."""

    @staticmethod
    def _rows_alone(comp, grid):
        return tuple((float(t), r.estimate, r.error_bound, r.method)
                     for t, r in ((t, expectation(comp, t)) for t in grid))

    @pytest.mark.parametrize("config", CERTIFY_SPIKES_CONFIGS)
    def test_rows_are_each_thetas_expectation(self, config):
        comp = _certified_composite(*CERTIFY_SPIKES_CONFIGS[config])
        grid = default_theta_grid(comp.bundle)
        law, pw = comp.bundle.family.law, comp.piecewise
        rows = sweep(comp, grid).rows
        assert rows == self._rows_alone(comp, grid)
        # and each the one-theta engine's floats, so reports keep their bytes
        assert [row[1:3] for row in rows] == [_one_theta_reference(pw, law, 1e-12, t)[:2]
                                             for t in grid]

    @pytest.mark.parametrize("name", ["cauchy", "normal_mean"])
    def test_interpolated_rows_far_apart(self, name):
        """Windows a million periods apart each get a row of their own,
        with the same rows."""
        comp = _certified_composite(name, {"epsilon": 0.2}, True)
        law, pw = comp.bundle.family.law, comp.piecewise
        grid = [-1e6, 0.3, 1e6]
        rows = sweep(comp, grid).rows
        assert rows == self._rows_alone(comp, grid)
        assert [row[1:3] for row in rows] == [_one_theta_reference(pw, law, 1e-12, t)[:2]
                                             for t in grid]

    def test_far_apart_windows_take_little_memory(self):
        """Each row holds its own near copies alone: thetas 2e9 apart
        cost a few rows of copies, not a table over the 2e9 periods
        between them."""
        import tracemalloc

        b = make_bundle("normal_mean", epsilon=0.2)
        comp = interpolated_spike_composite(b, 0.2, 3.0)
        tracemalloc.start()
        try:
            rows = sweep(comp, [-1e9, 0.0, 1e9]).rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert rows == self._rows_alone(comp, [-1e9, 0.0, 1e9])

    @pytest.mark.parametrize("name,theta", [("normal_mean", 9e15), ("cauchy", 2e16),
                                            ("cauchy", 1e20), ("normal_mean", 1e20)])
    def test_copies_past_float_resolution_are_refused(self, name, theta):
        """Where a copy index reaches 2**53, or the copies' shifted edges
        stop increasing, the sweep and ``expectation`` raise naming theta:
        the row once read E = -2 at 9e15 and crashed further out."""
        comp = interpolated_spike_composite(make_bundle(name, epsilon=0.2), 0.2, 3.0)
        with pytest.raises(DomainError, match=re.escape(f"theta = {theta!r}")):
            sweep(comp, [0.3, theta])
        with pytest.raises(DomainError, match=re.escape(f"theta = {theta!r}")):
            expectation(comp, theta)


class TestFarCopies:
    """A periodic row sums the copies within ``_NEAR_COPIES`` of theta's
    own one by one, and the window's copies beyond them, on each side, as
    one term at the period's mean level with a derived charge."""

    GRID_EXTRA = [-1e6, 0.3, 1e6]

    def test_rows_within_the_far_charge_of_the_whole_window(self):
        """Against the engine summed over every copy of the window (the
        reference at near = inf): at every default-grid theta and far out,
        the two rows differ by at most the far charge plus both rows'
        rounding bounds, and the far charge is at most 0.4% of a row's
        bound on the default grid (``_NEAR_COPIES``' comment)."""
        comp = _certified_composite("cauchy", {"epsilon": 0.2}, True)
        law, pw = comp.bundle.family.law, comp.piecewise
        grid = default_theta_grid(comp.bundle)
        for theta in grid + self.GRID_EXTRA:
            new, bound, beyond, charge = _one_theta_reference(pw, law, 1e-12, theta)
            whole, whole_bound, whole_beyond, no_charge = _one_theta_reference(
                pw, law, 1e-12, theta, near=math.inf)
            assert no_charge == 0.0 < charge
            rounding = (bound - beyond - charge) + (whole_bound - whole_beyond)
            assert abs(new - whole) <= charge + rounding, theta
            if theta in grid:
                assert charge <= 0.004 * bound, theta

    @pytest.mark.parametrize("name", ["cauchy", "normal_mean"])
    def test_near_copies_past_the_window_are_the_whole_window(self, name, monkeypatch):
        """With ``_NEAR_COPIES`` past every window the rows are the
        whole-window sum bit for bit; normal_mean's window (about theta
        +/- 7.1) holds no far copy at the shipped value either."""
        from evarify import verifier

        comp = _certified_composite(name, {"epsilon": 0.2}, True)
        law, pw = comp.bundle.family.law, comp.piecewise
        grid = default_theta_grid(comp.bundle) + self.GRID_EXTRA
        whole = [_bits(*_one_theta_reference(pw, law, 1e-12, t, near=math.inf)[:2])
                 for t in grid]
        if name == "normal_mean":
            assert [_bits(*row[1:3]) for row in sweep(comp, grid).rows] == whole
        monkeypatch.setattr(verifier, "_NEAR_COPIES", 2**40)
        assert [_bits(*row[1:3]) for row in sweep(comp, grid).rows] == whole

    @pytest.mark.parametrize("theta", [1001.0, -4.75])
    def test_far_copies_within_their_charge_of_mpmath(self, theta):
        """Oracle: the far copies' integral at 30 digits, each piece of
        each copy (a - b s) dF + b dG in closed form (F = 1/2 + atan(z) / pi,
        G = theta F + log(1 + z^2) / (2 pi), z = v - theta), on the
        composite as computed, shifted by exact integers.  The engine's
        term, mean (F(near end) - F(window end)) on each side, is within
        its charge of it, and its mean level within its rounding bound of
        the exact mean (f_bar off by 1e-6 fails here, and a charge of 0)."""
        from evarify import verifier

        comp = _certified_composite("cauchy", {"epsilon": 0.2}, True)
        law, pw = comp.bundle.family.law, comp.piecewise
        n, K = len(pw.a), verifier._NEAR_COPIES
        w0, w1 = (math.floor((v - pw.edges[0]) / pw.period) for v in law.window(theta, 1e-12))
        own = math.floor((theta - pw.edges[0]) / pw.period)
        assert w0 < own - K and own + K < w1
        least = float(np.minimum(pw.a + pw.b * pw.edges[:-1], pw.a + pw.b * pw.edges[1:]).min())
        level = verifier._period_mean(pw, least)
        x = pw.edges[0] + pw.period * np.array([w0, own - K, own - K + 1, own + K, own + K + 1,
                                                w1 + 1.0])
        F = law.cdf(theta, x)
        value, _, charge = verifier._far_copies(F[1:5].tolist(), F[[0, 5]].tolist(),
                                                [True, True], *level)
        with mp.workdps(30):
            t, p = mp.mpf(theta), mp.mpf(pw.period)
            e, a, slope = ([mp.mpf(v) for v in arr.tolist()] for arr in (pw.edges, pw.a, pw.b))
            exact = mp.mpf(0)
            for first, last in ((w0, own - K - 1), (own + K + 1, w1)):
                # every edge of the run once: piece i of copy j runs from
                # point 3 (j - first) + i to the next
                z = [e[i] + j * p - t for j in range(first, last + 1) for i in range(n)]
                z.append(e[0] + (last + 1) * p - t)
                atan = [mp.atan(v) for v in z]
                log = [mp.log1p(v * v) for v in z]
                for m in range(len(z) - 1):
                    i, s = m % n, (first + m // n) * p
                    dF = (atan[m + 1] - atan[m]) / mp.pi
                    dG = t * dF + (log[m + 1] - log[m]) / (2 * mp.pi)
                    exact += (a[i] - slope[i] * s) * dF + slope[i] * dG
            assert abs(mp.mpf(value) - exact) <= charge, (value, exact, charge)
            exact_mean = mp.fsum((a[i] + slope[i] * (e[i] + e[i + 1]) / 2) * (e[i + 1] - e[i])
                                 for i in range(n)) / p
            assert abs(mp.mpf(level[0]) - exact_mean) <= level[2]

    @pytest.mark.parametrize("name", ["cauchy", "normal_mean"])
    def test_a_row_is_one_law_call_over_its_pieces(self, name):
        """Each theta's near copies j0..j1 are one row of pieces, copy by
        copy: one law call on that theta alone over their n (j1 - j0 + 1)
        + 1 edges, plus at most one cdf call at the window's two ends,
        with the rows of the unwrapped law."""
        from evarify import verifier

        comp = _certified_composite(name, {"epsilon": 0.2}, True)
        law, pw = comp.bundle.family.law, comp.piecewise
        grid = sorted(set(default_theta_grid(comp.bundle) + self.GRID_EXTRA))
        calls = []
        rows = verifier._piecewise_expectations(pw, TestSweepTiles._recorded(law, calls),
                                                1e-12, grid)
        assert rows == verifier._piecewise_expectations(pw, law, 1e-12, grid)
        n, K = len(pw.a), verifier._NEAR_COPIES
        for theta in grid:
            w = [math.floor((v - pw.edges[0]) / pw.period) for v in law.window(theta, 1e-12)]
            own = math.floor((theta - pw.edges[0]) / pw.period)
            copies = min(own + K, w[1]) - max(own - K, w[0]) + 1
            widths = sorted(width for _, thetas, (width,) in calls if thetas == [theta])
            assert widths[-1] == n * copies + 1 and widths[:-1] in ([], [2]), theta
        assert all(shape == (1, 1) for shape, _, _ in calls)

    def test_the_periodic_cauchy_sweep_takes_little_memory(self):
        """A row holds its own near copies, about 2,050 of them, and the
        sweep one period repeated as often: the whole-window engine held
        about 5 MB live."""
        import tracemalloc

        comp = _certified_composite("cauchy", {"epsilon": 0.2}, True)
        grid = default_theta_grid(comp.bundle)
        tracemalloc.start()
        try:
            sweep(comp, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


#: thetas beyond each law's default grid: far scales, far locations, the
#: binomial's ends and a large Poisson mean
FAR_THETAS = {
    "binomial": [5e-324, 1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 2.0**-53],
    "discrete_uniform": [0.0, 2.0**40],
    "poisson": [1e-300, 1e9],
    "continuous_uniform": [1e-300, 1e300],
    "normal_mean": [-1e15, 1e15],
    "normal_variance": [1e-300, 1e300],
    "cauchy": [-1e15, 1e15],
}


def _bits(*values) -> list:
    return [float(v).hex() for v in values]


class TestLawsInTiles:
    """Each law's cdf, and moment where it has one, on a column of thetas
    against a row of points gives each row the bits of a call on that
    theta alone: the tiled sweep rests on it.  The points are the spike
    composite's edges on the default grid; the thetas are that grid and
    ``FAR_THETAS``."""

    @pytest.mark.parametrize("config", [c for c, (*_, interpolated)
                                        in CERTIFY_SPIKES_CONFIGS.items() if not interpolated])
    def test_a_tile_is_its_rows(self, config):
        name, params, _ = CERTIFY_SPIKES_CONFIGS[config]
        b = make_bundle(name, **params)
        law, grid = b.family.law, default_theta_grid(b)
        thetas = grid + [b.family.validate_param(t) for t in FAR_THETAS[name]]
        edges = spike_composite(b, grid).piecewise.edges
        column = np.array(thetas)[:, None]
        for fn in [law.cdf] + ([law.moment] if law.moment else []):
            tile = np.asarray(fn(column, edges))
            rows = np.stack([np.asarray(fn(t, edges)) for t in thetas], axis=-2)
            assert tile.shape == rows.shape
            assert tile.tobytes() == rows.tobytes(), (config, fn)


class TestSweepTiles:
    """A non-periodic composite is swept in tiles of thetas: each law call
    holds a column of whole rows, at most ``_TILE_VALUES`` values unless it
    is a single row wider than that.  With the bound cut so that the grid
    takes several tiles and a partial last one, every theta is in exactly
    one call and every row keeps the one-theta engine's bits."""

    @staticmethod
    def _interpolated(name):
        b = make_bundle(name, epsilon=0.2)
        keys = range(-6, 7)
        spikes = unit_cell_spikes(b, keys)
        rng = np.random.default_rng(7)
        comps = {k: constant_evar(float(rng.uniform(0.0, 4.0))) if k % 3 else spikes[k]
                 for k in keys}
        return b, combine_interpolated(b, comps, 0.2, 3.0).piecewise

    @staticmethod
    def _recorded(law, calls):
        def recorded(fn):
            def call(theta, v):
                calls.append((np.shape(theta), np.ravel(theta).tolist(), np.shape(v)))
                return fn(theta, v)
            return call
        return replace(law, cdf=recorded(law.cdf),
                       moment=law.moment and recorded(law.moment))

    def _sweep(self, pw, law, grid, bound, monkeypatch):
        from evarify import verifier

        monkeypatch.setattr(verifier, "_TILE_VALUES", bound)
        calls = []
        rows = verifier._piecewise_expectations(pw, self._recorded(law, calls), 1e-12, grid)
        assert [_bits(r.estimate, r.error_bound) for r in rows] == [
            _bits(*_one_theta_reference(pw, law, 1e-12, t)[:2]) for t in grid]
        assert sorted(t for _, thetas, _ in calls for t in thetas) == sorted(grid)
        for shape, thetas, (width,) in calls:
            assert shape == (len(thetas), 1)
            assert len(thetas) * width <= bound or len(thetas) == 1
        return calls

    @pytest.mark.parametrize("name", ["cauchy", "normal_mean"])
    def test_ramps(self, name, monkeypatch):
        b, pw = self._interpolated(name)
        assert pw.ramps and not pw.period
        grid = default_theta_grid(b)
        width, per = len(pw.edges), 7
        assert len(grid) % per
        calls = self._sweep(pw, b.family.law, grid, per * width + width - 1, monkeypatch)
        assert [len(thetas) for _, thetas, _ in calls] == (
            [per] * (len(grid) // per) + [len(grid) % per])

    def test_constant(self, monkeypatch):
        """No edges: each row's mass beyond is 1, at the constant's level."""
        b = make_bundle("poisson")
        grid = default_theta_grid(b)
        calls = self._sweep(Piecewise.constant(2.5), b.family.law, grid, 10, monkeypatch)
        assert [len(thetas) for _, thetas, _ in calls] == [10] * 14 + [5]

    def test_rows_wider_than_a_tile(self, monkeypatch):
        """A piecewise of more distinct levels than a tile holds values,
        on the Cauchy law over its default grid: each row is a call of its
        own."""
        from evarify import verifier

        b = make_bundle("cauchy", epsilon=0.2)
        grid = default_theta_grid(b)
        n = verifier._TILE_VALUES + 1
        pw = Piecewise(np.linspace(-1e4, 1e4, n + 1), np.linspace(0.1, 0.9, n), np.zeros(n),
                       1.0 / b.factor_C)
        assert len(np.unique(pw.a)) == n and len(pw.edges) > verifier._TILE_VALUES
        calls = self._sweep(pw, b.family.law, grid, verifier._TILE_VALUES, monkeypatch)
        assert [len(thetas) for _, thetas, _ in calls] == [1] * len(grid)


def _law_cdf_mp(name, params, theta):
    """The law's CDF at theta in mpmath, for the bundles whose spike
    composites have runs of one level."""
    t = mp.mpf(theta)
    if name == "cauchy":
        return lambda v: mp.mpf(1) / 2 + mp.atan(mp.mpf(v) - t) / mp.pi
    if name == "normal_mean":
        return lambda v: mp.ncdf(mp.mpf(v), t, 1 / mp.sqrt(params["n"]))
    if name == "normal_variance":  # n v / theta is chi-square with n degrees of freedom
        n = params["n"]
        assert n % 2 == 0  # P(n / 2, x) = 1 - e^-x sum_{k < n/2} x^k / k!, 1e-40 absolute

        def cdf(v):
            x = n * mp.mpf(v) / (2 * t)
            return 1 - mp.exp(-x) * mp.fsum(x**k / mp.factorial(k) for k in range(n // 2))
        return cdf
    assert name == "continuous_uniform"
    return lambda v: min(max(mp.mpf(v) / t, mp.mpf(0)), mp.mpf(1))


class TestRunsOfOneLevelAgainstMpmath:
    """The spike composites whose runs of one level are one piece each
    (Cauchy, normal_mean, normal_variance, the continuous uniform): rows
    of the closed-form sweep, the worst included, within their bounds of
    E_theta at 40 digits, sum_i a_i dF_i over the pieces plus the mass
    beyond at the outside level."""

    @staticmethod
    def _check(name, params, grid=None, every=1):
        b = make_bundle(name, **params)
        grid = default_theta_grid(b) if grid is None else grid
        comp = spike_composite(b, grid)
        pw, report = comp.piecewise, sweep(comp, grid)
        rows = report.rows[::every] + tuple(r for r in report.rows if r[0] == report.worst_theta)
        with mp.workdps(40):
            a = [mp.mpf(v) for v in pw.a.tolist()]
            for theta, estimate, bound, _ in rows:
                F = [_law_cdf_mp(name, params, theta)(v) for v in pw.edges.tolist()]
                exact = (mp.fsum(a[i] * (F[i + 1] - F[i]) for i in range(len(a)))
                         + mp.mpf(pw.outside) * (1 - (F[-1] - F[0])))
                assert abs(mp.mpf(estimate) - exact) <= bound, (theta, estimate, exact, bound)

    @pytest.mark.parametrize("name,params,every", [
        ("cauchy", {"epsilon": 0.2}, 3),
        ("normal_mean", {"n": 16}, 3),
        ("normal_variance", {"n": 64}, 4),
        ("continuous_uniform", {}, 1),
    ])
    def test_default_grid_rows(self, name, params, every):
        self._check(name, params, every=every)

    @pytest.mark.parametrize("name,params", [("continuous_uniform", {}),
                                             ("normal_variance", {"n": 4})])
    def test_wide_scale_grid_rows(self, name, params):
        """The grid 1e-10, 1e300 of ``test_cli.TestWideScaleGrids``."""
        self._check(name, params, [1e-10, 1e300])


class TestMLECounterexample:
    def test_lambda_one_by_direct_summation(self):
        """Oracle: 40-digit summation of e^{-1} sum (e lam)^n / n^n with
        the 0^0 = 1 convention for the n = 0 term."""
        mp.mp.dps = 40
        oracle = mp.mpf(0)
        for n in range(0, 41):
            pmf = mp.e ** (-1) / mp.factorial(n)
            f = mp.e**n * mp.factorial(n) / mp.mpf(n) ** n if n else mp.mpf(1)
            oracle += pmf * f
        value = mle_counterexample_poisson(1.0)
        assert value == pytest.approx(float(oracle), rel=1e-12)
        assert value == pytest.approx(2.4207940117229046, rel=1e-12)

    def test_asymptotic_anchor(self):
        assert mle_counterexample_poisson(25.0) == pytest.approx(
            math.sqrt(2 * math.pi * 25.0), rel=0.01
        )
        assert mle_counterexample_poisson(100.0) == pytest.approx(
            math.sqrt(2 * math.pi * 100.0), rel=0.01
        )

    def test_tail_bound_reported(self):
        res = mle_counterexample_poisson_with_bound(100.0)
        assert res.error_bound < 1e-12
        assert res.method == "exact_sum"

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            mle_counterexample_poisson(0.0)

    @pytest.mark.parametrize("lam", [1000.0, 1e4, 1e6])
    def test_tail_bound_finite_and_above_the_exact_tail_for_large_rates(self, lam):
        """Oracle: 40-digit summation of the terms e^{-lam} (e lam / n)^n
        beyond the truncation point, until they fall below 1e-30 of the
        running sum."""
        res = mle_counterexample_poisson_with_bound(lam)
        assert math.isfinite(res.error_bound)
        mp.mp.dps = 40
        lam_mp = mp.mpf(lam)
        n = int(lam + 20.0 * math.sqrt(lam) + 60.0) + 1
        tail = mp.mpf(0)
        while True:
            term = mp.exp(-lam_mp + n * (1 + mp.log(lam_mp) - mp.log(n)))
            tail += term
            if term < tail * mp.mpf("1e-30"):
                break
            n += 1
        assert res.error_bound >= float(tail)
        assert res.error_bound <= 1.01 * float(tail)

    def test_window_equals_the_full_sum_within_its_bound(self):
        """At lambda = 1e4 the sum starts at L = 1e4 - 30 * 100 - 60 = 6940:
        the 40-digit sum of the skipped terms t_0..t_{L-1} lies within the
        charge L t_L, the reported bound covers it and the tail above, and
        the estimate equals the full float sum from n = 0."""
        lam = 1e4
        res = mle_counterexample_poisson_with_bound(lam)
        low = math.floor(lam - 30.0 * math.sqrt(lam) - 60.0)
        n_max = int(lam + 20.0 * math.sqrt(lam) + 60.0)
        mp.mp.dps = 40

        def t(n):
            return mp.exp(-lam + n * (1 + mp.log(lam) - mp.log(n))) if n else mp.exp(-lam)
        skipped = mp.fsum(t(n) for n in range(low))
        assert 0 < skipped <= low * t(low)
        above = mp.fsum(t(n) for n in range(n_max + 1, n_max + 400))
        assert res.error_bound >= float(skipped + above)
        n = np.arange(1, n_max + 1, dtype=float)
        full = math.exp(-lam) + float(np.sum(np.exp(-lam + n * (1.0 + math.log(lam) - np.log(n)))))
        assert res.estimate == pytest.approx(full, rel=1e-12)

    def test_memory_is_bounded_by_a_domain_error(self):
        """The window holds about 50 sqrt(lambda) terms; one of more than
        2**20 raises by name, where 1e18 once asked numpy for 6.9 EiB."""
        assert mle_counterexample_poisson_with_bound(4e8).estimate > 1.0
        for lam in (1e9, 1e18):
            with pytest.raises(DomainError, match="lambda"):
                mle_counterexample_poisson_with_bound(lam)


class TestUniformBudget:
    def test_brute_force_oracle_small_n(self):
        """Oracle: group the support of each uniform by the selected net
        point and add each reachable point's full budget (s + 1)/(N + 1);
        compare with the cell-enumeration implementation."""
        b = make_bundle("discrete_uniform")
        for N in range(1, 2049):
            reachable = sorted(set(b.estimate(np.arange(N + 1)).tolist()))
            oracle = sum(Fraction(int(s) + 1, N + 1) for s in reachable)
            assert uniform_ceiling_budget(N) == oracle

    def test_known_values(self):
        assert uniform_ceiling_budget(1) == Fraction(1)
        assert uniform_ceiling_budget(3) == Fraction(5, 2)
        assert uniform_ceiling_budget(5) == Fraction(19, 6)

    def test_vectorized_sweep_matches_exact(self):
        max_val, arg = uniform_ceiling_budget_max(4096)
        exact = max(
            (float(uniform_ceiling_budget(N)), N) for N in range(1, 4097)
        )
        assert max_val == pytest.approx(exact[0], rel=1e-12)
        assert arg == exact[1]

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 8, 9, 512, 513, 514, 4096, 2**20])
    def test_closed_form_max_equals_the_full_sweep(self, n_max):
        """The block-start candidates give the full sweep's (value, N) bit
        for bit; the sweep below is the former implementation."""
        N = np.arange(1, n_max + 1, dtype=float)
        m = np.ceil(np.log2(N))
        m[0] = 0.0  # N = 1: only the {0,1} cell
        B = (2.0 ** (m + 1.0) + m) / (N + 1.0)
        i = int(np.argmax(B))
        assert uniform_ceiling_budget_max(n_max) == (float(B[i]), int(N[i]))

    def test_budget_is_attainable_by_adversarial_components(self):
        """The certificate is tight: point-mass components exhausting
        each reachable budget achieve it exactly (shown here for N = 5,
        where the value 19/6 exceeds the shipped factor 3)."""
        from evarify.combinator import EVariable

        b = make_bundle("discrete_uniform")
        N = 5

        def point_mass(k):
            s = b.net.points(k)
            target = {0: 0.0, 1: 2.0, 2: 3.0, 3: 5.0}[k]  # one point per cell
            budget = s + 1.0
            if k == 0:  # two support points, split the budget
                return EVariable(fn=lambda x: 1.0 if x in (0.0, 1.0) else 0.0)
            return EVariable(fn=lambda x, t=target, v=budget: v if x == t else 0.0)

        comps = {k: point_mass(k) for k in range(4)}
        comp = combine_discrete(b, comps, factor_C=1.0)
        res = expectation(comp, float(N))
        assert res.estimate == pytest.approx(19.0 / 6.0, abs=1e-12)
        # each component is itself a valid unit-mean test for its point
        for k in range(4):
            own = expectation(comps[k], b.net.points(k), b)
            assert own.estimate <= 1.0 + 1e-12


class TestInterpolatedCertification:
    def test_certified_factor_is_the_largest_sup_plus_bound(self):
        """C is the worst epsilon's sup over every theta plus its bound;
        on Cauchy it is at least the all-theta sup 3.3035253, above the
        3.3031923 the grid search once returned."""
        b = make_bundle("cauchy", epsilon=0.2)
        C, per_eps = certify_interpolated_factor(b)
        assert C == max(s + e for s, e in per_eps.values())
        assert C >= 3.3035253
        assert max(per_eps, key=lambda e: per_eps[e][0]) == 0.05
        for sup, bound in per_eps.values():
            assert 0.0 < bound < 1e-8

    def test_sweeps_pass_at_certified_factor(self):
        for name in ("normal_mean", "cauchy"):
            b = make_bundle(name, epsilon=0.2)
            C, _ = certify_interpolated_factor(b)
            for eps in (0.05, 0.1, 0.2):
                rep = sweep(interpolated_spike_composite(b, eps, C))
                assert rep.passed, (name, eps)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_closed_form_engine_matches_generic_quadrature(self):
        """Dual route: the partial-moment engine against scipy adaptive
        quadrature of the same integrand (the kinks make quad grumble
        about roundoff; its value is still good to ~1e-9)."""
        from scipy import integrate

        b = make_bundle("normal_mean", epsilon=0.2)
        comp = interpolated_spike_composite(b, 0.2, 2.0)
        for theta in (0.0, 0.25, 0.5):
            res = expectation(comp, theta)
            val, _ = integrate.quad(
                lambda x: comp(x) * math.exp(float(b.family.log_density(theta, x))),
                theta - 12, theta + 12, limit=400,
            )
            assert res.estimate == pytest.approx(val, abs=5e-8)

    def test_unit_cell_spike_has_unit_mean_at_its_point(self):
        """The spike on [-1/2, 1/2) is not an r^epsilon cell: its single
        piece is that interval (taken as cell 0 it was integrated over
        [-0.7, 0.3) instead)."""
        b = make_bundle("normal_mean", epsilon=0.2)
        e0 = unit_cell_spikes(b, [0])[0]
        pw = e0.piecewise
        assert list(pw.edges) == [-0.5, 0.5] and not pw.right_closed
        assert e0.sup_bound == e0.level == pw.a[0]
        res = expectation(e0, 0.0, b)
        assert abs(res.estimate - 1.0) <= res.error_bound

    @pytest.mark.parametrize("name", ["normal_mean", "cauchy"])
    def test_translation_by_1000_within_both_rows_bounds(self, name):
        """The unit-cell spike composite repeats with period 1, so
        E_{theta +/- 1000} = E_theta; the two rows may differ only by
        rounding, which their error bounds must cover (the coefficients
        a_i + b_i v of a ramp grow with |v| and 1/(2 eps))."""
        b = make_bundle(name, epsilon=0.2)
        for eps in (0.05, 0.2):
            comp = interpolated_spike_composite(b, eps, 1.0)
            for theta in (0.0, 0.3, 0.5):
                base = expectation(comp, theta)
                for shifted in (theta - 1000.0, theta + 1000.0):
                    far = expectation(comp, shifted)
                    gap = abs(far.estimate - base.estimate)
                    assert gap <= base.error_bound + far.error_bound, (eps, theta, shifted)

    @pytest.mark.parametrize("name", ["normal_mean", "cauchy"])
    def test_exact_far_beyond_the_grid(self, name):
        """The composite is h * w_round(x) / C on the whole line: far
        beyond every grid theta it matches the trapezoid weight pointwise
        and its mean passes as the sweep's rows do (at most 1 + 3 times
        its bound), and the factor's all-theta sup covers those thetas."""
        b = make_bundle(name, epsilon=0.2)
        C, _ = certify_interpolated_factor(b)
        h = unit_cell_spikes(b, [0])[0].level
        xs = np.concatenate([np.linspace(-50001.0, -49999.0, 401),
                             np.linspace(49999.0, 50001.0, 401)])
        for eps in (0.05, 0.2):
            comp = interpolated_spike_composite(b, eps, C)
            for x in xs:
                want = h * bump_weight(math.floor(x + 0.5), eps, x) / C
                assert comp(x) == pytest.approx(want, abs=1e-9), (eps, x)
            for theta in (-50000.0, 50000.0):
                res = expectation(comp, theta)
                assert res.estimate <= 1.0 + 3.0 * res.error_bound, (eps, theta, res)
                # a batch is folded into the period as each sample is
                draws = b.family.law.sample(theta, 1000, np.random.default_rng(5))
                np.testing.assert_array_equal(comp.eval_many(draws), [comp(x) for x in draws])
        # the factor's sup covers every theta: the engine's rows at C = 1 at
        # +/-50000 lie below sup + bound, within their own bounds
        _, per_eps = certify_interpolated_factor(b)
        for eps, (sup, bound) in per_eps.items():
            comp = interpolated_spike_composite(b, eps, 1.0)
            for theta in (-50000.0, 50000.0):
                res = expectation(comp, theta)
                assert res.estimate - res.error_bound <= sup + bound, (eps, theta, res)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_interpolated_constants_get_the_closed_form(self):
        """The criterion-8 composite of random constants is integrated in
        closed form (it fell to generic quadrature); checked against
        scipy adaptive quadrature of the same integrand."""
        from scipy import integrate

        from evarify.combinator import combine_interpolated

        b = make_bundle("normal_mean", epsilon=0.2)
        rng = np.random.default_rng(12)
        comps = {n: constant_evar(float(v)) for n, v in
                 zip(range(-6, 7), rng.uniform(0.0, 4.0, 13))}
        comp = combine_interpolated(b, comps, epsilon=0.2, factor_C=2.0)
        assert comp.piecewise is not None
        for theta in (0.0, 0.25, 0.5):
            res = expectation(comp, theta)
            assert res.error_bound < 1e-12
            val, _ = integrate.quad(
                lambda x: comp(x) * math.exp(float(b.family.log_density(theta, x))),
                theta - 12, theta + 12, limit=400,
            )
            assert res.estimate == pytest.approx(val, abs=5e-8)

    def test_smaller_epsilon_is_harder(self):
        b = make_bundle("normal_mean", epsilon=0.2)
        _, per_eps = certify_interpolated_factor(b)
        assert per_eps[0.05][0] > per_eps[0.1][0] > per_eps[0.2][0]

    def test_periodic_rows_within_their_bounds_of_a_40_digit_sum_over_copies(self):
        """The rows of ``certify --family normal_mean --epsilon 0.2 --mode
        interpolated`` at thetas near 0 and a thousand periods away: each
        estimate is within its error bound of the composite's expectation
        at 40 digits, summed over its copies within 40 standard deviations
        of theta (the mass beyond is below 1e-340), each piece's copy
        (a - b s) dPhi + b dG with G the partial first moment.  The
        composite is taken as computed: its float edges, a and b, shifted
        by exact integers."""
        b = make_bundle("normal_mean", epsilon=0.2)
        factor, _ = certify_interpolated_factor(b, (0.05, 0.1, 0.2))
        pw = interpolated_spike_composite(b, 0.2, factor).piecewise
        assert pw.period == 1.0 and b.family.law.cdf(0.0, 1.0) == stats.norm.cdf(1.0)
        thetas = [0.0, 0.3, -0.484375, 500.75, -999.0, 1000.3]
        with mp.workdps(40):
            edges, a, slope = ([mp.mpf(v) for v in arr.tolist()] for arr in (pw.edges, pw.a, pw.b))
            for theta, estimate, bound, _ in sweep(interpolated_spike_composite(b, 0.2, factor),
                                                   thetas).rows:
                t, exact = mp.mpf(theta), mp.mpf(0)
                for s in range(math.floor(theta) - 42, math.ceil(theta) + 42):
                    F = [mp.ncdf(e + s, t, 1) for e in edges]
                    pdf = [mp.npdf(e + s, t, 1) for e in edges]
                    for i in range(len(a)):
                        dF = F[i + 1] - F[i]
                        dG = t * dF - (pdf[i + 1] - pdf[i])
                        exact += (a[i] - slope[i] * s) * dF + slope[i] * dG
                assert abs(mp.mpf(estimate) - exact) <= bound, (theta, estimate, exact, bound)


def _lr_composite(name, kw, shift):
    """The benchmark's generic composites: likelihood ratios on the net
    points -3..3 against the alternatives k + shift."""
    b = make_bundle(name, **kw)
    comps = {k: likelihood_ratio_evar(b.family, b.net.points(k), k + shift) for k in range(-3, 4)}
    return b, combine_discrete(b, comps)


class TestGaussLegendreQuadrature:
    @pytest.mark.parametrize("name,kw,shift,thetas", [
        ("cauchy", {"epsilon": 0.2}, 0.3, (0.5, -1.7, 3.0)),
        ("normal_mean", {"n": 1}, 0.4, (0.0, 0.5, 2.25)),
    ])
    def test_likelihood_ratio_composite_against_mpmath(self, name, kw, shift, thetas):
        """Oracle at 30 digits over the same window: each key's cell holds
        the ratio p_{k+shift} / p_k over C, integrated by mpmath.quad
        against p_theta, and the rest of the window the level 1/C, whose
        integral is a CDF difference.  The estimate must match within the
        reported quadrature error plus 1e-15."""
        b, comp = _lr_composite(name, kw, shift)
        bounds = b.cell_bounds(range(-3, 4))
        with mp.workdps(30):
            if name == "cauchy":
                def pdf(t, x):
                    return 1 / (mp.pi * (1 + (x - t) ** 2))

                def cdf(t, x):
                    return mp.mpf(1) / 2 + mp.atan(x - t) / mp.pi
            else:
                def pdf(t, x):
                    return mp.npdf(x, t, 1)

                def cdf(t, x):
                    return mp.ncdf(x, t, 1)
            for theta in thetas:
                total, err, (lo, hi) = _window_quadrature(comp, theta, b, ExpectationPlan())
                t, C = mp.mpf(theta), mp.mpf(b.factor_C)
                inside = cdf(t, mp.mpf(hi)) - cdf(t, mp.mpf(lo))
                exact = mp.mpf(0)
                for k, (a, z) in zip(range(-3, 4), bounds):
                    a, z = mp.mpf(max(a, lo)), mp.mpf(min(z, hi))
                    s, alt = mp.mpf(b.net.points(k)), mp.mpf(k + shift)
                    exact += mp.quad(lambda x: pdf(alt, x) / pdf(s, x) * pdf(t, x), [a, z]) / C
                    inside -= cdf(t, z) - cdf(t, a)
                exact += inside / C
                assert abs(total - float(exact)) <= err + 1e-15, (theta, total, exact, err)
                assert err < 1e-10

    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.1])
    def test_kink_inside_a_cell_is_bisected(self, theta):
        """1{x > 0.123} jumps inside the cell [-1/2, 1/2): the pieces
        holding the jump are bisected until the two orders agree, and the
        reported error covers the true one, P(0.123 < X <= hi) over the
        window, with the error within the tolerance."""
        b = make_bundle("normal_mean", n=1)
        step = EVariable(fn=lambda x: float(x > 0.123))
        plan = ExpectationPlan()
        total, err, (lo, hi) = _window_quadrature(step, theta, b, plan)
        with mp.workdps(30):
            exact = mp.ncdf(hi, theta, 1) - mp.ncdf(mp.mpf(0.123), theta, 1)
        assert abs(total - float(exact)) <= err + 1e-15
        assert err <= _QUAD_TOL
        res = expectation(step, theta, b)
        assert res.estimate == total and res.error_bound >= err

    def test_a_rough_integrand_stops_at_the_round_cap(self):
        """Values that never settle (a fresh draw at every point) keep the
        two orders apart: bisection stops after its fixed rounds, each
        one block of points at most, and the error estimate it reports
        stays large."""
        b = make_bundle("normal_mean", n=1)
        rng = np.random.default_rng(0)
        sizes = []

        def noise(x):
            sizes.append(np.size(x))
            return rng.uniform(size=np.shape(x))

        total, err, _ = _window_quadrature(EVariable(noise, vectorized=True), 0.0, b,
                                           ExpectationPlan())
        assert 0.3 < total < 0.7 and err > 1e-4
        assert max(sizes) <= 2**16 and len(sizes) == 1 + _QUAD_ROUNDS

    def test_import_leaves_scipy_integrate_and_optimize_out(self):
        """``import evarify`` loads neither scipy.integrate nor the
        scipy.optimize it pulls in (a quarter second and tens of MB)."""
        code = ("import sys, evarify; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 [str(Path(__file__).resolve().parents[1] / "src"),
                                  os.environ.get("PYTHONPATH", "")])})
        assert out.stdout.strip() == "[]"


def _full_window(e, theta, b, plan=ExpectationPlan()):
    """The generic engines on the whole window, as they were before a
    composite's keyed cells: e evaluated at every support point of the
    window (and 8 more above it), or Gauss-Legendre on every cell of the
    window, with the same error terms.  (estimate, error bound)."""
    law = b.family.law
    lo, top = law.window(theta, plan.tail_mass).tolist()
    if law.discrete:
        xs = np.arange(lo, min(law.hi, top + 8.0) + 1.0)
        pmf = np.exp(b.family.log_density(theta, xs))
        values = _many(e, xs)
        estimate = float(np.dot(np.where(pmf > 0, values, 0.0), pmf))
        tail = max(0.0, 1.0 - float(np.sum(pmf)))
        return estimate, _tail_charge(e, tail, float(np.max(values[pmf > 0], initial=0.0))) + 1e-12
    knots = _statistic_knots(b, lo, top, None)
    edges = np.concatenate([[lo], knots[(lo < knots) & (knots < top)], [top]])

    def integrand(x):
        p = np.exp(b.family.log_density(theta, x))
        return np.where(p > 0.0, _many(e, x) * p, 0.0)

    values, err = _gauss_legendre(integrand, edges[:-1], edges[1:])
    total = math.fsum(values)
    coverage = law.cdf(theta, np.array([lo, top]))
    return total, err + _tail_charge(e, max(0.0, 1.0 - float(coverage[1] - coverage[0])),
                                     abs(total))


#: (family, params, theta, the likelihood ratio's alternative at key k,
#: key sets: with gaps, partly outside the window, wholly outside it, one)
_KEYED_CASES = [
    ("cauchy", {"epsilon": 0.2}, 0.5, lambda b, k: k + 0.3,
     {"gaps": (-3, -1, 2, 5), "partly_outside": (9998, 10001, 10003),
      "wholly_outside": (20000, 20002), "single": (0,)}),
    ("normal_mean", {"n": 1}, 0.5, lambda b, k: k + 0.4,
     {"gaps": (-3, -1, 2, 5), "partly_outside": (6, 8, 11),
      "wholly_outside": (-20, -15), "single": (0,)}),
    ("poisson", {}, 30.25, lambda b, k: 1.2 * k * k + 0.5,
     {"gaps": (1, 3, 6), "partly_outside": (8, 9, 12), "wholly_outside": (20, 25),
      "single": (5,)}),
    ("binomial", {"n": 64}, 0.3, lambda b, k: 0.9 * b.net.points(k) + 0.05,
     {"gaps": (2, 4, 6), "partly_outside": (5, 6, 7), "wholly_outside": (7,),
      "single": (3,)}),
]


def _window_of(b, theta):
    """The window as a run (w0, w1] of the law's line: a discrete law's
    points lo..top + 8 are (lo - 1, min(hi, top + 8)]."""
    law = b.family.law
    lo, top = law.window(theta, 1e-12).tolist()
    return (lo - 1.0, min(law.hi, top + 8.0)) if law.discrete else (lo, top)


class TestKeyedCells:
    """A composite of generic components integrates only its keyed cells
    in the window, and the runs between and beyond them at its default
    level 1/C from CDF values; an e without keys is keyed on the whole
    window.  The whole-window engines (``_full_window``) are the
    reference: the two agree within the sum of their bounds."""

    @pytest.mark.parametrize("case", ["gaps", "partly_outside", "wholly_outside", "single"])
    @pytest.mark.parametrize("name,kw,theta,alt,keys", _KEYED_CASES,
                             ids=[c[0] for c in _KEYED_CASES])
    def test_agrees_with_the_whole_window(self, name, kw, theta, alt, keys, case):
        b, ks = make_bundle(name, **kw), keys[case]
        cells, (w0, w1) = b.cell_bounds(ks), _window_of(b, theta)
        inside = (cells[:, 1] > w0) & (cells[:, 0] < w1)
        within = (cells[:, 0] >= w0) & (cells[:, 1] <= w1)
        assert {"gaps": inside.all() and (np.diff(ks) > 1).all(),
                "partly_outside": inside.any() and not within.all(),
                "wholly_outside": not inside.any(),
                "single": len(ks) == 1}[case]
        comp = combine_discrete(b, {k: likelihood_ratio_evar(b.family, b.net.points(k),
                                                             alt(b, k)) for k in ks})
        res = expectation(comp, theta)
        old, old_bound = _full_window(comp, theta, b)
        assert abs(res.estimate - old) <= res.error_bound + old_bound, (res, old, old_bound)
        if case == "wholly_outside":  # the level alone, over the whole window
            assert res.estimate == pytest.approx(float(np.diff(b.family.law.cdf(
                theta, np.array([w0, w1])))[0]) / comp.factor_C, rel=1e-14)

    @pytest.mark.parametrize("name,kw,theta,alt,keys", _KEYED_CASES,
                             ids=[c[0] for c in _KEYED_CASES])
    def test_an_e_without_keys_takes_the_whole_window(self, name, kw, theta, alt, keys):
        """A bare likelihood ratio has no ``_keys``: the engine is the
        whole-window one, to the bit."""
        b = make_bundle(name, **kw)
        lr = likelihood_ratio_evar(b.family, theta, alt(b, 1) if name == "binomial" else theta + 0.3)
        res = expectation(lr, theta, b)
        assert (res.estimate, res.error_bound) == _full_window(lr, theta, b)

    def test_no_key_in_the_net_is_the_level_on_the_whole_window(self):
        """Index 0 lies below the Poisson net (k_min = 1), so the estimator
        never selects it: the composite is 1/C everywhere."""
        b = make_bundle("poisson")
        comp = combine_discrete(b, {0: likelihood_ratio_evar(b.family, 1.0, 2.0)})
        assert comp.piecewise is None and not len(comp._keys.a)
        res = expectation(comp, 30.25)
        w0, w1 = _window_of(b, 30.25)
        mass = float(np.diff(b.family.law.cdf(30.25, np.array([w0, w1])))[0])
        assert res.estimate == (1.0 / comp.factor_C) * mass

    @pytest.mark.parametrize("name,kw,theta", [("cauchy", {"epsilon": 0.2}, 0.5),
                                               ("normal_mean", {"n": 1}, 2.25)])
    def test_the_level_over_the_runs_within_its_charge_of_mpmath(self, name, kw, theta):
        """The benchmark composite's three runs in its window (below key
        -3, a gap left by dropping key 0, above key 3): the level times
        their mass, against 30 digits, is within the derived charge, and
        the charge holds the 2r CDF values' own errors."""
        b, comp = _lr_composite(name, kw, 0.3)
        comp = combine_discrete(b, {k: v for k, v in comp.components.items() if k != 0})
        lo, hi = b.family.law.window(theta, 1e-12).tolist()
        _, (u, v), level = _keyed_cells(comp, lo, hi)
        rest, mass, charge = _default_level(b.family.law, theta, (u, v), level)
        assert len(u) == 3 and level == 1.0 / comp.factor_C
        with mp.workdps(30):
            if name == "cauchy":
                def cdf(x):
                    return mp.mpf(1) / 2 + mp.atan(mp.mpf(x) - mp.mpf(theta)) / mp.pi
            else:
                def cdf(x):
                    return mp.ncdf(mp.mpf(x), mp.mpf(theta), 1)
            exact = mp.mpf(level) * mp.fsum(cdf(z) - cdf(a) for a, z in zip(u, v))
        assert abs(rest - float(exact)) <= charge and rest == level * mass
        assert 6 * 5e-16 * level <= charge < 1e-14

    def test_the_cauchy_composite_sees_a_few_thousand_points(self, monkeypatch):
        """The benchmark's Cauchy composite, keys -3..3 in a window of
        about 2 * 10^4 cells: its integrand is evaluated on its 7 keyed
        cells alone (and their bisections).  The whole-window engine
        evaluates it on every cell, and breaks this guard."""
        b, comp = _lr_composite("cauchy", {"epsilon": 0.2}, 0.3)
        seen = []
        eval_many = CompositeEVariable.eval_many
        monkeypatch.setattr(CompositeEVariable, "eval_many",
                            lambda self, xs: seen.append(len(xs)) or eval_many(self, xs))
        for theta in (0.5, -1.7, 3.0):
            expectation(comp, theta)
        assert 0 < sum(seen) <= 3 * 4096
        seen.clear()
        _full_window(comp, 0.5, b)
        assert sum(seen) > 4096
