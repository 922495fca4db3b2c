"""Expectation engines, spike suites, sweeps, and counterexamples."""

import math
import os
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
    EVariable,
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
from evarify.verifier import _MC_BLOCK, _QUAD_ROUNDS, _QUAD_TOL, _rng_for, _window_quadrature


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


def _one_theta_reference(pw, law, tail, theta):
    """Oracle: the closed-form engine written out for one theta, each
    copy's shifted edges and coefficients built for it alone; (estimate,
    error bound)."""
    from evarify.core import _CDF_EPS, _UNIT_ROUNDOFF

    n = len(pw.a)

    def at(v):
        return np.array(law.moment(theta, v) if pw.ramps else [law.cdf(theta, v)])
    if pw.period:
        j = [math.floor((v - pw.edges[0]) / pw.period) for v in law.window(theta, tail)]
        s = pw.period * np.arange(j[0], j[1] + 2.0)
        rows, J = [at(e + s) for e in pw.edges[:-1]], len(s) - 1
        parts = [(pw.a[i], pw.b[i], s[:J], rows[i][:, :J],
                  rows[i + 1][:, :J] if i + 1 < n else rows[0][:, 1:]) for i in range(n)]
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
    count = sum(part[3].shape[1] for part in parts)
    estimate += rest * (pw.sup if pw.period else pw.outside)
    eb = _CDF_EPS * (count + 2.0) * max(1.0, pw.sup)
    eb += _CDF_EPS * at_edges + _UNIT_ROUNDOFF * (count + 2.0) * terms
    if pw.period:
        ends = np.minimum(pw.a + pw.b * pw.edges[:-1], pw.a + pw.b * pw.edges[1:])
        eb += rest * (pw.sup - float(ends.min()))
    return estimate, eb


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
        assert [row[1:3] for row in rows] == [_one_theta_reference(pw, law, 1e-12, t)
                                             for t in grid]

    @pytest.mark.parametrize("name", ["cauchy", "normal_mean"])
    def test_interpolated_rows_far_apart(self, name):
        """Windows a million periods apart each get a table of their own,
        with the same rows."""
        comp = _certified_composite(name, {"epsilon": 0.2}, True)
        law, pw = comp.bundle.family.law, comp.piecewise
        grid = [-1e6, 0.3, 1e6]
        rows = sweep(comp, grid).rows
        assert rows == self._rows_alone(comp, grid)
        assert [row[1:3] for row in rows] == [_one_theta_reference(pw, law, 1e-12, t)
                                             for t in grid]

    def test_far_apart_windows_take_little_memory(self):
        """Each table spans at most twice its longest row: thetas 2e9
        apart cost a few rows of copies, not a table over the 2e9 periods
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

    def test_copy_groups_span_at_most_twice_their_longest_row(self):
        from evarify.verifier import _copy_groups

        windows = [[10, 20], [0, 10], [5, 15], [100, 104], [12, 30], [-10**9, -10**9 + 3]]
        groups = _copy_groups(windows)
        assert sorted(k for *_, members in groups for k in members) == list(range(6))
        for lo, hi, longest, members in groups:
            assert lo == min(windows[k][0] for k in members)
            assert hi == max(windows[k][1] for k in members)
            assert longest == max(windows[k][1] - windows[k][0] + 1 for k in members)
            assert hi - lo + 1 <= 2 * longest
        assert [members for *_, members in groups] == [[5], [1, 2, 0, 4], [3]]


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
            _bits(*_one_theta_reference(pw, law, 1e-12, t)) for t in grid]
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
        """Cauchy epsilon = 0.2 has 22,007 edges, more than a tile: each
        row is a call of its own."""
        from evarify import verifier

        b = make_bundle("cauchy", epsilon=0.2)
        grid = default_theta_grid(b)
        pw = spike_composite(b, grid).piecewise
        assert len(pw.edges) > verifier._TILE_VALUES
        calls = self._sweep(pw, b.family.law, grid, verifier._TILE_VALUES, monkeypatch)
        assert [len(thetas) for _, thetas, _ in calls] == [1] * len(grid)


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
