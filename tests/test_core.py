"""Core machinery: divergences, factors, nets, estimators, identities.

Expected values marked "oracle" were computed independently of the code
under test: direct probability-mass summation for divergences, 40-digit
formula evaluation (mpmath) for the factor constants, and adaptive
quadrature for the calibrator normalization.
"""

import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from evarify import combinator, core, verifier
from evarify.core import (
    BinomialSine,
    CeilDyadic,
    DomainError,
    DyadicInt,
    DyadicReal,
    Geometric,
    IntegerLattice,
    REpsilon,
    RoundToNet,
    ScaledLattice,
    Squares,
    calibrate_p_to_e,
    divergence,
    factor_from_growth,
    factor_from_steps,
    net_neighbors,
)
from evarify.families import make_bundle


class TestDivergence:
    def test_zero_on_diagonal(self):
        fam = make_bundle("poisson").family
        assert divergence(fam, 4.0, 4.0) == 0.0

    def test_normal_mean_closed_form(self):
        fam = make_bundle("normal_mean", n=4).family
        assert divergence(fam, 0.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_cauchy_log_form(self):
        fam = make_bundle("cauchy").family
        assert divergence(fam, 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_poisson_against_summation_oracle(self):
        """Oracle: sum_n p_1(n) log(p_1(n) / p_e(n)) truncated at n = 60,
        evaluated in 40-digit arithmetic; equals e - 2."""
        fam = make_bundle("poisson").family
        mp.mp.dps = 40
        lam1, lam2 = mp.mpf(1), mp.e
        oracle = mp.mpf(0)
        for n in range(61):
            p1 = mp.e ** (-lam1) * lam1**n / mp.factorial(n)
            p2 = mp.e ** (-lam2) * lam2**n / mp.factorial(n)
            oracle += p1 * mp.log(p1 / p2)
        value = divergence(fam, 1.0, math.e)
        assert value == pytest.approx(float(oracle), abs=1e-12)
        assert value == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_poisson_boundary_extension(self):
        # continuous extension at a zero rate estimate: d(0 || lam) = lam
        fam = make_bundle("poisson").family
        assert divergence(fam, 0.0, 2.5) == pytest.approx(2.5, abs=1e-15)

    def test_uniform_reversed_order_is_infinite(self):
        bundle = make_bundle("discrete_uniform")
        assert divergence(bundle.family, 8.0, 4.0) == math.inf

    def test_rejects_parameters_outside_space(self):
        fam = make_bundle("poisson").family
        with pytest.raises(DomainError):
            divergence(fam, 1.0, -2.0)
        with pytest.raises(DomainError):
            divergence(fam, -1.0, 2.0)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for bundle_name, sampler in [
            ("poisson", lambda: rng.uniform(0.01, 50.0, 2)),
            ("normal_variance", lambda: rng.uniform(0.01, 50.0, 2)),
            ("cauchy", lambda: rng.uniform(-50.0, 50.0, 2)),
        ]:
            kw = {"n": 4} if bundle_name == "normal_variance" else {}
            fam = make_bundle(bundle_name, **kw).family
            for _ in range(200):
                a, b = sampler()
                assert divergence(fam, a, b) >= 0.0


class TestFamily:
    def test_replace_wraps_each_callable_once(self):
        """``replace`` keeps the wrapped callables as they are and wraps
        only a new one: the family equals its copy, and a replaced
        divergence runs inside a single wrapper."""
        fam = make_bundle("cauchy").family
        assert replace(fam) == fam

        def plain(t1, t2):
            return np.abs(t1 - t2)
        swapped = replace(replace(fam, divergence_fn=plain))
        assert swapped.log_density is fam.log_density
        assert swapped.divergence_fn.__wrapped__ is plain
        assert swapped.divergence_fn(1.0, 3.0) == 2.0


class TestFactorFormulas:
    """The two normalizing-factor closed forms; oracle values are
    40-digit evaluations of the same expressions."""

    def test_growth_values(self):
        assert factor_from_growth(0.0, 1.0) == pytest.approx(9.0, abs=1e-12)
        assert factor_from_growth(0.0, 2.0) == pytest.approx(8.0, abs=1e-12)
        assert factor_from_growth(math.log(2.0), 1.0) == pytest.approx(18.0, abs=1e-12)

    def test_steps_values(self):
        assert factor_from_steps(0.0, math.log(2.0)) == pytest.approx(7.0, abs=1e-12)
        # oracle: e * (5 + 2 / (e - 1))
        assert factor_from_steps(1.0, 1.0) == pytest.approx(
            16.755362556033879, abs=1e-12
        )
        # oracle: exp(1/2) * (5 + 2 / (exp(1/32) - 1))
        assert factor_from_steps(0.5, 1.0 / 32.0) == pytest.approx(
            112.12163335779969, rel=1e-12
        )

    def test_monotonicity(self):
        alphas = np.linspace(0.1, 5.0, 40)
        vals = [factor_from_growth(0.3, a) for a in alphas]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        cps = np.linspace(0.0, 2.0, 40)
        vals = [factor_from_growth(c, 1.0) for c in cps]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        cs = np.linspace(0.05, 3.0, 40)
        vals = [factor_from_steps(0.2, c) for c in cs]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            factor_from_growth(0.0, 0.0)
        with pytest.raises(DomainError):
            factor_from_growth(0.0, -1.0)
        with pytest.raises(DomainError):
            factor_from_steps(0.0, 0.0)
        with pytest.raises(DomainError):
            factor_from_steps(-0.1, 1.0)


    def test_factors_beyond_the_floats_are_inf_or_exact(self):
        """A finite c' or c whose exponential overflows gives an infinite
        factor, or the formula's limit 5 e^c', not an OverflowError."""
        assert factor_from_growth(1e300, 1.0) == math.inf
        assert factor_from_steps(1e300, 1.0) == math.inf
        assert factor_from_steps(1.0, 1e300) == 5.0 * math.e


def _nan_bundle_composite():
    from evarify.combinator import combine_discrete

    return combine_discrete(make_bundle("poisson"), {}, factor_C=math.nan)


@pytest.mark.parametrize("build,value", [
    (_nan_bundle_composite, "nan"),
    (lambda: combinator.constant_evar(math.nan), "nan"),
    (lambda: core.FactorInputs(alpha=math.nan), "nan"),
    (lambda: core.FactorInputs(c=math.nan), "nan"),
    (lambda: factor_from_growth(math.nan, 1.0), "nan"),
    (lambda: factor_from_steps(math.inf, 1.0), "inf"),
    (lambda: verifier.ExpectationPlan(method="monte_carlo", mc_samples=2.5), "2.5"),
    (lambda: Geometric(math.nan), "nan"),
    (lambda: verifier.mle_counterexample_poisson(math.nan), "nan"),
    (lambda: verifier.mle_counterexample_poisson(math.inf), "inf"),
    (lambda: verifier.uniform_ceiling_budget_max(2.5), "2.5"),
], ids=["composite_factor_nan", "constant_nan", "factor_inputs_alpha_nan",
        "factor_inputs_c_nan", "growth_c_prime_nan", "steps_c_prime_inf",
        "fractional_mc_samples", "geometric_ratio_nan", "counterexample_lambda_nan",
        "counterexample_lambda_inf", "fractional_budget_n_max"])
def test_a_value_outside_its_domain_is_a_domain_error_naming_it(build, value):
    """NaN, an infinity or a fraction where the library's domain checks
    expect a number of their domain raises DomainError naming the value,
    not a wrong result or another exception."""
    with pytest.raises(DomainError, match=rf"\b{value}\b"):
        build()


class TestCalibrator:
    def test_endpoint(self):
        assert calibrate_p_to_e(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_values_against_direct_evaluation(self):
        assert calibrate_p_to_e(0.5, 0.04) == pytest.approx(2.5, abs=1e-12)
        assert calibrate_p_to_e(0.9, 0.5) == pytest.approx(
            0.9 * 0.5 ** (-0.1), abs=1e-12
        )

    def test_zero_p_gives_infinite_e(self):
        assert calibrate_p_to_e(0.5, 0.0) == math.inf

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9])
    def test_normalization_by_quadrature(self, kappa):
        """Oracle: adaptive quadrature of kappa * p^(kappa-1) over [0, 1]
        must integrate to 1 (the calibrator converts any p-variable into
        a unit-mean e-variable under a uniform p)."""
        val, err = integrate.quad(lambda p: kappa * p ** (kappa - 1.0), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            calibrate_p_to_e(1.0, 0.5)
        with pytest.raises(DomainError):
            calibrate_p_to_e(0.0, 0.5)
        with pytest.raises(DomainError):
            calibrate_p_to_e(0.5, 1.5)


def _log_ratio(fam, theta, s, x):
    return float(fam.log_density(theta, x)) - float(fam.log_density(s, x))


class TestLogLikelihoodRatio:
    def test_poisson_example_both_sides(self):
        """Oracle: evaluate the ratio directly and through the divergence
        difference; the two must agree to 1e-12."""
        fam = make_bundle("poisson").family
        lhs = _log_ratio(fam, 2.0, 4.0, 4)
        assert lhs == pytest.approx(4.0 * math.log(0.5) + 2.0, abs=1e-12)
        rhs = divergence(fam, 4.0, 4.0) - divergence(fam, 4.0, 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_identical_parameters(self):
        fam = make_bundle("cauchy").family
        assert _log_ratio(fam, 1.0, 1.0, 0.3) == 0.0

    def test_normal_symmetry(self):
        fam = make_bundle("normal_mean", n=1).family
        assert _log_ratio(fam, 0.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def _score(fam, theta, x, h=1e-5):
    """Central difference of the log-likelihood in theta."""
    up = float(fam.log_density(theta + h, x))
    down = float(fam.log_density(theta - h, x))
    return (up - down) / (2.0 * h)


class TestLikelihoodEquation:
    """The pointwise estimate g(x) of each exponential family is its
    maximum-likelihood estimate: it solves the likelihood equation of the
    family's log-density."""

    def test_poisson(self):
        fam = make_bundle("poisson").family
        assert fam.estimator_g(9) == 9.0
        assert _score(fam, 9.0, 9) == pytest.approx(0.0, abs=1e-8)

    def test_normal_mean(self):
        fam = make_bundle("normal_mean", n=2).family
        assert fam.estimator_g([1.0, 3.0]) == 2.0
        assert _score(fam, 2.0, [1.0, 3.0]) == pytest.approx(0.0, abs=1e-8)

    def test_normal_variance(self):
        fam = make_bundle("normal_variance", n=4).family
        x = [1.0, 1.0, 1.0, 1.0]
        assert fam.estimator_g(x) == 1.0
        assert _score(fam, 1.0, x) == pytest.approx(0.0, abs=1e-8)

    def test_binomial(self):
        fam = make_bundle("binomial", n=10).family
        assert fam.estimator_g(3) == pytest.approx(0.3, rel=1e-12)
        assert _score(fam, 0.3, 3, h=1e-6) == pytest.approx(0.0, abs=1e-6)


class TestBregmanDivergence:
    """The KL divergence of a canonical exponential family
    p_eta(x) = h(x) exp(eta T(x) - A(eta)) is the Bregman divergence of
    its cumulant: KL(eta1 || eta2) = A(eta2) - A(eta1) - A'(eta1)(eta2 - eta1)
    (Banerjee et al., JMLR 2005).  Each cumulant is written here, apart
    from the library's hand-written divergences."""

    CASES = {
        # name: (family, eta(theta), A(eta), A'(eta), thetas)
        "poisson": (
            make_bundle("poisson").family, np.log, np.exp, np.exp,
            [0.05, 0.7, 1.0, 4.0, 30.25, 500.0],
        ),
        "binomial": (
            make_bundle("binomial", n=16).family,
            lambda p: np.log(p) - np.log1p(-p),
            lambda eta: 16 * np.log1p(np.exp(eta)),
            lambda eta: 16 / (1.0 + np.exp(-eta)),
            [0.01, 0.2, 0.5, 0.77, 0.99],
        ),
        "normal_mean": (
            make_bundle("normal_mean", n=4).family, lambda mu: mu,
            lambda eta: 4 * eta * eta / 2.0, lambda eta: 4 * eta,
            [-7.0, -1.0, 0.0, 0.5, 3.25],
        ),
        "normal_variance": (
            make_bundle("normal_variance", n=8).family, lambda var: 1.0 / var,
            lambda eta: -(8 / 2.0) * np.log(eta), lambda eta: -(8 / 2.0) / eta,
            [0.01, 0.3, 1.0, 2.5, 90.0],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_kl_is_the_bregman_divergence_of_the_cumulant(self, name):
        fam, eta, A, dA, thetas = self.CASES[name]
        checked = 0
        for t1 in thetas:
            for t2 in thetas:
                e1, e2 = eta(t1), eta(t2)
                # the Bregman form cancels catastrophically as eta1 -> eta2
                if abs(e2 - e1) < 0.1:
                    continue
                bregman = A(e2) - A(e1) - dA(e1) * (e2 - e1)
                kl = float(fam.divergence_fn(t1, t2))
                assert kl == pytest.approx(bregman, rel=1e-9), (t1, t2)
                checked += 1
        assert checked == len(thetas) * (len(thetas) - 1)  # only t1 == t2 skipped


class TestNets:
    def test_dyadic_int_neighbors(self):
        pred, rnd, succ = net_neighbors(DyadicInt(), 5.0)
        assert (pred, rnd, succ) == (4.0, 4.0, 8.0)

    def test_squares_neighbors(self):
        assert net_neighbors(Squares(), 10.0) == (9.0, 9.0, 16.0)

    def test_scaled_lattice_neighbors(self):
        net = ScaledLattice(alpha=1.0, n=4)
        assert net_neighbors(net, 0.3) == (0.0, 0.5, 0.5)

    def test_extremes_return_none(self):
        net = DyadicInt()
        pred, rnd, succ = net_neighbors(net, 0.5)
        assert pred is None and rnd == 1.0 and succ == 1.0
        assert net_neighbors(Squares(), 0.2)[0] is None

    def test_on_net_point_is_strictly_bracketed(self):
        pred, rnd, succ = net_neighbors(DyadicInt(), 4.0)
        assert (pred, rnd, succ) == (2.0, 4.0, 8.0)

    def test_tie_breaks_upward(self):
        net = IntegerLattice()
        assert net.round(0.5) == 1.0
        assert net.round(-0.5) == 0.0
        lattice = ScaledLattice(alpha=1.0, n=16)  # spacing 0.25
        assert lattice.round(0.125) == 0.25

    def test_round_minimizes_distance(self):
        rng = np.random.default_rng(11)
        nets = [
            IntegerLattice(),
            ScaledLattice(alpha=0.7, n=3),
            Squares(),
            DyadicReal(),
            Geometric(1.5),
            BinomialSine(64),
        ]
        for net in nets:
            for _ in range(500):
                t = float(rng.uniform(0.05, 50.0))
                if isinstance(net, BinomialSine):
                    t = float(rng.uniform(0.0, 1.0))
                rnd = net.round(t)
                pred, succ = net.pred(t), net.succ(t)
                for other in (pred, succ):
                    if other is not None:
                        assert abs(t - rnd) <= abs(t - other) + 1e-15

    def test_strictly_increasing_points(self):
        for net, ks in [
            (Squares(), range(1, 200)),
            (DyadicReal(), range(-40, 40)),
            (Geometric(1.25), range(-50, 50)),
            (BinomialSine(256), range(1, 16)),
        ]:
            pts = [net.points(k) for k in ks]
            assert all(b > a for a, b in zip(pts, pts[1:]))

    def test_geometric_consecutive_points_keep_the_ratio(self):
        net = Geometric(1.5)
        assert net.points(3) == pytest.approx(3.375, rel=1e-15)
        assert net.points(-2) == pytest.approx(4 / 9, rel=1e-15)
        # long windows stay consistent: ratio of consecutive points is
        # the ratio to the last few ulps
        for k in (-1000, -500, 100, 999):
            ratio = net.points(k + 1) / net.points(k)
            assert ratio == pytest.approx(1.5, rel=1e-15)

    def test_count_between(self):
        net = IntegerLattice()
        assert net.count_between(0.5, 4.5) == 4
        assert net.count_between(1.0, 4.0) == 2  # open interval
        assert net.count_between(4.0, 1.0) == 0
        sq = Squares()
        assert sq.count_between(0.5, 17.0) == 4  # 1, 4, 9, 16

    def test_binomial_sine_in_unit_interval(self):
        net = BinomialSine(64)
        pts = [net.points(k) for k in net.indices()]
        assert all(0.0 < p < 1.0 for p in pts)
        assert len(pts) == 7

    @pytest.mark.parametrize("net,beyond", [
        (DyadicInt(), [-1, -5]), (Squares(), [0, -2]), (BinomialSine(64), [0, -1, 8, 9])])
    def test_points_beyond_a_bounded_net_raise(self, net, beyond):
        """An index beyond a bounded net is an error, alone or in an array
        (numpy would wrap a negative index into a table, and a negative
        power is no net point); the indices inside give their points."""
        inside = list(range(net.k_min, net.k_min + 3 if net.k_max is None else net.k_max + 1))
        assert net.points(inside).tolist() == [net.points(k) for k in inside]
        for k in beyond:
            with pytest.raises(DomainError, match="k_min"):
                net.points(k)
            with pytest.raises(DomainError):
                net.points([*inside, k])


class TestEstimators:
    def test_ceil_dyadic_integers(self):
        est = CeilDyadic(DyadicInt())
        # 5 -> 8, 0 and 1 -> 1, 8 -> 8
        assert [est.index(v) for v in (5, 0, 1, 8)] == [3, 0, 0, 3]

    def test_ceil_dyadic_reals(self):
        est = CeilDyadic(DyadicReal())
        # 0.3 and 0.5 -> 0.5, 5 -> 8
        assert [est.index(v) for v in (0.3, 0.5, 5.0)] == [-1, -1, 3]

    def test_ceil_dyadic_bundles_reject_off_their_support(self):
        """The estimator takes statistic values unchecked; the bundle's
        ``locate`` rejects a non-integer or negative count and a
        non-positive real before it is reached."""
        du, cu = make_bundle("discrete_uniform"), make_bundle("continuous_uniform")
        for bundle, x in ((du, 2.5), (du, -1), (cu, 0.0)):
            with pytest.raises(DomainError):
                bundle.estimate(x)

    def test_round_to_net_cells_partition(self):
        """Each value lies in the [lo, hi) cell of its index, not in the
        next one; the batch index equals the one-value index."""
        est = RoundToNet(Squares())
        rng = np.random.default_rng(3)
        v = rng.uniform(0.0, 500.0, 2000)
        k = est.index(v)
        assert k.tolist() == [est.index(float(x)) for x in v]
        assert not est.right_closed
        (lo, hi), (lo1, hi1) = est.edges(k).T, est.edges(k + 1).T
        assert np.all((lo <= v) & (v < hi))
        assert not np.any((lo1 <= v) & (v < hi1))

    def test_r_epsilon_matches_rounding_away_from_half_integers(self):
        est = REpsilon(0.2)
        rng = np.random.default_rng(5)
        for v in rng.uniform(-20.0, 20.0, 3000):
            frac = v - math.floor(v)
            if abs(frac - 0.5) > 0.2:
                assert est.index(float(v)) == math.floor(v + 0.5)

    def test_r_epsilon_neighbourhood_choices(self):
        up = REpsilon(0.2, tie="up")
        even = REpsilon(0.2, tie="even")
        for x in (0.35, 0.5, 0.65):
            assert up.index(x) == 1
            assert even.index(x) == 0
        for x in (1.35, 1.5, 1.65):
            assert even.index(x) == 2

    def test_r_epsilon_has_no_down_tie(self):
        """The tie rules are the bundles' "up" and the even/odd split's
        "even" and "odd"; any other is a DomainError."""
        with pytest.raises(DomainError, match="down"):
            REpsilon(0.2, tie="down")

    def test_r_epsilon_rejects_large_epsilon(self):
        with pytest.raises(DomainError):
            REpsilon(0.25)

    def test_r_epsilon_cells_partition_line(self):
        est = REpsilon(0.2)
        rng = np.random.default_rng(9)
        v = rng.uniform(-10.0, 10.0, 3000)
        k = est.index(v)
        assert k.tolist() == [est.index(float(x)) for x in v]
        lo, hi = est.edges(k).T
        assert not est.right_closed and np.all((lo <= v) & (v < hi))

    def test_discrete_cell_bounds_hold_the_cells_integers(self):
        """On a discrete law a cell's bounds are the support point before
        its first integer and its last: an integer edge counts where the
        cell holds it, and the support's ends close a cell they clip."""
        du, pois = make_bundle("discrete_uniform"), make_bundle("poisson")
        # {0, 1} (everything up to 1) and (4, 8]
        assert du.cell_bounds([0, 3]).tolist() == [[-1.0, 1.0], [4.0, 8.0]]
        # (-inf, 2.5) clipped to the support, and [6.5, 12.5)
        assert pois.cell_bounds([1, 3]).tolist() == [[-1.0, 2.0], [6.0, 12.0]]
        # [-1, 1) and [1, 3): integer edges held on the left only
        even = replace(pois, estimator=RoundToNet(ScaledLattice(alpha=2.0, n=1)))
        assert even.cell_bounds([0, 1]).tolist() == [[-1.0, 0.0], [0.0, 2.0]]


class TestGeometricPoints:
    @pytest.mark.parametrize("n", [1, 4, 9, 64, 256])
    def test_square_n_points_are_near_the_rational_powers(self, n):
        """Over the normal floats each point of the net of r = 1 + 1/sqrt(n)
        lies within (|k| (1 + 2 |log r|) + 4) 2^-53 of float(r^k), relative:
        the rounding of r, of k log r and of exp."""
        net = make_bundle("normal_variance", n=n).net
        a, b = math.isqrt(n) + 1, math.isqrt(n)  # r = a / b
        log_r = math.log(a / b)
        k_lo, k_hi = math.ceil(-1022 * math.log(2) / log_r) + 1, math.floor(1024 * math.log(2) / log_r) - 1
        got = net.points(range(k_lo, k_hi + 1)).tolist()
        for sign, ks in ((1, range(0, k_hi + 1)), (-1, range(0, -k_lo + 1))):
            num = den = 1
            for m in ks:  # (a / b)^(sign m), a power stepped up by one factor
                if m:
                    num, den = (num * a, den * b) if sign > 0 else (num * b, den * a)
                k = sign * m
                exact = num / den  # the correctly rounded quotient
                bound = (m * (1.0 + 2.0 * abs(log_r)) + 4.0) * 2.0**-53
                assert abs(got[k - k_lo] - exact) <= bound * exact, (n, k)

    def test_no_net_changes_its_state_across_calls(self):
        """Points, floors and neighbours are pure: no net's attributes are
        replaced or edited by any access."""
        import copy

        nets = [net for net, *_ in _NETS] + [make_bundle("normal_variance", n=n).net
                                             for n in (4, 5)]
        for net in nets:
            before = dict(vars(net))
            copies = copy.deepcopy(before)
            t = np.geomspace(1e-3, 1e3, 64) if not isinstance(net, BinomialSine) \
                else np.linspace(0.01, 0.99, 64)
            ks = range(-40 if net.k_min is None else net.k_min,
                       41 if net.k_max is None else net.k_max + 1)
            net.points(ks)
            for access in (net.pred, net.succ, net.round_index, net.round):
                access(t)
                access(float(t[7]))
            net.count_between(t, t[::-1])
            RoundToNet(net).edges(ks)
            after = vars(net)
            assert after.keys() == before.keys(), type(net).__name__
            for key, value in before.items():
                assert after[key] is value, (type(net).__name__, key)
                assert np.array_equal(value, copies[key]), (type(net).__name__, key)

    @pytest.mark.parametrize("n", [64, 5])
    def test_index_at_2_53_raises(self, n):
        net = make_bundle("normal_variance", n=n).net
        for k in (2**53, -2**53, [0, 2**53]):
            with pytest.raises(DomainError, match="2\\*\\*53"):
                net.points(k)
        with pytest.raises(DomainError, match="2\\*\\*53"):
            net.round_index(math.inf)


# ---------------------------------------------------------------------------
# The array primitives against scalar reference loops
# ---------------------------------------------------------------------------

_ROOT5 = 1.0 + 1.0 / math.sqrt(5)

#: (net, its k-th point from the closed form one index at a time, the
#: index range the reference floor searches, the indices whose points and
#: midpoints are probed, the range of the random probes)
_NETS = [
    (IntegerLattice(), lambda k: float(k), (-2**53 + 1, 2**53 - 1), range(-40, 40), (-1e15, 1e15)),
    (ScaledLattice(alpha=0.7, n=3), lambda k: k * (0.7 / math.sqrt(3)), (-2**52, 2**52),
     [*range(-40, 40), -2**50, 2**50], (-1e12, 1e12)),
    (DyadicInt(), lambda k: float(2.0 ** k), (0, 1023), range(0, 80), (0.0, 1e20)),
    (DyadicReal(), lambda k: float(2.0 ** k), (-1074, 1023), range(-1073, 1023, 7), (1e-300, 1e300)),
    (Squares(), lambda k: float(k * k), (1, 2**40), [*range(1, 200), 10**9], (0.0, 1e9)),
    (Geometric(1.125), lambda k: float(np.exp(k * math.log(1.125))),
     (-2000, 2000), range(-300, 300, 3), (1e-90, 1e90)),
    (Geometric(_ROOT5), lambda k: float(np.exp(k * math.log(_ROOT5))), (-2000, 2000),
     range(-300, 300, 3), (1e-90, 1e90)),
    (BinomialSine(64), lambda k: math.sin(math.pi * k / 16) ** 2, (1, 7), range(1, 8), (0.0, 1.0)),
]


def _ref_floor(point, k_range, t):
    """The largest k in k_range with point(k) <= t, or None below them all:
    a bisection over the closed-form points."""
    lo, hi = k_range
    if point(lo) > t:
        return None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if point(mid) <= t else (lo, mid - 1)
    return lo


def _ref_access(net, point, k_range, t):
    """(pred, succ, round index) of t as the scalar Net methods computed
    them, from the reference floor."""
    k = _ref_floor(point, k_range, t)
    pk = None if k is None else (k - 1 if point(k) == t else k)
    if pk is not None and net.k_min is not None and pk < net.k_min:
        pk = None
    sk = (net.k_min - 1 if k is None else k) + 1
    sk = None if net.k_max is not None and sk > net.k_max else sk
    if k is None:
        rk = net.k_min
    elif net.k_max is not None and k + 1 > net.k_max:
        rk = k
    else:
        rk = k if t < 0.5 * (point(k) + point(k + 1)) else k + 1
    return pk, sk, rk


def _probes(point, ks, rng, span):
    pts = np.array([point(int(k)) for k in ks])
    mids = 0.5 * (pts[:-1] + pts[1:])
    base = np.concatenate([rng.uniform(*span, 200), pts, mids])
    return np.concatenate([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)])


class TestArrayPrimitives:
    @pytest.mark.parametrize("entry", _NETS, ids=lambda e: type(e[0]).__name__)
    def test_net_primitives_match_scalar_loops(self, entry):
        """points, the floor, pred, succ, round_index and count_between
        on arrays equal scalar loops from each net's closed form, at
        random values, net points, midpoints and their float neighbours;
        one value gives the scalar (None beyond the net)."""
        net, point, k_range, ks, span = entry
        ks = np.array(ks)
        assert net.points(ks).tolist() == [point(int(k)) for k in ks]
        assert net.points(int(ks[3])) == point(int(ks[3]))
        rng = np.random.default_rng(17)
        t = _probes(point, ks, rng, span)
        t = t[t > 0.0] if isinstance(net, (DyadicReal, Geometric)) else t
        want = [_ref_access(net, point, k_range, float(v)) for v in t]
        floor = [_ref_floor(point, k_range, float(v)) for v in t]
        below = net.k_min - 1 if net.k_min is not None else None
        assert net._floor(t).tolist() == [below if k is None else k for k in floor]
        pred, succ, rnd = net.pred(t), net.succ(t), net.round_index(t)
        assert [None if np.isnan(p) else p for p in pred.tolist()] == \
            [None if k is None else point(k) for k, _, _ in want]
        assert [None if np.isnan(p) else p for p in succ.tolist()] == \
            [None if k is None else point(k) for _, k, _ in want]
        assert rnd.tolist() == [k for _, _, k in want]
        for j in rng.integers(0, len(t), 20):
            v = float(t[j])
            assert net_neighbors(net, v) == (
                None if want[j][0] is None else point(want[j][0]), point(want[j][2]),
                None if want[j][1] is None else point(want[j][1]))
        a, b = t, rng.permutation(t)
        counts = []
        for x, y in zip(a.tolist(), b.tolist()):
            ka, kb = _ref_access(net, point, k_range, x)[1], _ref_access(net, point, k_range, y)[0]
            counts.append(0 if not x < y or ka is None or kb is None else max(0, kb - ka + 1))
        assert net.count_between(a, b).tolist() == counts
        assert net.count_between(float(a[0]), float(b[0])) == counts[0]

    @pytest.mark.parametrize("net", [IntegerLattice(), ScaledLattice(alpha=1.0, n=16), Squares()])
    def test_index_beyond_float_resolution_raises(self, net):
        """Where the index reaches 2**53 the points are no longer distinct
        floats: the floor raises instead of searching (or overflowing)."""
        t = 2.0 ** 53 * (net.points(1) - net.points(0)) if not isinstance(net, Squares) else 2.0**106
        with pytest.raises(DomainError, match="2\\*\\*53"):
            net.round_index(t)
        with pytest.raises(DomainError):
            net.count_between(np.array([0.0, 1.0]), np.array([2.0, math.nan]))


#: the benchmark's nine discrete-mode family configurations
BENCHMARK_CONFIGS = [
    ("binomial", {"n": 64}),
    ("binomial", {"n": 10_000}),
    ("discrete_uniform", {}),
    ("poisson", {}),
    ("continuous_uniform", {}),
    ("normal_mean", {"n": 1}),
    ("normal_mean", {"n": 16}),
    ("normal_variance", {"n": 64}),
    ("cauchy", {"epsilon": 0.2}),
]

def _old_cell(est, k):
    """Cell k as (lo, hi, lo_closed, hi_closed), built as the removed
    ``Estimator.cell`` built its ``Cell``, one index at a time."""
    net = est.net
    if isinstance(est, RoundToNet):
        s = net.points(k)
        if net.k_min is not None and k == net.k_min:
            lo, lo_closed = -math.inf, False
        else:
            lo, lo_closed = 0.5 * (net.points(k - 1) + s), True
        if net.k_max is not None and k == net.k_max:
            hi, hi_closed = math.inf, False
        else:
            hi, hi_closed = 0.5 * (s + net.points(k + 1)), False
        return lo, hi, lo_closed, hi_closed
    if isinstance(est, CeilDyadic):
        if isinstance(net, DyadicInt) and k == 0:
            return 0.0, 1.0, True, True
        return net.points(k - 1), net.points(k), False, True
    choice, eps = (lambda m: m + 1), est.epsilon  # the bundles' tie rule, "up"
    left = k - 0.5 - eps if choice(k - 1) == k else k - 0.5 + eps
    right = k + 0.5 + eps if choice(k) == k else k + 0.5 - eps
    return left, right, True, False


def _old_support_bounds(cell, lo, top):
    """(first - 1, last) of the integers in the cell clipped to [lo, top],
    as ``Cell.clip`` and ``Cell.integer_range`` gave them."""
    a, b, a_closed, b_closed = cell
    if lo > a:
        a, a_closed = lo, True
    if top < b:
        b, b_closed = top, True
    first = math.ceil(a) + (math.ceil(a) == a and not a_closed)
    last = math.floor(b) - (math.floor(b) == b and not b_closed)
    return float(first - 1), float(last)


def _extreme_indices(b):
    net = b.net
    if net.k_max is not None:
        return list(range(net.k_min, net.k_max + 1))
    if isinstance(net, DyadicInt):
        return list(range(0, 70))  # beyond 2**62 the support is clipped
    if isinstance(net, Squares):
        return [*range(1, 3000), 10**6, 10**8]
    if isinstance(net, DyadicReal):
        return [*range(-1074, -1000), *range(-30, 30), *range(1000, 1024)]
    if isinstance(net, Geometric):
        return [-2000, *range(-200, 200), 2000]
    return [-2**50, *range(-10_000, 10_001), 2**50]  # lattices: the Cauchy window


class TestEdges:
    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_edges_and_cell_bounds_match_the_cell_loop(self, name, kw):
        """edges(ks) holds each old Cell's ends with its closure (the
        class's right_closed, where an end is finite; the integer dyadic
        net's first cell reaches down to -inf, {0, 1} on the support), and
        cell_bounds equals the old per-cell conversion, at the net's
        extreme indices."""
        b = make_bundle(name, **kw)
        est, law = b.estimator, b.family.law
        ks = _extreme_indices(b)
        cells = [_old_cell(est, k) for k in ks]
        e = est.edges(ks)
        assert e.shape == (len(ks), 2)
        for k, (lo, hi), (old_lo, old_hi, lo_closed, hi_closed) in zip(ks, e.tolist(), cells):
            if isinstance(b.net, DyadicInt) and k == 0:
                assert (lo, hi) == (-math.inf, 1.0) and est.right_closed
                continue
            assert (lo, hi) == (old_lo, old_hi), k
            assert not math.isfinite(lo) or lo_closed is not est.right_closed, k
            assert not math.isfinite(hi) or hi_closed is est.right_closed, k
        assert est.edges(ks[1]).tolist() == e[1].tolist()
        bounds = b.cell_bounds(ks).tolist()
        if law.discrete and law.hi < math.inf:
            return  # the counts' cells, from their indices (test_families)
        if law.discrete:
            top = min(law.hi, 2.0**62)
            assert bounds == [list(_old_support_bounds(c, law.lo, top)) for c in cells]
        else:
            assert bounds == [[min(max(c[0], law.lo), law.hi), min(max(c[1], law.lo), law.hi)]
                              for c in cells]

    @pytest.mark.parametrize("tie,choice", [
        ("up", lambda m: m + 1),
        ("even", lambda m: m if m % 2 == 0 else m + 1),
        ("odd", lambda m: m if m % 2 != 0 else m + 1)])
    def test_r_epsilon_tie_rules_match_their_scalar_choice(self, tie, choice):
        """Each tie rule's index and edges equal the scalar rule that
        chose m or m + 1 on the neighbourhood of m + 1/2 (as a callable)."""
        est, eps = REpsilon(0.2, tie=tie), 0.2
        ns = np.arange(-30, 31)
        half = ns + 0.5
        v = np.concatenate([half, half - eps, half + eps, np.nextafter(half - eps, -1e9),
                            np.nextafter(half + eps, -1e9), ns + 0.1])

        def old_index(x):
            m = math.floor(x)
            if x < m + 0.5 - eps:
                return m
            return choice(m) if x < m + 0.5 + eps else m + 1

        assert est.index(v).tolist() == [old_index(float(x)) for x in v]
        assert est.edges(ns).tolist() == [
            [n - 0.5 - eps if choice(n - 1) == n else n - 0.5 + eps,
             n + 0.5 + eps if choice(n) == n else n + 0.5 - eps] for n in ns.tolist()]

    def test_twenty_thousand_cauchy_cells_in_one_pass(self):
        """The Cauchy window's cells come from one array expression: the
        median of 20 calls stays far below the 50 ms that one Cell per
        index took (it is under 1 ms on 2 shared cores; the bound leaves
        room for a loaded machine)."""
        import time

        b = make_bundle("cauchy", epsilon=0.2)
        ks = range(-10_000, 10_001)
        times = []
        for _ in range(20):
            start = time.perf_counter()
            bounds = b.cell_bounds(ks)
            times.append(time.perf_counter() - start)
        assert bounds.shape == (20_001, 2)
        assert float(np.median(times)) < 0.02


class TestGeometricBeyondTheFloats:
    @pytest.mark.parametrize("n", [64, 5, 10**4])
    def test_far_points_are_zero_and_inf_at_once(self, n):
        """Points below the floats are 0.0 and points above the largest
        float inf, at once, however far the index."""
        net = make_bundle("normal_variance", n=n).net
        start = time.perf_counter()
        assert net.points([-10**15, 10**15]).tolist() == [0.0, math.inf]
        assert time.perf_counter() - start < 0.05
        assert net.points([-10**6, 10**6]).tolist() == [0.0, math.inf]
        k = net.round_index(1.7e308)
        assert isinstance(k, int) and net.points(k - 1) < 1.7e308

    @pytest.mark.parametrize("n", [4, 64])
    def test_midpoints_of_the_top_points_stay_finite(self, n):
        """The cell edge between the two net points below the largest
        float is their midpoint, finite and without an overflow warning
        (their sum overflows), and rounding agrees with it; every other
        midpoint is 0.5 (x + y), bit for bit."""
        b = make_bundle("normal_variance", n=n)
        net, est = b.net, b.estimator
        top = net.round_index(1.7e308)
        k = np.arange(top - 40, top + 1)
        pts = net.points(k)
        with np.errstate(over="raise"):
            edges = est.edges(k)
            assert np.isfinite(edges[:-1]).all() and edges[-1, 0] < math.inf
            mids = core._midpoint(pts[:-1], pts[1:])
            assert (net.round_index(mids) == k[1:]).all()
            assert (net.round_index(np.nextafter(mids, 0.0)) == k[:-1]).all()
        with np.errstate(over="ignore"):
            plain = 0.5 * (pts[:-1] + pts[1:])
        fits = np.isfinite(plain)
        assert not fits.all() and (mids[fits] == plain[fits]).all()
        assert (edges[1:, 0] == mids).all()


def _reference_call(pw, v):
    """``Piecewise.__call__`` as it was read before the padded gather: a
    mask of the points inside the edges and two ``np.where``."""
    v = np.asarray(v, dtype=float)
    if not len(pw.a):
        return np.full(v.shape, pw.outside)
    if pw.period is not None:
        p, e0 = pw.period, pw.edges[0]
        v = v - p * np.floor((v - e0) / p)
        v = v + np.where(v < e0, p, np.where(v >= pw.edges[-1], -p, 0.0))
    i = pw.edges.searchsorted(v, "left" if pw.right_closed else "right") - 1
    inside = (i >= 0) & (i < len(pw.a))
    i = np.where(inside, i, 0)
    return np.where(inside, pw.a[i] + pw.b[i] * v, pw.outside)


def _test_piecewises():
    """(id, piecewise) of each kind: constant, flat, ramped and periodic,
    right-closed and open, with outside NaN, 0 and 1."""
    from evarify.core import Piecewise

    rng = np.random.default_rng(34)
    edges = np.sort(rng.uniform(-5.0, 5.0, 9))
    a = rng.uniform(0.1, 3.0, 8)
    b = np.where(np.arange(8) % 3 == 0, 0.0, rng.uniform(-2.0, 2.0, 8))
    shipped = combinator.interpolated_spike_composite(make_bundle("cauchy"), 0.2, 1.0).piecewise
    for outside in (math.nan, 0.0, 1.0):
        yield f"constant-{outside}", Piecewise.constant(outside)
        for closed in (False, True):
            for kind, slopes in (("flat", np.zeros(8)), ("ramped", b)):
                yield (f"{kind}-{closed}-{outside}",
                       Piecewise(edges, a, slopes, outside, right_closed=closed))
            yield (f"periodic-{closed}-{outside}",
                   Piecewise(edges[:4], a[:3], b[:3], outside, closed, edges[3] - edges[0]))
    yield "periodic-cauchy", shipped


def _bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


class TestPiecewiseGather:
    @pytest.mark.parametrize("pw", [pw for _, pw in _test_piecewises()],
                             ids=[name for name, _ in _test_piecewises()])
    def test_the_gather_is_the_masked_read_bit_for_bit(self, pw):
        """One search and one gather from the padded levels give the
        masked read's bits at random points, at every edge and its two
        neighbours, and at the floats' special values; one point keeps
        its 0-d shape."""
        rng = np.random.default_rng(7)
        e = pw.edges
        lo, hi = (float(e[0]), float(e[-1])) if len(e) else (-1.0, 1.0)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324]
        v = np.concatenate([rng.uniform(lo - 3.0 * (hi - lo), hi + 3.0 * (hi - lo), 2000),
                            e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf), special])
        with np.errstate(invalid="ignore"):  # inf - inf into the period
            got, want = pw(v), _reference_call(pw, v)
            assert _bits(got) == _bits(want)
            for x in (*special, *e[:2]):
                one = pw(x)
                assert isinstance(one, np.ndarray) and one.shape == ()
                assert _bits(one) == _bits(_reference_call(pw, x))
            grid = v[:60].reshape(3, 4, 5)
            assert _bits(pw(grid)) == _bits(_reference_call(pw, grid))

    def test_a_negative_zero_level_and_an_infinite_edge_read_as_levels(self):
        """Where no piece ramps the gather returns a level as it is: -0.0
        stays -0.0 (the masked read's -0.0 + 0 v gave +0.0 at v >= 0),
        and a piece reaching -inf gives its level there (0 * -inf gave
        NaN).  Where a piece ramps, an ``outside`` of -0.0 reads
        -0.0 + 0 v beyond the edges."""
        from evarify.core import Piecewise

        flat = Piecewise(np.array([0.0, 1.0, 2.0]), np.array([-0.0, 2.0]), np.zeros(2), 1.0)
        assert _bits(flat(np.array([0.5, 1.5, 3.0]))) == _bits([-0.0, 2.0, 1.0])
        assert _bits(_reference_call(flat, 0.5)) == _bits(0.0)
        down = Piecewise(np.array([-math.inf, 0.0]), np.array([3.0]), np.zeros(1), 1.0)
        with np.errstate(invalid="ignore"):
            assert down(-math.inf) == 3.0 and math.isnan(_reference_call(down, -math.inf))
        ramp = Piecewise(np.array([0.0, 1.0]), np.array([1.0]), np.array([2.0]), -0.0)
        assert _bits(ramp(np.array([2.0, -3.0]))) == _bits([0.0, -0.0])
        assert _bits(_reference_call(ramp, 2.0)) == _bits(-0.0)

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_no_shipped_composite_has_a_negative_zero_level(self, name, kw):
        """The spikes over the default grid, the ``ones`` suite and the
        interpolated composites have no level -0.0, in a piece or
        outside, so the gather reads every one as the masked read did."""
        b = make_bundle(name, **kw)
        pws = [verifier.spike_composite(b).piecewise, combinator.combine_discrete(b, {}).piecewise]
        if b.family.law.moment is not None:
            pws += [combinator.interpolated_spike_composite(b, eps, 1.0).piecewise
                    for eps in verifier._FACTOR_EPSILONS]
        for pw in pws:
            levels = np.append(pw.a, pw.outside)
            assert not np.any((levels == 0.0) & np.signbit(levels))
