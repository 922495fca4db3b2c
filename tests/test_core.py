"""Core machinery: divergences, factors, nets, estimators, identities.

Expected values marked "oracle" were computed independently of the code
under test: direct probability-mass summation for divergences, 40-digit
formula evaluation (mpmath) for the factor constants, and adaptive
quadrature for the calibrator normalization.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from evarify.core import (
    BinomialSine,
    Cell,
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
from evarify.families import (
    binomial_family,
    cauchy_family,
    make_bundle,
    normal_mean_family,
    normal_variance_family,
    poisson_family,
)


class TestDivergence:
    def test_zero_on_diagonal(self):
        fam = poisson_family()
        assert divergence(fam, 4.0, 4.0) == 0.0

    def test_normal_mean_closed_form(self):
        fam = normal_mean_family(4)
        assert divergence(fam, 0.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_cauchy_log_form(self):
        fam = cauchy_family()
        assert divergence(fam, 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_poisson_against_summation_oracle(self):
        """Oracle: sum_n p_1(n) log(p_1(n) / p_e(n)) truncated at n = 60,
        evaluated in 40-digit arithmetic; equals e - 2."""
        fam = poisson_family()
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
        fam = poisson_family()
        assert divergence(fam, 0.0, 2.5) == pytest.approx(2.5, abs=1e-15)

    def test_uniform_reversed_order_is_infinite(self):
        bundle = make_bundle("discrete_uniform")
        assert divergence(bundle.family, 8.0, 4.0) == math.inf

    def test_rejects_parameters_outside_space(self):
        fam = poisson_family()
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
        fam = poisson_family()
        lhs = _log_ratio(fam, 2.0, 4.0, 4)
        assert lhs == pytest.approx(4.0 * math.log(0.5) + 2.0, abs=1e-12)
        rhs = divergence(fam, 4.0, 4.0) - divergence(fam, 4.0, 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_identical_parameters(self):
        fam = cauchy_family()
        assert _log_ratio(fam, 1.0, 1.0, 0.3) == 0.0

    def test_normal_symmetry(self):
        fam = normal_mean_family(1)
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
        fam = poisson_family()
        assert fam.estimator_g(9) == 9.0
        assert _score(fam, 9.0, 9) == pytest.approx(0.0, abs=1e-8)

    def test_normal_mean(self):
        fam = normal_mean_family(2)
        assert fam.estimator_g([1.0, 3.0]) == 2.0
        assert _score(fam, 2.0, [1.0, 3.0]) == pytest.approx(0.0, abs=1e-8)

    def test_normal_variance(self):
        fam = normal_variance_family(4)
        x = [1.0, 1.0, 1.0, 1.0]
        assert fam.estimator_g(x) == 1.0
        assert _score(fam, 1.0, x) == pytest.approx(0.0, abs=1e-8)

    def test_binomial(self):
        fam = binomial_family(10)
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
            poisson_family(), np.log, np.exp, np.exp,
            [0.05, 0.7, 1.0, 4.0, 30.25, 500.0],
        ),
        "binomial": (
            binomial_family(16),
            lambda p: np.log(p) - np.log1p(-p),
            lambda eta: 16 * np.log1p(np.exp(eta)),
            lambda eta: 16 / (1.0 + np.exp(-eta)),
            [0.01, 0.2, 0.5, 0.77, 0.99],
        ),
        "normal_mean": (
            normal_mean_family(4), lambda mu: mu,
            lambda eta: 4 * eta * eta / 2.0, lambda eta: 4 * eta,
            [-7.0, -1.0, 0.0, 0.5, 3.25],
        ),
        "normal_variance": (
            normal_variance_family(8), lambda var: 1.0 / var,
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
            pts = [net.point(k) for k in ks]
            assert all(b > a for a, b in zip(pts, pts[1:]))

    def test_geometric_exact_rational_powers(self):
        from fractions import Fraction

        net = Geometric(1.5, exact_ratio=Fraction(3, 2))
        assert net.point(3) == float(Fraction(27, 8))
        assert net.point(-2) == float(Fraction(4, 9))
        # long windows stay consistent: ratio of consecutive points is
        # the exact ratio to the last ulp
        for k in (-1000, -500, 100, 999):
            ratio = net.point(k + 1) / net.point(k)
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
        pts = [net.point(k) for k in net.indices()]
        assert all(0.0 < p < 1.0 for p in pts)
        assert len(pts) == 7


class TestEstimators:
    def test_ceil_dyadic_integers(self):
        net = DyadicInt()
        est = CeilDyadic(net)
        assert est(5) == 8.0
        assert est(0) == 1.0
        assert est(1) == 1.0
        assert est(8) == 8.0
        with pytest.raises(DomainError):
            est(2.5)

    def test_ceil_dyadic_reals(self):
        est = CeilDyadic(DyadicReal())
        assert est(0.3) == 0.5
        assert est(0.5) == 0.5
        assert est(5.0) == 8.0
        with pytest.raises(DomainError):
            est(0.0)

    def test_round_to_net_cells_partition(self):
        est = RoundToNet(Squares())
        rng = np.random.default_rng(3)
        for v in rng.uniform(0.0, 500.0, 2000):
            k = est.index(float(v))
            assert est.cell(k).contains(float(v))
            assert not est.cell(k + 1).contains(float(v))

    def test_r_epsilon_matches_rounding_away_from_half_integers(self):
        est = REpsilon(0.2)
        rng = np.random.default_rng(5)
        for v in rng.uniform(-20.0, 20.0, 3000):
            frac = v - math.floor(v)
            if abs(frac - 0.5) > 0.2:
                assert est.index(float(v)) == math.floor(v + 0.5)

    def test_r_epsilon_neighbourhood_choices(self):
        up = REpsilon(0.2, tie="up")
        down = REpsilon(0.2, tie="down")
        even = REpsilon(0.2, tie="even")
        for x in (0.35, 0.5, 0.65):
            assert up.index(x) == 1
            assert down.index(x) == 0
            assert even.index(x) == 0
        for x in (1.35, 1.5, 1.65):
            assert even.index(x) == 2

    def test_r_epsilon_rejects_large_epsilon(self):
        with pytest.raises(DomainError):
            REpsilon(0.25)

    def test_r_epsilon_cells_partition_line(self):
        est = REpsilon(0.2)
        rng = np.random.default_rng(9)
        for v in rng.uniform(-10.0, 10.0, 3000):
            k = est.index(float(v))
            assert est.cell(k).contains(float(v))

    def test_cell_integer_range(self):
        assert Cell(0.0, 1.0, True, True).integer_range() == (0, 1)
        assert Cell(4.0, 8.0, False, True).integer_range() == (5, 8)
        assert Cell(6.5, 12.5, True, False).integer_range() == (7, 12)
        with pytest.raises(DomainError):
            Cell(-math.inf, 2.0, False, True).integer_range()
        assert Cell(-math.inf, 2.5, False, False).clip(0.0, 10.0).integer_range() == (0, 2)
