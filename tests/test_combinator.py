"""Composite e-variables: selection, interpolation, products, splits."""

import math

import numpy as np
import pytest

from evarify.combinator import (
    CompositeEVariable,
    bump_weight,
    combine_discrete,
    combine_interpolated,
    components_from_specs,
    constant_evar,
    even_odd_reconstruction,
    even_odd_split,
    likelihood_ratio_evar,
    product_evar,
    zero_evar,
)
from evarify.core import ContractViolationError, DomainError
from evarify.families import make_bundle
from evarify.verifier import spike_evar


class TestBumpWeight:
    def test_plateau_and_support(self):
        assert bump_weight(0, 0.2, 0.0) == 1.0
        assert bump_weight(0, 0.2, 0.3) == 1.0  # plateau edge
        assert bump_weight(0, 0.2, 0.8) == 0.0
        assert bump_weight(0, 0.2, -0.7) == 0.0

    def test_half_integer_symmetry(self):
        assert bump_weight(0, 0.2, 0.5) == 0.5
        assert bump_weight(1, 0.2, 0.5) == 0.5

    def test_partition_of_unity_exact_on_dense_grid(self):
        """The two active trapezoids are complementary: the sum over
        centers is exactly 1.0 in floating point, for every grid point."""
        for eps in (0.05, 0.1, 0.2):
            xs = np.linspace(-3.0, 3.0, 100_001)
            for x in xs:
                m = math.floor(x + 0.5)
                total = sum(bump_weight(n, eps, float(x)) for n in (m - 1, m, m + 1))
                assert total == 1.0

    def test_linear_on_ramp(self):
        eps = 0.2
        x = 0.5 - eps / 2  # halfway down the falling ramp of center 0
        assert bump_weight(0, eps, x) == pytest.approx(0.75, abs=1e-15)
        assert bump_weight(1, eps, x) == pytest.approx(0.25, abs=1e-15)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            bump_weight(0, 0.0, 0.1)
        with pytest.raises(DomainError):
            bump_weight(0, 0.3, 0.1)


class TestCombineDiscrete:
    def test_all_ones_discrete_uniform(self):
        b = make_bundle("discrete_uniform")
        comp = combine_discrete(b, {})
        for x in (0, 1, 5, 100, 2**15):
            assert comp(x) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_zero_components(self):
        b = make_bundle("poisson")
        comps = {k: zero_evar() for k in range(1, 30)}
        comp = combine_discrete(b, comps)
        assert comp(7) == 0.0

    def test_spike_composition_matches_manual(self):
        """Oracle: compose the two functions by hand -- at x = 10 the
        estimator selects the square 9 (index 3), so the composite equals
        spike_9(10) / C."""
        b = make_bundle("poisson")
        spike9 = spike_evar(b, 3)
        comp = combine_discrete(b, {3: spike9})
        assert comp(10) == pytest.approx(spike9(10) / b.factor_C, rel=1e-14)
        assert spike9(10) > 0

    def test_missing_components_default_to_one(self):
        b = make_bundle("poisson")
        comp = combine_discrete(b, {3: constant_evar(5.0)})
        assert comp(50) == pytest.approx(1.0 / b.factor_C)  # cell of 49
        assert comp(9) == pytest.approx(5.0 / b.factor_C)

    def test_negative_component_raises(self):
        b = make_bundle("poisson")
        from evarify.combinator import EVariable

        bad = EVariable(fn=lambda x: -1.0)
        comp = combine_discrete(b, {3: bad})
        with pytest.raises(ContractViolationError):
            comp(9)

    def test_scaling_property(self):
        b = make_bundle("poisson")
        rng = np.random.default_rng(2)
        for lam_scale in (0.0, 0.5, 2.0, 10.0):
            base = {k: constant_evar(float(v)) for k, v in
                    zip(range(1, 8), rng.uniform(0.0, 3.0, 7))}
            scaled = {k: constant_evar(ev.level * lam_scale) for k, ev in base.items()}
            c1 = combine_discrete(b, base)
            c2 = combine_discrete(b, scaled)
            for x in (0, 3, 9, 20, 40):
                assert c2(x) == pytest.approx(lam_scale * c1(x), rel=1e-12, abs=1e-15)

    def test_monotonicity_property(self):
        b = make_bundle("poisson")
        rng = np.random.default_rng(4)
        lo = {k: constant_evar(float(v)) for k, v in
              zip(range(1, 8), rng.uniform(0.0, 2.0, 7))}
        hi = {k: constant_evar(lo[k].level + float(v)) for k, v in
              zip(range(1, 8), rng.uniform(0.0, 2.0, 7))}
        c_lo = combine_discrete(b, lo)
        c_hi = combine_discrete(b, hi)
        for x in range(0, 60):
            assert c_hi(x) >= c_lo(x) - 1e-15

    def test_factor_override(self):
        b = make_bundle("discrete_uniform")
        comp = combine_discrete(b, {}, factor_C=1.0)
        assert comp(5) == 1.0

    def test_factor_below_one_rejected(self):
        b = make_bundle("discrete_uniform")
        with pytest.raises(DomainError):
            combine_discrete(b, {}, factor_C=0.5)


class TestCombineInterpolated:
    def test_all_ones_partition(self):
        b = make_bundle("cauchy", epsilon=0.2)
        comp = combine_interpolated(b, {}, epsilon=0.2, factor_C=2.0)
        for x in (-1.3, 0.0, 0.45, 0.5, 0.62, 3.14):
            assert comp(x) == pytest.approx(0.5, abs=1e-15)

    def test_two_term_sum(self):
        """Oracle: manual evaluation of the two active terms at the
        half-integer: (0.5 * 2 + 0.5 * 4) / 2 = 1.5."""
        b = make_bundle("cauchy", epsilon=0.2)
        comps = {0: constant_evar(2.0), 1: constant_evar(4.0)}
        comp = combine_interpolated(b, comps, epsilon=0.2, factor_C=2.0)
        assert comp(0.5) == pytest.approx(1.5, abs=1e-14)

    def test_single_plateau_term(self):
        b = make_bundle("cauchy", epsilon=0.2)
        comps = {0: constant_evar(2.0), 1: constant_evar(4.0)}
        comp = combine_interpolated(b, comps, epsilon=0.2, factor_C=2.0)
        assert comp(0.0) == pytest.approx(1.0, abs=1e-15)
        assert comp(1.0) == pytest.approx(2.0, abs=1e-15)

    def test_non_integer_net_unsupported(self):
        b = make_bundle("poisson")
        with pytest.raises(DomainError, match="unsupported"):
            combine_interpolated(b, {}, epsilon=0.2, factor_C=2.0)

    def test_epsilon_cap(self):
        b = make_bundle("cauchy", epsilon=0.2)
        with pytest.raises(DomainError):
            combine_interpolated(b, {}, epsilon=0.25, factor_C=2.0)


class TestProductRule:
    def test_all_ones(self):
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        assert product_evar({}, b, [0.0, 0.0, 0.0, 0.0]) == pytest.approx(
            1.0 / b.factor_C
        )

    def test_reduces_to_selection_for_n_1(self):
        b = make_bundle("normal_mean", alpha=1.0, n=1)
        comps = {0: constant_evar(2.0)}
        comp = combine_discrete(b, comps)
        assert product_evar(comps, b, [0.2]) == pytest.approx(comp(0.2))

    def test_gaussian_likelihood_ratio_product(self):
        """Oracle: the per-observation ratio p_{1/2}/p_0 evaluated at
        x_k = 1/2 is exp(1/8); four coordinates give exp(1/2)."""
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        fam1 = make_bundle("normal_mean", alpha=1.0, n=1).family
        lr = likelihood_ratio_evar(fam1, 0.5, 0.0)  # e-variable for N(1/2, 1)
        # the estimated net point for the all-0.5 vector is 0.5 (index 1)
        k = b.estimate_index([0.5, 0.5, 0.5, 0.5])
        assert b.net.point(k) == 0.5
        # component at the selected point: ratio against the alternative 0
        comps = {k: likelihood_ratio_evar(fam1, 0.5, 0.0)}
        # evaluating p_0 / p_{1/2} would not be valid for N(1/2,1); use
        # the alternative-over-null form at its own point instead
        comps = {k: likelihood_ratio_evar(fam1, 0.0, 0.5)}
        value = product_evar(comps, b, [0.5, 0.5, 0.5, 0.5])
        assert value == pytest.approx(math.exp(0.5) / b.factor_C, rel=1e-12)

    def test_dimension_mismatch(self):
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        with pytest.raises(DomainError):
            product_evar({}, b, [0.0, 0.0])

    def test_requires_unit_alpha(self):
        b = make_bundle("normal_mean", alpha=0.5, n=4)
        with pytest.raises(DomainError):
            product_evar({}, b, [0.0, 0.0, 0.0, 0.0])

    def test_requires_normal_mean(self):
        b = make_bundle("poisson")
        with pytest.raises(DomainError):
            product_evar({}, b, [1.0])


class TestEvenOddSplit:
    def test_even_family_at_even_plateau(self):
        even, odd = even_odd_split({}, 0.2)
        assert even[2](2.0) == 1.0
        assert even[3](3.0) == 0.0  # odd index is zeroed in the even half

    def test_odd_family_vanishes_beyond_ramp(self):
        even, odd = even_odd_split({}, 0.2)
        assert odd[1](2.0) == 0.0
        assert odd[1](1.0) == 1.0

    def test_reconstruction_matches_interpolated_everywhere(self):
        """(even + odd) / 2 equals the interpolated composite pointwise,
        including on ramp interiors; oracle = independent evaluation of
        both paths on a dense grid."""
        b = make_bundle("cauchy", epsilon=0.2)
        rng = np.random.default_rng(12)
        comps = {n: constant_evar(float(v)) for n, v in
                 zip(range(-4, 5), rng.uniform(0.0, 3.0, 9))}
        for eps in (0.05, 0.1, 0.2):
            comp = combine_interpolated(b, comps, epsilon=eps, factor_C=2.0)
            recon = even_odd_reconstruction(comps, eps, factor_C=2.0)
            xs = np.concatenate([
                np.linspace(-3.5, 3.5, 4001),
                0.5 + np.linspace(-eps, eps, 101),  # ramp interior
            ])
            for x in xs:
                assert recon(float(x)) == pytest.approx(comp(float(x)), abs=1e-12)

    def test_reconstruction_example_value(self):
        comps = {0: constant_evar(2.0), 1: constant_evar(4.0)}
        recon = even_odd_reconstruction(comps, 0.2, factor_C=2.0)
        assert recon(0.5) == pytest.approx(1.5, abs=1e-14)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            even_odd_split({}, 0.30)


class TestDeclarativeSpecs:
    def test_constant_and_spike(self):
        b = make_bundle("discrete_uniform")
        comps = components_from_specs(
            [
                {"index": 0, "type": "constant", "value": 2.0},
                {"index": 3, "type": "spike"},
            ],
            b,
        )
        assert comps[0](1) == 2.0
        assert comps[3](6) == pytest.approx(9.0 / 4.0)

    def test_likelihood_ratio_spec(self):
        b = make_bundle("poisson")
        comps = components_from_specs(
            [{"index": 2, "type": "likelihood_ratio", "alternative": 5.0}], b
        )
        # ratio p_5 / p_4 at x = 4
        expect = math.exp(
            float(b.family.log_density(5.0, 4)) - float(b.family.log_density(4.0, 4))
        )
        assert comps[2](4) == pytest.approx(expect, rel=1e-12)

    def test_calibrated_p_spec_is_unit_mean(self):
        b = make_bundle("poisson")
        comps = components_from_specs(
            [{"index": 3, "type": "calibrated_p", "kappa": 0.5}], b
        )
        # E_{P_9}[kappa P^{kappa-1}] <= 1 for the upper-tail p-variable
        from evarify.verifier import expectation

        res = expectation(comps[3], 9.0, b)
        assert res.estimate <= 1.0 + 1e-9

    def test_bad_specs(self):
        b = make_bundle("poisson")
        with pytest.raises(DomainError):
            components_from_specs([{"index": 1, "type": "wavelet"}], b)
        with pytest.raises(DomainError):
            components_from_specs([{"type": "constant"}], b)


class TestCompositeContract:
    def test_interpolated_requires_epsilon(self):
        b = make_bundle("cauchy", epsilon=0.2)
        with pytest.raises(DomainError):
            CompositeEVariable(bundle=b, components={}, factor_C=2.0,
                               mode="interpolated", epsilon=None)

    def test_eval_many_matches_scalar(self):
        b = make_bundle("poisson")
        comp = combine_discrete(b, {3: constant_evar(2.0)})
        xs = np.array([0.0, 4.0, 9.0, 12.0, 30.0])
        np.testing.assert_allclose(comp.eval_many(xs), [comp(x) for x in xs])

    def test_eval_many_rows_for_product_families(self):
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        comp = combine_discrete(b, {})
        xs = np.zeros((5, 4))
        np.testing.assert_allclose(comp.eval_many(xs), [comp(row) for row in xs])

    def test_structured_composites_still_check_the_sample(self):
        """Reading the piecewise keeps the estimator's check of the
        sample: a non-integer or negative count and a non-positive draw
        of the continuous uniform raise, as does NaN; none of them is
        mapped to a level."""
        for name, kw, bad in [("discrete_uniform", {}, (2.5, -1.0)),
                              ("continuous_uniform", {}, (-1.0, 0.0))]:
            b = make_bundle(name, **kw)
            for comp in (combine_discrete(b, {k: spike_evar(b, k) for k in range(1, 6)}),
                         combine_discrete(b, {})):
                assert comp.piecewise is not None
                for x in bad:
                    with pytest.raises(DomainError):
                        comp(x)
        b = make_bundle("cauchy", epsilon=0.2)
        for comp in (combine_discrete(b, {0: spike_evar(b, 0)}),
                     combine_interpolated(b, {0: constant_evar(2.0)}, 0.2, 2.0)):
            with pytest.raises(ValueError):
                comp(math.nan)

    def test_eval_many_rejects_a_single_vector_on_a_product_family(self):
        """A 1-D array of length n is one n-vector, not n samples."""
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        comp = combine_discrete(b, {})
        for bad in (np.zeros(4), np.zeros((5, 3)), np.zeros((2, 5, 4))):
            with pytest.raises(DomainError):
                comp.eval_many(bad)
