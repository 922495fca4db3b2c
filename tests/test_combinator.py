"""Composite e-variables: selection, interpolation, splits."""

import math

import numpy as np
import pytest

from evarify.combinator import (
    EVariable,
    _frozen,
    bump_weight,
    combine_discrete,
    combine_interpolated,
    components_from_specs,
    constant_evar,
    even_odd_reconstruction,
    even_odd_split,
    interpolated_spike_composite,
    likelihood_ratio_evar,
    spike_evar,
    spike_suite,
    unit_cell_spikes,
    upper_tail_calibrated_evar,
    zero_evar,
)
from evarify.core import ContractViolationError, DomainError, Piecewise
from evarify.families import make_bundle
from evarify.verifier import default_theta_grid, spike_composite


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


def _dense_trapezoid(table, epsilon, C):
    """The interpolated composite's piecewise with ramps at every
    half-integer from the smallest key to the largest, as it was built
    before only the keys' own runs were: the reference."""
    first = int(table.keys.min()) - 1
    size = int(table.keys.max()) - first + 2
    lo, hi, level, out = slots = [np.full(size, v) for v in (math.inf, math.inf, 0.0, 1.0)]
    for slot, values in zip(slots, table[1:5]):
        slot[table.keys - first] = values
    eps = float(epsilon)
    centers = np.arange(first, first + size - 1) + 0.5
    knots = np.column_stack([centers - eps, centers, centers + eps]).ravel()
    mids = 0.5 * (knots[:-1] + knots[1:])
    j = np.arange(len(mids)) // 3

    def at(i):
        return np.where((lo[i] <= mids) & (mids < hi[i]), level[i], out[i])

    L, R, c = at(j), at(j + 1), centers[j]
    ramp = np.arange(len(mids)) % 3 != 2
    a = np.where(ramp, (L * (c + eps) - R * (c - eps)) / (2.0 * eps), R) / C
    b = np.where(ramp, (R - L) / (2.0 * eps), 0.0) / C
    return Piecewise(knots, a, b, 1.0 / C)


class TestSparseInterpolatedBuild:
    def test_equals_the_dense_build_near_the_keys(self):
        """Runs of keys 10^4 apart, unit-cell spikes and a constant: the
        piecewise equals the dense build bit for bit at every knot within
        1.5 of a key and both its float neighbours, is 1/C between the
        runs (where the dense build's ramps between two missing neighbours
        round to about 1/C), and has three pieces per half-integer next to
        a key, less one."""
        b = make_bundle("cauchy", epsilon=0.2)
        keys = [0, 1, 2, 5, 9_999, 10_000]
        spikes = unit_cell_spikes(b, keys)
        comps = {k: constant_evar(2.5) if k == 5 else spikes[k] for k in keys}
        C, eps = 3.0, 0.1
        pw = combine_interpolated(b, comps, eps, C).piecewise
        dense = _dense_trapezoid(_frozen(comps)[1], eps, C)
        near = pw.edges[np.min(np.abs(pw.edges[:, None] - np.array(keys)), axis=1) <= 1.5]
        xs = np.concatenate([np.nextafter(near, -np.inf), near, np.nextafter(near, np.inf)])
        np.testing.assert_array_equal(pw(xs), dense(xs))
        assert len(near) == len(pw.edges)  # every knot is near a key
        between = np.linspace(7.0, 9_997.0, 1_001)
        assert np.all(pw(between) == 1.0 / C)
        # each dense ramp there loses about |c| ulp / eps to (c + eps) - (c - eps)
        np.testing.assert_allclose(dense(between), 1.0 / C, rtol=1e-10)
        # half-integers -0.5 .. 5.5 and 9998.5 .. 10000.5
        assert len(pw.a) == 3 * (7 + 3) - 1

    def test_pieces_grow_with_the_keys_not_their_span(self):
        b = make_bundle("cauchy", epsilon=0.2)
        comps = {0: constant_evar(2.0), 10**6: constant_evar(2.0)}
        assert len(combine_interpolated(b, comps, 0.2, 3.0).piecewise.a) == 3 * 4 - 1

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_one_period_slice_unchanged(self, eps):
        """interpolated_spike_composite's period is the dense build's
        pieces 3 to 5 over the spikes on 0, 1 and 2, bit for bit."""
        b = make_bundle("cauchy", epsilon=0.2)
        dense = _dense_trapezoid(unit_cell_spikes(b, range(3)).table, eps, 1.0)
        pw = interpolated_spike_composite(b, eps, 1.0).piecewise
        assert pw.edges.tolist() == dense.edges[3:7].tolist()
        assert pw.a.tolist() == dense.a[3:6].tolist() and pw.b.tolist() == dense.b[3:6].tolist()


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
        """No half-width is a DomainError naming its range, where
        ``float(None)`` once raised a TypeError, from either interpolated
        builder."""
        b = make_bundle("cauchy", epsilon=0.2)
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1/5\]"):
            combine_interpolated(b, {}, epsilon=None, factor_C=2.0)
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1/5\]"):
            interpolated_spike_composite(b, None, 2.0)

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
        """Reading the piecewise keeps the check of the sample
        (``FamilyBundle.locate``): a non-integer or negative count and a
        non-positive draw of the continuous uniform raise, as does NaN;
        none of them is mapped to a level."""
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
            with pytest.raises(DomainError):
                comp(math.nan)

    def test_eval_many_rejects_a_single_vector_on_a_product_family(self):
        """A 1-D array of length n is one n-vector, not n samples."""
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        comp = combine_discrete(b, {})
        for bad in (np.zeros(4), np.zeros((5, 3)), np.zeros((2, 5, 4))):
            with pytest.raises(DomainError):
                comp.eval_many(bad)


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


def _off_support(b) -> list:
    """Samples off the support of the bundle's law: NaN and infinities
    everywhere, non-integers, negatives and n + 1 for the discrete laws,
    a zero statistic for the uniform and the variance (and a negative one
    for the uniform, whose statistic is the sample)."""
    law, bad = b.family.law, [math.nan, math.inf, -math.inf]
    if law.discrete:
        bad += [2.5, -1.0] + ([b.params["n"] + 1.0] if "n" in b.params else [])
    elif law.lo == 0.0:
        bad += [0.0] + ([-1.0] if law.statistic_is_sample else [])
    return bad


class TestSampleSupport:
    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_composites_accept_the_law_and_reject_off_its_support(self, name, kw):
        """Structured and generic composites accept 1,000 draws of the law,
        one at a time and as a batch; one sample off the law's support
        makes both raise DomainError, alone or in a batch (an n-vector
        filled with the value, for product families)."""
        b = make_bundle(name, **kw)
        grid = default_theta_grid(b)
        theta = grid[len(grid) // 2]
        draws = b.family.law.sample(theta, 1000, np.random.default_rng(4))
        k = b.index(b.locate(draws[0]))
        lr = likelihood_ratio_evar(b.family, b.net.points(k), theta)
        n = b.family.sample_dim
        for comp in (spike_composite(b), combine_discrete(b, {k: lr})):
            assert (comp.piecewise is None) == (comp.components.get(k) is lr)
            np.testing.assert_array_equal(comp.eval_many(draws), [comp(x) for x in draws])
            for value in _off_support(b):
                x = value if n == 1 else np.full(n, value)
                batch = draws.copy()
                batch[7] = x
                with pytest.raises(DomainError):
                    comp(x)
                with pytest.raises(DomainError):
                    comp.eval_many(batch)


def _reference_value(comp, x) -> float:
    """The generic composite at one sample as the per-sample code computed
    it: the estimator's choice (``FamilyBundle.index``) and, interpolated, the
    scalar ``bump_weight`` terms in order, each component called on the
    one sample."""
    b = comp.bundle

    def at(c, y):
        return 1.0 if c is None else c(y)

    v = float(np.ravel(b.locate(x))[0])
    if comp.mode == "discrete":
        return at(comp.components.get(b.index(v)), x) / comp.factor_C
    m = math.floor(v + 0.5)
    total = 0.0
    for n in (m - 1, m, m + 1):
        w = bump_weight(n, comp.epsilon, v)
        if w > 0.0:
            total += at(comp.components.get(n), v) * w
    return total / comp.factor_C


def _probes(b, keys) -> np.ndarray:
    """Samples at every cell edge of the keys' range and one cell beyond,
    and at their neighbours (math.nextafter, or the next support points
    of a discrete law), lifted to samples where the statistic is not the
    sample."""
    law = b.family.law
    ks = range(min(keys) - 1, max(keys) + 2)
    net = b.net
    ks = [k for k in ks if (net.k_min is None or k >= net.k_min)
          and (net.k_max is None or k <= net.k_max)]
    edges = np.unique(b.cell_bounds(ks))
    if law.discrete:
        vs = np.unique(np.concatenate([edges - 1.0, edges, edges + 1.0]))
        return vs[(vs >= law.lo) & (vs <= law.hi)]
    vs = [w for e in edges.tolist() if math.isfinite(e)
          for w in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    vs = [w for w in vs if law.lo < w < law.hi]
    if law.statistic_is_sample:
        return np.array(vs)
    return np.stack([b.family.lift(w) for w in vs])


def _mixed_components(b, keys):
    """A likelihood ratio, an upper-tail calibrated p-value, a plain
    callable, a constant and a spike, in turn over the keys."""
    fam, out = b.family, {}
    for j, k in enumerate(keys):
        s = b.net.points(k)
        lr = likelihood_ratio_evar(fam, s, s * 1.1 if fam.param_space.contains(s * 1.1) else s)
        out[k] = [lr,
                  upper_tail_calibrated_evar(b, k, 0.5),
                  EVariable(fn=lambda x, lr=lr: 0.5 * lr(x) + 0.25),
                  constant_evar(1.5),
                  spike_evar(b, k)][j % 5]
    return out


def _sparse_keys(b, k) -> list:
    """Keys k, k +- 3, k +- 30 and k +- 10**6, those in the net at a
    finite point of the parameter space."""
    net = b.net

    def usable(j):
        if (net.k_min is not None and j < net.k_min) or (net.k_max is not None and j > net.k_max):
            return False
        try:
            return b.family.param_space.contains(net.points(j))
        except OverflowError:  # a dyadic net's point 2**j
            return False

    return [j for j in (k - 10**6, k - 30, k - 3, k, k + 3, k + 30, k + 10**6) if usable(j)]


def _levels(components) -> dict:
    """Each structured component's level (a spike's or a constant's) by
    key: a spike suite's from its table, without an object per spike."""
    table = getattr(components, "table", None)
    if table is not None:
        return dict(zip(table.keys.tolist(), table.level.tolist()))
    return {k: c.piecewise.sup for k, c in components.items()}


def _dense_piecewise(b, components, C):
    """The structured select-and-scale composite built over every cell
    from the least key to the greatest, one piece per cell, each at its
    component's level over C and 1/C where it has none."""
    ks = range(min(components), max(components) + 1)
    bounds, levels = b.cell_bounds(ks), _levels(components)
    levels = np.array([levels.get(k, 1.0) for k in ks])
    return Piecewise(np.append(bounds[:, 0], bounds[-1, 1]), levels / C, np.zeros(len(ks)),
                     1.0 / C, b.right_closed)


def _assert_reads_as_its_cells(pw, cells):
    """pw gives the bits of ``cells`` (sign bits and NaNs included) at
    every cell's two ends and midpoint and at the floats on each side of
    every edge."""
    e = cells.edges
    v = np.concatenate([e, 0.5 * e[:-1] + 0.5 * e[1:], np.nextafter(e, -np.inf),
                        np.nextafter(e, np.inf)])
    np.testing.assert_array_equal(pw(v).view(np.int64), cells(v).view(np.int64))


class TestStructuredSparseKeys:
    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_only_the_keys_cells_are_built(self, name, kw, monkeypatch):
        """Spikes and constants at keys up to a million indices apart:
        building the composite computes the cells of its keys alone, and
        at every cell edge of the keys (and one cell beyond) and the
        edges' neighbours it equals the per-sample selection, and the
        build over every cell between the keys where those are near."""
        b, draws, near = TestGenericBatchPath._setup(name, kw)
        keys = _sparse_keys(b, near[len(near) // 2])
        comps = {k: spike_evar(b, k) if j % 2 else constant_evar(1.5)
                 for j, k in enumerate(keys)}
        sizes, cell_bounds = [], type(b).cell_bounds
        monkeypatch.setattr(type(b), "cell_bounds",
                            lambda self, ks: sizes.append(list(ks)) or cell_bounds(self, ks))
        comp = combine_discrete(b, comps)
        assert comp.piecewise is not None and sizes == [keys]
        monkeypatch.undo()
        xs = np.concatenate([_probes(b, [j]) for j in keys])
        values = comp.eval_many(xs)
        np.testing.assert_array_equal(values, [_reference_value(comp, x) for x in xs])
        near = {k: c for k, c in comps.items() if abs(k - keys[len(keys) // 2]) <= 30}
        dense = _dense_piecewise(b, near, comp.factor_C)(np.ravel(b.locate(xs)))
        inside = np.isin([b.index(float(v)) for v in np.ravel(b.locate(xs))],
                         range(min(near), max(near) + 1))
        np.testing.assert_array_equal(values[inside], dense[inside])
        assert inside.any()


class TestSpikeSuiteCells:
    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_the_spike_composite_reads_its_cells_once(self, name, kw, monkeypatch):
        """A spike suite's table holds its keys' own cells, so the spike
        composite computes them once, in ``spike_suite``, and its piecewise
        has the bits of the one that computes them again for the
        composite."""
        from evarify.combinator import _cellwise_piecewise

        b = make_bundle(name, **kw)
        sizes, cell_bounds = [], type(b).cell_bounds
        monkeypatch.setattr(type(b), "cell_bounds",
                            lambda self, ks: sizes.append(len(ks)) or cell_bounds(self, ks))
        comp = spike_composite(b)
        monkeypatch.undo()
        assert sizes == [len(comp.components)]
        again = _cellwise_piecewise(b, comp.components.table, comp.factor_C)
        for field in ("edges", "a", "b"):
            np.testing.assert_array_equal(getattr(comp.piecewise, field).view(np.int64),
                                          getattr(again, field).view(np.int64))
        assert (comp.piecewise.outside, comp.piecewise.right_closed) == (
            again.outside, again.right_closed)

    @pytest.mark.parametrize("name,kw,other", [
        ("cauchy", {"epsilon": 0.2}, {"epsilon": 0.1}),
        ("cauchy", {"epsilon": 0.2}, {"epsilon": 0.2}),
        ("normal_mean", {"n": 16}, {"n": 1}),
        ("normal_variance", {"n": 64}, {"n": 4}),
        ("binomial", {"n": 64}, {"n": 65}),
        ("poisson", {}, {}),
    ])
    def test_a_suite_on_another_bundle_has_its_cells_computed(self, name, kw, other,
                                                              monkeypatch):
        """A spike suite combined with a bundle other than its own (other
        parameters, or the same ones in another object) has that bundle's
        cells computed and compared with its pieces: the composite's
        piecewise is the one built from those cells, or None where the
        pieces are not the cells."""
        from evarify.combinator import _cellwise_piecewise

        b = make_bundle(name, **other)
        suite = spike_suite(make_bundle(name, **kw), range(1, 8 if b.net.k_max else 41))
        sizes, cell_bounds = [], type(b).cell_bounds
        monkeypatch.setattr(type(b), "cell_bounds",
                            lambda self, ks: sizes.append(len(ks)) or cell_bounds(self, ks))
        got = combine_discrete(b, suite).piecewise
        monkeypatch.undo()
        assert sizes and sizes[-1] == len(suite)
        want = _cellwise_piecewise(b, suite.table, b.factor_C)
        assert (got is None) == (want is None)
        if want is not None:
            for field in ("edges", "a", "b"):
                np.testing.assert_array_equal(getattr(got, field).view(np.int64),
                                              getattr(want, field).view(np.int64))


#: pieces of each benchmark config's spike composite over its default
#: grid: one per run of a level (binomial, the discrete uniform and
#: Poisson have no equal neighbours)
_RUNS = [7, 99, 23, 106, 1, 1, 1, 120, 28]


class TestRunsOfOneLevel:
    @pytest.mark.parametrize("name,kw,pieces",
                             [(*c, n) for c, n in zip(BENCHMARK_CONFIGS, _RUNS)])
    def test_the_spike_composite_reads_as_its_cells(self, name, kw, pieces):
        """The spike composite over the default grid keeps one piece per
        run of one level, and it reads the bits of the composite built
        with one piece per cell of its suite."""
        b = make_bundle(name, **kw)
        comp = spike_composite(b)
        cells = _dense_piecewise(b, comp.components, comp.factor_C)
        assert len(cells.a) == len(comp.components)
        assert len(comp.piecewise.a) == pieces
        _assert_reads_as_its_cells(comp.piecewise, cells)

    def test_runs_on_a_right_closed_law(self):
        """Poisson (right-closed cells): a run of equal constants is one
        piece, as is a run at the default level 1/C across the cells
        without a component; a -0.0 level joins -0.0 but neither +0.0
        neighbour, and each reads as one piece per cell."""
        b = make_bundle("poisson")
        comps = {k: constant_evar(2.0) for k in range(1, 11)}
        comps.update({k: constant_evar(1.0) for k in range(11, 14)})  # 14, 15: none
        comps.update({16: spike_evar(b, 16), 17: constant_evar(0.0), 18: constant_evar(-0.0),
                      19: constant_evar(-0.0), 20: constant_evar(0.0)})
        comp = combine_discrete(b, comps)
        pw, C = comp.piecewise, comp.factor_C
        assert b.right_closed and pw.right_closed
        np.testing.assert_array_equal(pw.a, [2.0 / C, 1.0 / C, comps[16].sup_bound / C,
                                             0.0, -0.0, 0.0])
        assert np.signbit(pw.a).tolist() == [False] * 4 + [True, False]
        starts = b.cell_bounds([1, 11, 16, 17, 18, 20])
        np.testing.assert_array_equal(pw.edges, np.append(starts[:, 0], starts[-1, 1]))
        _assert_reads_as_its_cells(pw, _dense_piecewise(b, comps, C))

    def test_distinct_keys_keep_their_cells(self):
        """The key piecewise of a generic composite keeps one piece per
        key over a run of adjacent cells: distinct keys never join."""
        b = make_bundle("cauchy", epsilon=0.2)
        keys = range(-50, 50)
        comp = combine_discrete(b, {k: EVariable(fn=lambda x: 1.5) for k in keys})
        assert comp.piecewise is None
        np.testing.assert_array_equal(comp._keys.a, keys)
        np.testing.assert_array_equal(comp._keys.edges, np.append(
            b.cell_bounds(keys)[:, 0], b.cell_bounds(keys)[-1, 1]))


class TestGenericBatchPath:
    @staticmethod
    def _setup(name, kw):
        b = make_bundle(name, **kw)
        grid = default_theta_grid(b)
        theta = grid[len(grid) // 2]
        draws = b.family.law.sample(theta, 500, np.random.default_rng(8))
        k = b.index(float(np.ravel(b.locate(draws[:1]))[0]))
        net = b.net
        keys = [j for j in range(k - 3, k + 4) if (net.k_min is None or j >= net.k_min)
                and (net.k_max is None or j <= net.k_max)]
        return b, draws, keys

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_eval_many_equals_one_sample_calls_bit_for_bit(self, name, kw):
        """A composite of likelihood ratios, calibrated p-values, plain
        callables, constants and spikes gives, on law draws and on every
        cell edge of its keys and the edges' neighbours, the same bits
        from one eval_many, from one call per sample and from the
        per-sample selection by ``FamilyBundle.index``."""
        b, draws, keys = self._setup(name, kw)
        comp = combine_discrete(b, _mixed_components(b, keys))
        assert comp.piecewise is None
        xs = np.concatenate([draws, _probes(b, keys)])
        many = comp.eval_many(xs)
        np.testing.assert_array_equal(many, [comp(x) for x in xs])
        np.testing.assert_array_equal(many, [_reference_value(comp, x) for x in xs])

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_selected_component_is_the_estimators(self, name, kw):
        """Component k returns 10 + k - k0: at every cell edge of the keys
        (and one cell beyond) and at the edges' neighbours, each sample
        gets the component of ``FamilyBundle.index``'s choice, and 1 when that
        choice has no component; each component is called once."""
        b, _, keys = self._setup(name, kw)
        calls = []

        def own(k):
            def fn(x):
                calls.append(k)
                return np.full(len(x), 10.0 + k - keys[0])
            return EVariable(fn, vectorized=True)

        comp = combine_discrete(b, {k: own(k) for k in keys}, factor_C=1.0)
        xs = _probes(b, keys)
        chosen = [b.index(float(v)) for v in np.ravel(b.locate(xs))]
        want = [10.0 + k - keys[0] if k in keys else 1.0 for k in chosen]
        np.testing.assert_array_equal(comp.eval_many(xs), want)
        assert sorted(calls) == sorted(set(chosen) & set(keys))

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_sparse_wide_keys_build_only_their_own_cells(self, name, kw, monkeypatch):
        """Keys with gaps between them, up to a million indices away where
        the net reaches that far: building the composite computes the
        cells of its keys only, and at each key's cell edges (and one cell
        beyond) it selects as ``FamilyBundle.index`` does, 1 between the keys."""
        b, _, near = self._setup(name, kw)
        keys = _sparse_keys(b, near[len(near) // 2])
        comps, sizes = _mixed_components(b, keys), []
        cell_bounds = type(b).cell_bounds
        monkeypatch.setattr(type(b), "cell_bounds",
                            lambda self, ks: sizes.append(len(ks)) or cell_bounds(self, ks))
        comp = combine_discrete(b, comps)
        assert comp.piecewise is None and sizes == [len(keys)]
        monkeypatch.undo()
        xs = np.concatenate([_probes(b, [j]) for j in keys])
        np.testing.assert_array_equal(comp.eval_many(xs),
                                      [_reference_value(comp, x) for x in xs])
        np.testing.assert_array_equal(comp(xs), comp.eval_many(xs))

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_a_bad_value_names_its_sample(self, name, kw, bad):
        """A component giving a negative or NaN value on one sample of a
        batch raises ContractViolationError naming that sample, whether it
        is called per sample or on its sub-batch."""
        b, draws, keys = self._setup(name, kw)
        k = keys[len(keys) // 2]
        xs = _probes(b, [k])
        target = next(x for x in xs if b.index(float(np.ravel(b.locate(x))[0])) == k)
        hit = float(np.ravel(b.family.estimator_g(target))[0])

        def plain(x):
            return bad if float(np.ravel(b.family.estimator_g(x))[0]) == hit else 1.0

        def vector(x):
            g = np.atleast_1d(b.family.estimator_g(x))
            return np.where(g == hit, bad, 1.0)

        batch = np.concatenate([draws[:5], [target], draws[5:20]])
        for fn, vectorized in ((plain, False), (vector, True)):
            comp = combine_discrete(b, {k: EVariable(fn, vectorized=vectorized)})
            with pytest.raises(ContractViolationError) as info:
                comp.eval_many(batch)
            assert f"component {k} evaluated to {bad!r} at x={target.tolist()!r}" in str(info.value)

    def test_the_first_bad_sample_in_batch_order_is_named(self):
        """With bad samples under two keys, the error names the first one
        in batch order, not the one under the smaller key."""
        b = make_bundle("cauchy", epsilon=0.2)
        negative = EVariable(lambda xs: -1.0 - xs, vectorized=True)
        comp = combine_discrete(b, {2: negative, 5: negative})
        with pytest.raises(ContractViolationError,
                           match=r"component 5 evaluated to -6\.0 at x=5\.0"):
            comp.eval_many(np.array([0.0, 5.0, 2.0]))

    def test_interpolated_generic_matches_the_scalar_terms(self):
        """Interpolated mode takes the bump-weighted neighbours on the
        batch: the same bits as the scalar ``bump_weight`` terms, on draws
        and on every ramp knot and its neighbours; a negative value raises
        naming its point."""
        b = make_bundle("cauchy", epsilon=0.2)
        comps = {n: likelihood_ratio_evar(b.family, float(n), n + 0.3) for n in range(-3, 4)}
        comps[1] = EVariable(fn=lambda x: 1.0 + 0.5 * math.sin(float(x)))
        knots = np.add.outer(np.arange(-5, 5) + 0.5, [-0.2, 0.0, 0.2]).ravel()
        xs = np.concatenate([b.family.law.sample(0.3, 400, np.random.default_rng(1)),
                             knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        for eps in (0.05, 0.2):
            comp = combine_interpolated(b, comps, eps, 2.0)
            assert comp.piecewise is None
            np.testing.assert_array_equal(comp.eval_many(xs),
                                          [_reference_value(comp, x) for x in xs])
            np.testing.assert_array_equal(comp.eval_many(xs), [comp(x) for x in xs])
        comp = combine_interpolated(b, {2: EVariable(fn=lambda x: -float(x))}, 0.2, 2.0)
        with pytest.raises(ContractViolationError, match=r"component 2 evaluated to -2\.0 at x=2\.0"):
            comp.eval_many(np.array([0.0, 2.0, 3.0]))


class TestSpikeSuiteMapping:
    def test_lookup_iteration_and_length(self):
        """A suite maps each of its keys, in the order given, to that
        key's spike; any other key is missing."""
        b = make_bundle("poisson")
        suite = spike_suite(b, [5, 2, 9])
        assert list(suite) == [5, 2, 9] and len(suite) == 3
        assert all(type(k) is int for k in suite)
        xs = np.arange(0.0, 120.0)
        for k in (5, 2, 9):
            assert [suite[k](x) for x in xs] == [spike_evar(b, k)(x) for x in xs]
            assert suite[k].sup_bound == spike_evar(b, k).sup_bound
        for missing in (3, 2.5, -1):
            with pytest.raises(KeyError):
                suite[missing]
            assert missing not in suite
        assert 2 in suite and dict(suite).keys() == {2, 5, 9}


class TestModuleLayering:
    def test_combinator_imports_nothing_from_the_verifier(self):
        """The verifier builds on the combinator, never the other way: the
        component builders (spikes, calibrated p-values, the interpolated
        spike composite) live here, so no import of the verifier, at the
        top or inside a function, closes a cycle.  The verifier reads no
        private name of this module but ``_many``."""
        import ast
        from pathlib import Path

        from evarify import combinator, verifier

        def imports(module):
            tree = ast.parse(Path(module.__file__).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    yield node.level, node.module or "", [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    yield 0, "", [a.name for a in node.names]

        for level, module, names in imports(combinator):
            assert "verifier" not in module and "verifier" not in " ".join(names)
        private = {name for level, module, names in imports(verifier)
                   if level == 1 and module == "combinator" for name in names
                   if name.startswith("_")}
        assert private == {"_many"}
