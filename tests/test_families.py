"""Family bundles: wiring, estimates, and the per-family constants."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln, rel_entr, xlogy

from evarify.core import (
    BinomialSine,
    DomainError,
    REpsilon,
    RoundToNet,
    factor_from_growth,
    factor_from_steps,
)
from evarify.families import FAMILY_IDS, _xlogy_once, make_bundle
from evarify.verifier import default_theta_grid


def _cells_by_count(index, ks):
    """Each cell's (support point before its first count, last count) from
    the net index of each count 0..n, one count at a time."""
    first, last = {}, {}
    for count, k in enumerate(index):
        first.setdefault(k, count)
        last[k] = count
    return [[first[k] - 1.0, float(last[k])] for k in ks]


class TestMakeBundle:
    @pytest.mark.parametrize("n", [64.5, True, "64.5", math.inf],
                             ids=["float", "bool", "string", "inf"])
    def test_a_trial_count_that_is_not_an_integer_is_rejected(self, n):
        """n = 64.5 does not build n = 64."""
        with pytest.raises(DomainError, match="n: "):
            make_bundle("binomial", n=n)

    def test_an_integral_trial_count_builds_that_count(self):
        assert make_bundle("binomial", n=64.0).bundle_id == "binomial(n=64)"
        assert make_bundle("binomial", n="64").bundle_id == "binomial(n=64)"

    @pytest.mark.parametrize("name,params,bundle_id,factor_hex", [
        ("binomial", {"n": 64}, "binomial(n=64)", "0x1.761388403fa06p+6"),
        ("discrete_uniform", {}, "discrete_uniform", "0x1.8000000000000p+1"),
        ("poisson", {}, "poisson", "0x1.0c15f70c2c9dap+4"),
        ("continuous_uniform", {}, "continuous_uniform", "0x1.8000000000000p+1"),
        ("normal_mean", {}, "normal_mean(alpha=1.0,n=1)", "0x1.2518602668da7p+3"),
        ("normal_variance", {}, "normal_variance(n=4)", "0x1.c07c8d747768ep+6"),
        ("cauchy", {}, "cauchy", "0x1.2000000000000p+4"),
        ("binomial", {"n": 4}, "binomial(n=4)", "0x1.eccccccccccd5p+6"),
        ("binomial", {"n": 10_000}, "binomial(n=10000)", "0x1.70802e8543635p+6"),
        ("normal_mean", {"alpha": 0.5, "n": 3}, "normal_mean(alpha=0.5,n=3)",
         "0x1.4a80706aa6090p+4"),
        ("normal_mean", {"epsilon": 0.1}, "normal_mean(epsilon=0.1)", "0x1.58cc711669b89p+3"),
        ("normal_mean", {"epsilon": 0.2}, "normal_mean(epsilon=0.2)", "0x1.6ff476d47f9e1p+3"),
        ("normal_variance", {"n": 4}, "normal_variance(n=4)", "0x1.c07c8d747768ep+6"),
        ("normal_variance", {"n": 5}, "normal_variance(n=5)", "0x1.c07c8d747768ep+6"),
        ("normal_variance", {"n": 64}, "normal_variance(n=64)", "0x1.c07c8d747768ep+6"),
        ("cauchy", {"epsilon": 0.2}, "cauchy(epsilon=0.2)", "0x1.2000000000000p+4"),
    ])
    def test_each_makers_id_and_factor_are_pinned(self, name, params, bundle_id, factor_hex):
        """The id derived from the family's name and params, and the bits
        of C, as the makers gave them when each family was two functions."""
        b = make_bundle(name, **params)
        assert b.bundle_id == bundle_id
        assert b.factor_C.hex() == factor_hex

    def test_the_id_follows_the_params(self):
        b = make_bundle("poisson")
        assert replace(b, params={"k": 2, "v": 0.5}).bundle_id == "poisson(k=2,v=0.5)"

    def test_discrete_uniform_direct_constant(self):
        b = make_bundle("discrete_uniform")
        assert b.route == "direct"
        assert b.factor_C == 3.0
        assert b.factor_inputs is None

    def test_poisson_step_constants(self):
        b = make_bundle("poisson")
        assert b.route == "steps"
        assert b.factor_inputs.c_prime == 1.0
        assert b.factor_inputs.c == 1.0
        assert b.factor_C == pytest.approx(16.755362556033879, rel=1e-12)

    def test_normal_mean_constants_from_alpha(self):
        b = make_bundle("normal_mean", alpha=1.0, n=7)
        assert b.factor_inputs.c_prime == pytest.approx(1.0 / 8.0)
        assert b.factor_inputs.c == pytest.approx(1.0 / 2.0)
        assert b.factor_C == pytest.approx(
            factor_from_steps(1.0 / 8.0, 1.0 / 2.0), rel=1e-12
        )
        assert b.factor_C == pytest.approx(9.159225535410611, rel=1e-12)

    def test_normal_mean_factor_depends_on_alpha_not_n(self):
        c1 = make_bundle("normal_mean", alpha=1.0, n=1).factor_C
        c16 = make_bundle("normal_mean", alpha=1.0, n=16).factor_C
        assert c1 == c16
        assert make_bundle("normal_mean", alpha=0.5, n=4).factor_C != c1

    def test_normal_variance_constants(self):
        b = make_bundle("normal_variance", n=16)
        assert b.factor_inputs.c_prime == 0.5
        assert b.factor_inputs.c == 1.0 / 32.0
        assert b.factor_C == pytest.approx(112.12163335779969, rel=1e-12)

    def test_cauchy_constants(self):
        b = make_bundle("cauchy", epsilon=0.2)
        assert b.route == "growth"
        assert b.factor_inputs.c_prime == pytest.approx(math.log(2.0))
        assert b.factor_inputs.alpha == 1.0
        assert b.factor_C == pytest.approx(18.0, rel=1e-12)

    @pytest.mark.parametrize("name,params", [
        ("binomial", {"n": 64}), ("binomial", {"n": 10_000}), ("discrete_uniform", {}),
        ("poisson", {}), ("continuous_uniform", {}), ("normal_mean", {}),
        ("normal_mean", {"epsilon": 0.2}), ("normal_variance", {}), ("cauchy", {})])
    def test_the_factor_is_its_route_formula_on_its_inputs(self, name, params):
        """The shipped C is computed from the declared constants that
        check-conditions verifies, so the two cannot drift apart."""
        from evarify.families import ESTIMATED_FACTOR_MARGIN

        b = make_bundle(name, **params)
        inputs = b.factor_inputs
        expected = {
            "growth": lambda: factor_from_growth(inputs.c_prime, inputs.alpha),
            "steps": lambda: factor_from_steps(inputs.c_prime, inputs.c),
            "direct": lambda: 3.0,
        }[b.route]()
        if name == "binomial":
            expected *= ESTIMATED_FACTOR_MARGIN
        assert b.factor_C == expected

    def test_binomial_estimated_factor(self):
        b = make_bundle("binomial", n=64)
        assert b.route == "growth"
        # factor = 1.1 margin on the growth formula at the estimated
        # constants; the estimates themselves are exercised in
        # test_checker against the condition checks
        expected = 1.1 * factor_from_growth(
            b.factor_inputs.c_prime, b.factor_inputs.alpha
        )
        assert b.factor_C == pytest.approx(expected, rel=1e-12)
        assert b.factor_inputs.c_prime > 0

    @pytest.mark.parametrize("n", [4, 64, 10_000])
    def test_binomial_tables_match_scalar_loops(self, n):
        """The counts' cells, c' and the growth exponent, built with array
        calls, equal the scalar loops bit for bit."""
        from evarify.families import _binomial_growth_alpha

        b = make_bundle("binomial", n=n)
        net, div = b.net, b.family.divergence_fn
        index = [net.round_index(k / n) for k in range(n + 1)]
        assert b.cell_bounds(net.indices()).tolist() == _cells_by_count(index, net.indices())
        assert b.factor_inputs.c_prime == max(
            float(div(k / n, net.points(index[k]))) for k in range(n + 1))
        pts = np.array([net.points(t) for t in net.indices()])
        best = math.inf
        for a in range(len(pts)):
            for c in range(a + 2, len(pts)):
                d = min(float(div(pts[a], pts[c])), float(div(pts[c], pts[a])))
                best = min(best, d / math.log(c - a))
        assert _binomial_growth_alpha(net, div) == best - 1.0
        assert b.factor_inputs.alpha == best - 1.0

    def test_binomial_cells_follow_a_replaced_estimator(self):
        """A bundle made by ``replace`` with another estimator, on another
        net, gives that estimator's cells, count by count."""
        net = BinomialSine(16)
        b = replace(make_bundle("binomial", n=64), estimator=RoundToNet(net))
        assert b.net is net
        index = [net.round_index(k / 64) for k in range(65)]
        want = _cells_by_count(index, net.indices())
        assert want == [[-1.0, 20.0], [20.0, 43.0], [43.0, 64.0]]
        assert b.cell_bounds(net.indices()).tolist() == want

    def test_unknown_family_names_valid_ids(self):
        with pytest.raises(DomainError) as info:
            make_bundle("zeta")
        for name in FAMILY_IDS:
            assert name in str(info.value)

    def test_epsilon_above_one_fifth_rejected(self):
        with pytest.raises(DomainError):
            make_bundle("cauchy", epsilon=0.21)
        with pytest.raises(DomainError):
            make_bundle("normal_mean", epsilon=0.3)

    def test_bad_alpha_rejected(self):
        with pytest.raises(DomainError):
            make_bundle("normal_mean", alpha=0.0, n=4)

    def test_unknown_params_rejected(self):
        with pytest.raises(DomainError):
            make_bundle("poisson", n=4)


class TestEstimate:
    def test_discrete_uniform_ceiling(self):
        b = make_bundle("discrete_uniform")
        assert b.estimate(5) == 8.0
        assert b.estimate(0) == 1.0
        assert b.estimate(8) == 8.0

    def test_poisson_nearest_square(self):
        b = make_bundle("poisson")
        assert b.estimate(12) == 9.0
        assert b.estimate(13) == 16.0

    def test_normal_mean_rounds_the_mean(self):
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        assert b.estimate([0.1, 0.2, 0.3, 0.6]) == 0.5

    def test_normal_variance_rounds_mean_square(self):
        b = make_bundle("normal_variance", n=4)
        x = [1.0, 1.0, 1.0, 1.0]
        assert b.estimate(x) == 1.0

    def test_continuous_uniform_ceiling(self):
        b = make_bundle("continuous_uniform")
        assert b.estimate(5.0) == 8.0
        assert b.estimate(0.25) == 0.25

    def test_binomial_rounds_fraction(self):
        b = make_bundle("binomial", n=64)
        s = b.estimate(32)
        assert s == pytest.approx(0.5, abs=1e-15)  # sin^2(pi/4), middle index
        assert s == b.net.points(4)

    def test_deterministic(self):
        b = make_bundle("poisson")
        assert [b.estimate(7)] * 3 == [b.estimate(7) for _ in range(3)]


#: the nine configurations of the benchmark's discrete-mode operations
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

#: the location families whose one-value square once rounded differently
#: from its batch entry
SQUARING_CONFIGS = [("cauchy", {"epsilon": 0.2}), ("normal_mean", {"n": 1})]


def _one_value_probes(bundle, rng):
    """(thetas, samples, statistic values, net indices) of a bundle: draws
    under three grid thetas and their statistics, plus up to 40 net points
    the draws select, the midpoints to their successors, the nextafter
    neighbours of both, and the samples lifted from them (the integers
    either side, for a discrete law)."""
    fam, net, law = bundle.family, bundle.net, bundle.family.law
    grid = default_theta_grid(bundle)
    thetas = [grid[i] for i in rng.choice(len(grid), 3, replace=False)]
    draws = np.concatenate([law.sample(t, 30, rng) for t in thetas])
    ks = np.unique(bundle.index(bundle.locate(draws)))
    ks = np.sort(rng.choice(ks, min(40, len(ks)), replace=False))
    pts, after = net.points(ks), net.points(net._clip(ks + 1))
    marks = np.concatenate([pts, 0.5 * (pts + after)])
    values = np.concatenate([fam.estimator_g(draws), marks, np.nextafter(marks, -np.inf),
                             np.nextafter(marks, np.inf)])
    lifted = fam.lift(values)
    if law.discrete:
        lifted = np.concatenate([np.floor(lifted), np.ceil(lifted)])
        lifted = np.unique(lifted[(law.lo <= lifted) & (lifted <= law.hi)])
    elif fam.sample_dim == 1:
        lifted = lifted[(law.lo < lifted) & (lifted < law.hi)]
    return thetas, np.concatenate([draws, lifted]), values, ks


def _assert_batch_of_one(ones, batch, kind, none_at_nan=False):
    """Each one-value result has type ``kind`` and the bits of its entry
    in the batch (``None`` where the batch holds NaN, with
    ``none_at_nan``)."""
    batch = np.asarray(batch)
    assert len(ones) == len(batch)
    if none_at_nan:
        absent = np.isnan(batch)
        assert [o is None for o in ones] == absent.tolist()
        ones, batch = [o for o in ones if o is not None], batch[~absent]
    assert {type(o) for o in ones} <= {kind}
    np.testing.assert_array_equal(np.array(ones, dtype=batch.dtype).reshape(batch.shape)
                                  .view(np.uint8), batch.view(np.uint8))


@pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
def test_one_sample_equals_its_value_in_a_batch(name, kw):
    """Every public one-value entry point gives one value the type it
    documents and the bits of its entry in a batch: the family callables,
    the net access, the bundle's estimate and locate, the estimator's
    index and statistic, and a likelihood ratio (squares are products:
    numpy's ``**`` on a 0-d array rounds differently from an array's)."""
    from evarify.combinator import likelihood_ratio_evar

    bundle = make_bundle(name, **kw)
    fam, net, est = bundle.family, bundle.net, bundle.estimator
    rng = np.random.default_rng(0)
    thetas, xs, vs, ks = _one_value_probes(bundle, rng)
    # the family callables and a likelihood ratio are cheap, so they also
    # take 2,000 more draws, evaluated at two grid thetas, and on the
    # squaring configs 20,000 at theta = 0.3, evaluated at 0.7 (a ratio of
    # 0.7 to 0.0)
    many = np.concatenate([xs, *(fam.law.sample(t, 1_000, rng) for t in thetas[:2])])
    batches = [(many, thetas[:2], thetas[:2])]
    if (name, kw) in SQUARING_CONFIGS:
        draws = fam.law.sample(0.3, 20_000, np.random.default_rng(0))
        batches.append((draws, [0.7], (0.0, 0.7)))
    for draws, at, (null, alt) in batches:
        gs = np.concatenate([vs, fam.estimator_g(draws)])
        for theta in at:
            _assert_batch_of_one([fam.log_density(theta, x) for x in draws.tolist()],
                                 fam.log_density(theta, draws), float)
            _assert_batch_of_one([fam.divergence_fn(v, theta) for v in gs.tolist()],
                                 fam.divergence_fn(gs, theta), float)
        _assert_batch_of_one([fam.estimator_g(x) for x in draws.tolist()],
                             fam.estimator_g(draws), float)
        lr = likelihood_ratio_evar(fam, null, alt)
        _assert_batch_of_one([lr(x) for x in draws.tolist()], lr.fn(draws), float)
    x1, v1, vb = xs.tolist(), vs.tolist(), vs[::-1].copy()
    row = float if fam.sample_dim == 1 else np.ndarray
    _assert_batch_of_one([fam.lift(v) for v in v1], fam.lift(vs), row)
    _assert_batch_of_one([net.points(k) for k in ks.tolist()], net.points(ks), float)
    _assert_batch_of_one([net.pred(v) for v in v1], net.pred(vs), float, none_at_nan=True)
    _assert_batch_of_one([net.succ(v) for v in v1], net.succ(vs), float, none_at_nan=True)
    _assert_batch_of_one([net.round_index(v) for v in v1], net.round_index(vs), int)
    _assert_batch_of_one([net.count_between(a, b) for a, b in zip(v1, vb.tolist())],
                         net.count_between(vs, vb), int)
    _assert_batch_of_one([bundle.estimate(x) for x in x1], bundle.estimate(xs), float)
    _assert_batch_of_one([bundle.locate(x) for x in x1], bundle.locate(xs), float)
    _assert_batch_of_one([est.index(v) for v in v1], est.index(vs), int)
    located = bundle.locate(xs)
    _assert_batch_of_one([bundle.index(v) for v in located.tolist()], bundle.index(located), int)


@pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
def test_theta_column_equals_row_by_row_calls(name, kw):
    """A column of parameters broadcasts against the batch of samples (and
    of statistic values): on the identity axes, with the net points among
    the parameters, each row of one column call has the bits of that
    parameter's own call."""
    bundle = make_bundle(name, **kw)
    fam = bundle.family
    thetas, indices, gs = bundle.identity_axes(bundle)
    gs = np.asarray(gs, dtype=float)
    x = fam.lift(gs)
    params = np.concatenate([np.asarray(thetas, dtype=float), bundle.net.points(indices)])
    col = params[:, None]
    for got, one in ((fam.log_density(col, x), lambda t: fam.log_density(t, x)),
                     (fam.divergence_fn(gs, col), lambda t: fam.divergence_fn(gs, t))):
        assert got.shape == (len(params), len(gs))
        want = np.stack([one(t) for t in params.tolist()])
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _binomial_log_density_by_xlogy(n, p, k):
    """The binomial log-density written with scipy's ``xlogy`` on each
    (p, k) pair: the reference the family's density must equal bit for
    bit."""
    ok = (k >= 0) & (k <= n) & (k == np.floor(k))
    val = (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
           + xlogy(k, p) + xlogy(n - k, 1.0 - p))
    return np.where(ok, val, -np.inf)


@pytest.mark.parametrize("n", [4, 64, 10_000])
def test_binomial_density_has_the_bits_of_xlogy(n):
    """The density takes each p's log once, yet equals the formula with
    ``xlogy`` on every pair, in every bit: off the support, at k = 0 and
    k = n (scipy's 0 log 0 = 0), at p = 0, the smallest subnormal, 1 - 2**-53
    and 1, and NaN; with p a scalar, a column against a row of k, and an
    array of k's shape; and over a column of 1001 p in [0, 1]."""
    log_density = make_bundle("binomial", n=n).family.log_density
    k = np.array([-1.0, 0.0, 0.5, 1.0, n - 1.0, n, n + 1.0])
    ps = np.array([0.0, 5e-324, 1e-300, 0.3, 1.0 - 2.0 ** -53, 1.0, math.nan])
    # np.log differs from libm's log in the last bit on a few of these
    grid = np.linspace(0.0, 1.0, 1001)

    def same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    with np.errstate(invalid="ignore", divide="ignore"):
        for p in ps.tolist():
            same_bits(log_density(p, k), _binomial_log_density_by_xlogy(n, p, k))
        col = np.concatenate([ps, grid])[:, None]
        same_bits(log_density(col, k), _binomial_log_density_by_xlogy(n, col, k))
        grid_p, grid_k = np.meshgrid(ps, k, indexing="ij")
        same_bits(log_density(grid_p, grid_k), _binomial_log_density_by_xlogy(n, grid_p, grid_k))


@pytest.mark.parametrize("n", [10, 10_000])
def test_xlogy_once_and_the_density_on_tiles_have_the_bits_of_xlogy(n):
    """``_xlogy_once`` writes its 0s only into the k == 0 pairs, and the
    density skips its support mask when every k is on the support: on
    tiles of k in {0, n, -1, n + 1, 2.5} (each alone, on the support
    only, and all of them) against p in {0, 1, NaN, -NaN, 0.3, -0.0}, as
    a column, a scalar and a 3-d column against a column of k, both equal scipy's ``xlogy`` formula in
    every bit, the sign of a zero and of a NaN included."""
    log_density = make_bundle("binomial", n=n).family.log_density
    ks = [0.0, float(n), -1.0, n + 1.0, 2.5]
    ps = np.array([0.0, 1.0, math.nan, -math.nan, 0.3, -0.0])
    assert np.signbit(ps[3]) and not np.signbit(ps[2])
    tiles = [np.array([k]) for k in ks] + [np.array(ks[:2]), np.array(ks)]

    def same_bits(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    with np.errstate(invalid="ignore", divide="ignore"):
        for k in tiles:
            for p in (ps[:, None], *ps, ps[:, None, None]):
                kk = k if np.ndim(p) < 3 else k[:, None]
                same_bits(_xlogy_once(kk, p), xlogy(kk, p))
                same_bits(_xlogy_once(n - kk, 1.0 - p), xlogy(n - kk, 1.0 - p))
                same_bits(log_density(p, kk), _binomial_log_density_by_xlogy(n, p, kk))
        same_bits(_xlogy_once(0.0, math.nan), xlogy(0.0, math.nan))
        same_bits(_xlogy_once(0, 0.3), xlogy(0, 0.3))


def _near_ties(t):
    """Each t with its near ties: t, the next double up, t (1 -+ 1e-12)
    and t (1 + 1e-7)."""
    t = np.asarray(t, dtype=float)
    return np.concatenate([t, np.nextafter(t, math.inf), t * (1 - 1e-12), t * (1 + 1e-12),
                           t * (1 + 1e-7)])


@pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
def test_divergence_is_nonnegative_and_zero_at_ties_as_computed(name, kw):
    """d >= 0 and d(t, t) == 0 hold for the computed values, not only in
    exact arithmetic: over the default theta grid against its near ties
    (kept in the parameter space), in both directions, where the binomial
    once rounded below 0 (n = 64: to -7.1e-15)."""
    bundle = make_bundle(name, **kw)
    fam = bundle.family
    thetas = np.array(default_theta_grid(bundle))
    near = np.array([t for t in _near_ties(thetas).tolist() if fam.param_space.contains(t)])
    assert np.all(fam.divergence_fn(near, near) == 0.0)
    for first, second in ((thetas[:, None], near), (near[:, None], thetas)):
        d = fam.divergence_fn(first, second)
        assert np.all(d >= 0.0), float(np.nanmin(d))


@pytest.mark.parametrize("n", [64, 1000, 10_000])
def test_binomial_divergence_is_nonnegative_between_counts_and_near_ties(n):
    """Between each statistic value k/n and its near ties, both ways, the
    binomial divergence is never below 0 (it once reached -1.1e-13 at
    n = 1000) and is 0 at each tie."""
    div = make_bundle("binomial", n=n).family.divergence_fn
    gs = np.arange(n + 1.0) / n
    assert np.all(div(gs, gs) == 0.0)
    for near in np.split(_near_ties(gs), 5):
        assert np.all(div(gs, near) >= 0.0) and np.all(div(near, gs) >= 0.0)


def _binomial_divergence_oracle(n, g, t):
    """(max(D, 0), n sum |terms|) at 40 digits, for
    D = n (g log g - g log t + h log h - h log u) with h = 1 - g and
    u = 1 - t as doubles round them (the inputs the computed form starts
    from) and 0 log 0 = 0 log t = 0."""
    h, u = 1.0 - g, 1.0 - t
    with mp.workdps(40):
        terms = [mp.mpf(x) * mp.log(y) if x else mp.mpf(0)
                 for x, y in ((g, g), (g, t), (h, h), (h, u))]
        d = n * (terms[0] - terms[1] + terms[2] - terms[3])
        return max(d, mp.mpf(0)), n * sum(abs(x) for x in terms)


class TestBinomialDivergence:
    #: Higham's gamma_6 = 6u / (1 - 6u), u = 2**-53: each term's path is
    #: a libm log (within 1 ulp, so 2u), a product, a difference, the sum
    #: of the two sides and the product with n
    KAPPA = 6.0 * 2.0**-53 / (1.0 - 6.0 * 2.0**-53)

    @staticmethod
    def _cases(n):
        """(g, t) pairs: counts k/n (0 and n among them) against the
        identity axes, net points, 1e-9 and 1 - 1e-9, and each count and
        net point against its near ties."""
        bundle = make_bundle("binomial", n=n)
        thetas, indices, _ = bundle.identity_axes(bundle)
        pts = bundle.net.points(indices)
        pts = pts[np.linspace(0, len(pts) - 1, min(len(pts), 25)).astype(int)]
        ks = np.unique(np.concatenate([[0, 1, 2, n // 2, n - 2, n - 1, n],
                                       np.linspace(0, n, 21).astype(int)]))
        gs = ks / n
        ts = np.concatenate([thetas, pts, [1e-9, 1 - 1e-9]])
        outer = [(g, t) for g in gs.tolist() for t in ts.tolist()]
        at_pts = np.round(pts * n) / n
        ties = [(g, t) for g in np.concatenate([gs, at_pts, pts]).tolist()
                for t in _near_ties([g]).tolist() if 0.0 < t < 1.0]
        return bundle.family.divergence_fn, outer + ties

    @pytest.mark.parametrize("n", [64, 10_000, 1_000_000])
    def test_within_the_derived_bound_of_a_40_digit_oracle(self, n):
        """|d - max(D, 0)| <= gamma_6 n sum |terms| on every pair, one
        call over all of them (the clamp at 0 moves no value further from
        max(D, 0))."""
        div, pairs = self._cases(n)
        g, t = np.array(pairs).T
        got = div(g, t)
        for gi, ti, di in zip(g.tolist(), t.tolist(), got.tolist()):
            want, size = _binomial_divergence_oracle(n, gi, ti)
            assert abs(mp.mpf(di) - want) <= self.KAPPA * size, (gi, ti, di, want)

    @pytest.mark.parametrize("n", [64, 10_000])
    def test_special_arguments_keep_the_rel_entr_values_in_mixed_calls(self, n):
        """Where g is outside [0, 1] or t outside (0, 1), or either is NaN,
        each pair has the old ``rel_entr`` form's value (0, inf or NaN)
        in a call that mixes them with ordinary pairs; a statistic at 0 or
        1 adds that form's exact 0 for its empty side."""
        div = make_bundle("binomial", n=n).family.divergence_fn
        gs = np.array([0.0, 1.0, -0.5, 1.5, math.nan, -math.inf, math.inf, 0.3, 1 / 64])
        ts = np.array([0.0, 1.0, -0.5, 1.5, math.nan, -math.inf, math.inf, 0.3, 1e-9,
                       1 - 1e-9, 5e-324])
        got = div(gs[:, None], ts)
        with np.errstate(invalid="ignore"):  # the old form, two rel_entr per pair
            old = n * (rel_entr(gs[:, None], ts) + rel_entr(1.0 - gs[:, None], 1.0 - ts))
        off = ~((gs >= 0) & (gs <= 1))[:, None] | ~((ts > 0) & (ts < 1))
        assert off.sum() == 83  # 5 special rows by 11, 7 special columns by 4
        np.testing.assert_array_equal(got[off], old[off])
        assert set(old[off][~np.isnan(old[off])].tolist()) == {0.0, math.inf}
        inside = ts[~off[0]]
        np.testing.assert_array_equal(got[0, ~off[0]], n * -xlogy(1.0, 1.0 - inside))
        np.testing.assert_array_equal(got[1, ~off[1]], n * -xlogy(1.0, inside))

    @pytest.mark.parametrize("n", [64, 10_000])
    def test_a_tile_has_the_bits_of_its_pairs_one_at_a_time(self, n):
        """A column of parameters against a row of statistics, special
        values among both, equals each pair's own one-value call in every
        bit: no pair's value depends on the others in its call."""
        div, pairs = self._cases(n)
        gs = np.concatenate([np.unique([g for g, _ in pairs])[::3], [-0.5, 1.5, math.nan]])
        ts = np.concatenate([np.unique([t for _, t in pairs])[::5],
                             [0.0, 1.0, -0.5, 1.5, math.nan, math.inf]])
        tile = div(gs, ts[:, None])
        ones = np.array([[div(g, t) for g in gs.tolist()] for t in ts.tolist()])
        nan = np.isnan(tile)
        np.testing.assert_array_equal(nan, np.isnan(ones))
        np.testing.assert_array_equal(tile[~nan].view(np.int64), ones[~nan].view(np.int64))


def _support_samples(bundle, rng, size=10_000):
    name = bundle.family.name
    if name == "poisson":
        return rng.integers(0, 12_000, size).astype(float)
    if name == "binomial":
        n = int(bundle.params["n"])
        return rng.integers(0, n + 1, size).astype(float)
    if name == "discrete_uniform":
        return rng.integers(0, 2**16, size).astype(float)
    if name == "continuous_uniform":
        return np.exp(rng.uniform(math.log(1e-4), math.log(1e4), size))
    if name == "normal_mean":
        n = bundle.family.sample_dim
        return rng.normal(rng.uniform(-30, 30), 1.0, (size, n))
    if name == "normal_variance":
        n = bundle.family.sample_dim
        return math.sqrt(2.0) * rng.standard_normal((size, n))
    return rng.standard_cauchy(size) * 3.0


ALL_BUNDLES = [
    ("binomial", {"n": 64}),
    ("discrete_uniform", {}),
    ("poisson", {}),
    ("continuous_uniform", {}),
    ("normal_mean", {"alpha": 1.0, "n": 4}),
    ("normal_variance", {"n": 4}),
    ("cauchy", {"epsilon": 0.2}),
]


class TestBundleInvariants:
    @pytest.mark.parametrize("name,kw", ALL_BUNDLES)
    def test_estimator_lands_on_net(self, name, kw):
        bundle = make_bundle(name, **kw)
        rng = np.random.default_rng(17)
        for x in _support_samples(bundle, rng, 500):
            k = bundle.estimator.index(bundle.family.estimator_g(x))
            assert bundle.net.points(k) == bundle.estimate(x)

    @pytest.mark.parametrize("name,kw", ALL_BUNDLES)
    def test_cell_sandwich_on_random_support_points(self, name, kw):
        """pred(s) <= pred(g(x)) <= succ(g(x)) <= succ(s) with absent
        neighbours vacuous, over 10^4 random support points."""
        bundle = make_bundle(name, **kw)
        net = bundle.net
        rng = np.random.default_rng(23)
        for x in _support_samples(bundle, rng, 10_000):
            s = bundle.estimate(x)
            g = bundle.family.estimator_g(x)
            ps, pg = net.pred(s), net.pred(g)
            if ps is not None:
                assert pg is not None and pg >= ps
            ss, sg = net.succ(s), net.succ(g)
            if ss is not None and sg is not None:
                assert sg <= ss

    @pytest.mark.parametrize("name,kw", ALL_BUNDLES)
    def test_cell_divergence_within_declared_bound(self, name, kw):
        bundle = make_bundle(name, **kw)
        if bundle.factor_inputs is not None:
            c_prime = bundle.factor_inputs.c_prime
        else:
            # direct-route bundles declare no constant, but the ceiling
            # estimator still keeps every point within log 2 of its cell
            c_prime = math.log(2.0)
        fam = bundle.family
        rng = np.random.default_rng(29)
        worst = 0.0
        for x in _support_samples(bundle, rng, 10_000):
            d = float(fam.divergence_fn(fam.estimator_g(x), bundle.estimate(x)))
            worst = max(worst, d)
        assert worst <= c_prime + 1e-9

    @pytest.mark.parametrize(
        "name,kw",
        [("poisson", {}), ("normal_mean", {"alpha": 1.0, "n": 4}),
         ("normal_variance", {"n": 4})],
    )
    def test_step_divergences_exceed_declared_bound(self, name, kw):
        bundle = make_bundle(name, **kw)
        c = bundle.factor_inputs.c
        net = bundle.net
        lo = net.k_min if net.k_min is not None else -1000
        ks = np.arange(lo, lo + 10_000 if net.k_min is not None else 1000)
        pts = np.array([net.points(int(k)) for k in ks])
        d_up = np.asarray(bundle.family.divergence_fn(pts[1:], pts[:-1]))
        d_dn = np.asarray(bundle.family.divergence_fn(pts[:-1], pts[1:]))
        assert float(np.min(d_up)) > c - 1e-9
        assert float(np.min(d_dn)) > c - 1e-9

    def test_poisson_no_tie(self):
        """No integer is equidistant from two consecutive squares: the
        midpoint t^2 + t + 1/2 is never an integer."""
        b = make_bundle("poisson")
        for t in range(1, 2000):
            mid = t * t + t + 0.5
            assert mid != math.floor(mid)
            # the two sides of the midpoint select different squares
            assert b.estimate(math.floor(mid)) == t * t
            assert b.estimate(math.ceil(mid)) == (t + 1) * (t + 1)

    def test_binomial_net_strictly_increasing_in_unit_interval(self):
        for n in (4, 16, 64, 256):
            net = make_bundle("binomial", n=n).net
            pts = [net.points(k) for k in net.indices()]
            assert all(0.0 < p < 1.0 for p in pts)
            assert all(b > a for a, b in zip(pts, pts[1:]))

    def test_bundles_are_immutable(self):
        b = make_bundle("poisson")
        with pytest.raises(Exception):
            b.factor_C = 1.0

    def test_replace_supports_mutation_testing(self):
        b = make_bundle("poisson")
        b2 = replace(b, factor_C=1.0)
        assert b2.factor_C == 1.0 and b.factor_C > 1.0

    def test_geometric_net_ratio_consistency_long_window(self):
        # exact rational powers: the computed ratio between consecutive
        # points equals 1 + 1/sqrt(n) to the last ulp across |k| <= 1000
        for n in (4, 16, 64):
            b = make_bundle("normal_variance", n=n)
            q = 1.0 + 1.0 / math.sqrt(n)
            for k in range(-1000, 1000, 97):
                ratio = b.net.points(k + 1) / b.net.points(k)
                assert ratio == pytest.approx(q, rel=5e-16)

    def test_r_epsilon_estimator_variant(self):
        b = make_bundle("normal_mean", epsilon=0.2)
        assert isinstance(b.estimator, REpsilon)
        assert b.factor_C == pytest.approx(
            factor_from_growth(0.5 * 0.7**2, 1.0), rel=1e-12
        )
        with pytest.raises(DomainError):
            make_bundle("normal_mean", epsilon=0.2, n=4)


def _law_references():
    """(bundle, thetas, points, frozen scipy.stats reference) per family.

    The binomial, Poisson and discrete uniform laws are indexed by support
    point; the others by statistic value.  The normal-variance reference
    rescales its statistic to the chi-square it is."""
    from scipy import stats

    class _ScaledChi2:
        def __init__(self, n, var):
            self.n, self.var = n, var

        def cdf(self, v):
            return stats.chi2.cdf(self.n * v / self.var, df=self.n)

        def sf(self, v):
            return stats.chi2.sf(self.n * v / self.var, df=self.n)

        def ppf(self, q):
            return self.var * stats.chi2.ppf(q, df=self.n) / self.n

    counts = lambda top: np.concatenate([np.arange(-2.0, top + 3.0), [0.5, 3.25]])  # noqa: E731
    reals = np.concatenate([np.linspace(-40.0, 40.0, 161), [-1e4, 1e4, 0.0]])
    positive = np.concatenate([np.geomspace(1e-6, 1e3, 91), [-1.0, 0.0]])
    cases = []
    for n in (49, 10_000):
        cases.append((make_bundle("binomial", n=n), (1e-4, 0.02, 0.5, 0.97), counts(n),
                      lambda p, n=n: stats.binom(n, p)))
    cases.append((make_bundle("poisson"), (0.5, 9.0, 1234.5), counts(1500),
                  lambda lam: stats.poisson(lam)))
    cases.append((make_bundle("discrete_uniform"), (1.0, 7.0, 513.0), counts(600),
                  lambda N: stats.randint(0, int(N) + 1)))
    cases.append((make_bundle("continuous_uniform"), (1e-3, 0.7, 1024.0), positive,
                  lambda t: stats.uniform(scale=t)))
    for n in (1, 16):
        cases.append((make_bundle("normal_mean", n=n), (-3.3, 0.0, 500.25), reals,
                      lambda mu, n=n: stats.norm(loc=mu, scale=1.0 / math.sqrt(n))))
    for n in (1, 64):
        cases.append((make_bundle("normal_variance", n=n), (1e-3, 1.0, 37.5), positive,
                      lambda var, n=n: _ScaledChi2(n, var)))
    cases.append((make_bundle("cauchy", epsilon=0.2), (-7.0, 0.0, 0.4), reals,
                  lambda t: stats.cauchy(loc=t)))
    return cases


class TestStatLaw:
    def test_cdf_sf_ppf_bit_equal_to_scipy_stats(self):
        """Oracle: scipy.stats, whose arithmetic each law repeats with the
        same scipy.special ufuncs."""
        qs = np.array([1e-13, 2.5e-13, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.99,
                       1 - 1e-6, 1 - 2.5e-13])
        for bundle, thetas, points, reference in _law_references():
            law = bundle.family.law
            for theta in thetas:
                ref = reference(theta)
                where = (bundle.bundle_id, theta)
                np.testing.assert_array_equal(law.cdf(theta, points), ref.cdf(points), where)
                np.testing.assert_array_equal(law.sf(theta, points), ref.sf(points), where)
                np.testing.assert_array_equal(law.ppf(theta, qs), ref.ppf(qs), where)

    def test_laws_broadcast_over_theta(self):
        law = make_bundle("binomial", n=64).family.law
        ps = np.array([[0.1], [0.5]])
        ks = np.array([3.0, 40.0])
        both = law.cdf(ps, ks)
        assert both.shape == (2, 2)
        np.testing.assert_array_equal(both[1], law.cdf(0.5, ks))

    def test_scalar_samples_are_one_dimensional(self):
        rng = np.random.default_rng(0)
        for name, kw in [("normal_mean", {"n": 1}), ("normal_variance", {"n": 1}),
                         ("cauchy", {}), ("poisson", {})]:
            law = make_bundle(name, **kw).family.law
            assert law.sample(2.0, 5, rng).shape == (5,), name
        law = make_bundle("normal_mean", n=16).family.law
        assert law.sample(0.0, 5, rng).shape == (5, 16)

    def test_window_caps_heavy_tails_and_takes_quantiles(self):
        cauchy = make_bundle("cauchy").family.law
        assert cauchy.window(3.0, 1e-12).tolist() == [3.0 - 10_000, 3.0 + 10_000]
        binom = make_bundle("binomial", n=64).family.law
        np.testing.assert_array_equal(binom.window(0.5, 1e-12),
                                      binom.ppf(0.5, np.array([5e-13, 1 - 5e-13])))
        assert cauchy.window(np.array([0.0, 1.0]), 1e-12).shape == (2, 2)

    def test_the_uniform_window_stays_off_zero_at_every_tail_a_plan_takes(self):
        """The least tail any window is asked for is 2**-52, half the spike
        envelope's tail_mass / 2 at the plan's least tail_mass 2**-51: its
        lower quantile level 2**-53 keeps the uniform's window, where the
        ceiling estimator is undefined at 0, off 0 without a floor."""
        uniform = make_bundle("continuous_uniform").family.law
        lo, hi = uniform.window(4.0, 2.0**-52)
        assert lo == 4.0 * 2.0**-53 > 0.0 and hi == 4.0 * (1.0 - 2.0**-53)

    @pytest.mark.parametrize("thetas", [1e12, [4.0, 1e12, 2e12]])
    def test_a_nan_quantile_names_its_theta(self, thetas):
        """pdtrik, the Poisson's quantile, is NaN at lambda = 1e12 (finite
        at 1e11): the window says so, naming the first such theta, where
        a NaN window once surfaced as a net index beyond 2**53."""
        law = make_bundle("poisson").family.law
        assert np.all(np.isfinite(law.window(1e11, 1e-12)))
        with pytest.raises(DomainError, match=r"theta = 1000000000000\.0: .*quantile is NaN"):
            law.window(np.asarray(thetas), 1e-12)

    def test_import_does_not_load_scipy_stats(self):
        import os
        import subprocess
        import sys

        import evarify

        src = os.path.dirname(os.path.dirname(evarify.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, evarify; print('scipy.stats' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


#: the laws with statistic draws, at the thetas of the benchmark's Monte
#: Carlo grids (perfbench/workloads.py)
STATISTIC_DRAWS = ([("normal_mean", n, (0.0, 0.3, 10.1)) for n in (4, 16)]
                   + [("normal_variance", n, (0.5, 1.0, 3.7)) for n in (1, 4, 64)])


class TestStatisticDraws:
    """``draw_statistic`` stands in for g(X) of sampled X in Monte Carlo:
    its draws must follow the law of g(X) and stay on its support."""

    def test_declared_where_the_line_is_not_the_sample(self):
        for name, kw in BENCHMARK_CONFIGS + [("normal_mean", {"n": 4}),
                                             ("normal_variance", {"n": 1})]:
            law = make_bundle(name, **kw).family.law
            drawn = name == "normal_variance" or (name == "normal_mean" and kw["n"] > 1)
            assert (law.draw_statistic is not None) == drawn, (name, kw)
            assert law.statistic_is_sample == (not drawn), (name, kw)

    @pytest.mark.parametrize("name,n,thetas", STATISTIC_DRAWS)
    def test_draws_follow_the_law_and_the_statistic_of_samples(self, name, n, thetas):
        """Kolmogorov-Smirnov against ``law.cdf``, and two-sample against
        ``estimator_g`` of drawn samples (fixed seeds, p > 1e-3)."""
        from scipy import stats

        fam = make_bundle(name, n=n).family
        law, m = fam.law, 20_000
        for i, theta in enumerate(thetas):
            rng = np.random.default_rng([n, i])
            draws = law.draw_statistic(theta, m, rng)
            assert draws.shape == (m,)
            assert stats.kstest(draws, lambda v: law.cdf(theta, v)).pvalue > 1e-3
            of_samples = fam.estimator_g(law.sample(theta, m, rng))
            assert stats.ks_2samp(draws, of_samples).pvalue > 1e-3

    @pytest.mark.parametrize("name,n,thetas", [
        ("normal_mean", 4, (-1e300, 1e300)), ("normal_mean", 16, (-1e300, 1e300)),
        *[("normal_variance", n, (1e-150, 1e-3, 1e3, 1e150)) for n in (1, 4, 64)]])
    def test_draws_lie_strictly_inside_the_support(self, name, n, thetas):
        bundle = make_bundle(name, n=n)
        law = bundle.family.law
        for theta in thetas:
            draws = law.draw_statistic(theta, 100_000, np.random.default_rng(1))
            assert np.all((law.lo < draws) & (draws < law.hi)), theta
            bundle.on_line(draws)


class TestFamilyKnowledgeInOneModule:
    def test_no_other_module_reads_the_family_name(self):
        """Everything family-specific is on the bundle: no other module
        branches on the family's name."""
        import inspect

        from evarify import checker, cli, combinator, fourier, verifier

        for module in (checker, combinator, fourier, verifier, cli):
            assert "family.name" not in inspect.getsource(module), module.__name__

    def test_every_public_symbol_has_a_caller(self):
        """Each name in ``evarify.__all__`` is read somewhere in ``src/``
        (the CLI included) or ``demos/``: a load of the name, not its
        definition, an import or an export list.  ``__version__`` is
        metadata, not code.  The discrete uniform's budget certificate is
        kept without a caller: criterion 3 checks it and the next
        derivations of its supremum build on it."""
        import ast
        from pathlib import Path

        import evarify

        allowed = {"uniform_ceiling_budget", "uniform_ceiling_budget_max"}
        root = Path(__file__).resolve().parent.parent
        read = set()
        for path in [*(root / "src" / "evarify").glob("*.py"), *(root / "demos").glob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    read.add(node.id if isinstance(node, ast.Name) else node.attr)
        public = {name for name in evarify.__all__ if not name.startswith("__")}
        assert public - read == allowed

    def test_the_one_value_rule_is_applied_in_core_only(self):
        """The families and the nets' primitives are array code: the
        one-value conversion is ``Family``'s and ``Net.points``' alone, and
        the combinator has no scalar twin of the batch path."""
        import inspect

        from evarify import combinator, core, families

        src = inspect.getsource(families)
        for phrase in ("float(out) if", ".ndim == 0", "np.ndim(", "_as_floats"):
            assert phrase not in src, phrase
        nets = [c for c in vars(core).values()
                if isinstance(c, type) and issubclass(c, core.Net) and c is not core.Net]
        assert len(nets) == 7
        for net in nets:
            assert "points" not in vars(net), net.__name__
            assert "_one(" not in inspect.getsource(net), net.__name__
        assert not hasattr(combinator, "_component_value")

    def test_no_module_builds_cells_or_net_points_one_index_at_a_time(self):
        """Cells and net points come as arrays (``Estimator.edges``,
        ``Net.points``): no module calls ``.cell(`` or runs a
        ``.point(k) for`` comprehension, and there is no ``Cell``.  The
        checker asks the net for neighbours, and every expectation goes
        through ``verifier.expectation``: neither keeps its own.  A sample
        reaches its cell one way: estimators take statistic values only,
        the bundle's ``index`` replaces the combinator's, and no bundle
        stores a table of the counts' indices."""
        import inspect
        import re

        import evarify
        from evarify import checker, combinator, core, families, verifier

        for module in (checker, combinator, verifier, families):
            src = inspect.getsource(module)
            assert ".cell(" not in src, module.__name__
            assert not re.search(r"\.points?\(\w+\) for ", src), module.__name__
        assert not hasattr(core, "Cell")
        assert "Cell" not in core.__all__ and "Cell" not in evarify.__all__
        for module, name in [(verifier, "_closed_form_engine"), (verifier, "_PiecewiseEngine"),
                             (checker, "_selection"), (checker, "_pred"), (checker, "_succ"),
                             (checker, "GridSpec"), (checker, "default_grid_spec"),
                             (combinator, "_index_at"), (families.FamilyBundle, "support_index")]:
            assert not hasattr(module, name), name
        for est in (core.Estimator, *core.Estimator.__subclasses__()):
            for name in ("statistic", "statistic_index", "__call__"):
                assert name not in vars(est), (est.__name__, name)


class TestCharacteristicFunction:
    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS + ALL_BUNDLES)
    def test_declared_on_exactly_the_laws_with_a_moment(self, name, kw):
        law = make_bundle(name, **kw).family.law
        assert (law.charfn is None) == (law.moment is None)

    @pytest.mark.parametrize("name,kw", SQUARING_CONFIGS)
    def test_against_quadrature_and_log_concave(self, name, kw):
        """Oracle: E cos(t (X - theta)) by scipy's Fourier quadrature of
        the density (the laws are symmetric, so that is the whole
        characteristic function).  phi(t + s) / phi(t) does not grow in
        t > 0, which the series' tail bound needs, on a grid of t."""
        from scipy import integrate

        fam = make_bundle(name, **kw).family
        for t in (0.5, 1.0, 2.0 * math.pi, 4.0 * math.pi):
            want, _ = integrate.quad(lambda z: 2.0 * math.exp(float(fam.log_density(0.0, z))),
                                     0.0, math.inf, weight="cos", wvar=t)
            assert fam.law.charfn(np.array([t]))[0] == pytest.approx(want, rel=1e-7, abs=1e-10)
            assert fam.law.charfn(np.array([-t]))[0] == fam.law.charfn(np.array([t]))[0]
        t = np.linspace(0.01, 30.0, 3001)  # phi(t + 2 pi) > 0 on both laws
        ratio = fam.law.charfn(t + 2.0 * math.pi) / fam.law.charfn(t)
        assert np.all(np.diff(ratio) <= 1e-12 * ratio[:-1])  # exp rounds as t u


@pytest.mark.parametrize("theta", [0.0, 0.3, -1234.5, 1e6])
def test_laws_with_a_moment_fall_away_from_theta(theta):
    """``StatLaw`` declares that a law with ``moment`` has a density that
    does not increase away from theta, and the far copies' charge of a
    periodic sweep rests on it: the masses of unit periods F(theta + k + 1)
    - F(theta + k) do not increase in k >= 0 and mirror those at -k - 1,
    for k up to 10^4, within the CDF values' error."""
    from evarify.core import _CDF_EPS

    laws = {(name, str(kw)): make_bundle(name, **kw).family.law for name, kw in
            BENCHMARK_CONFIGS + ALL_BUNDLES + [("normal_mean", {"epsilon": 0.2}), ("cauchy", {})]}
    laws = {name: law for name, law in laws.items() if law.moment is not None}
    assert {name for name, _ in laws} == {"cauchy", "normal_mean"} and len(laws) == 4
    k = np.arange(-10**4, 10**4 + 1.0)
    for name, law in laws.items():
        mass = np.diff(law.cdf(theta, theta + k))  # at k = -10^4 .. 10^4 - 1
        above, below = mass[10**4:], mass[:10**4][::-1]  # k >= 0 and k = -1, -2, ..
        assert np.all(np.diff(above) <= 4.0 * _CDF_EPS), name
        assert np.all(np.diff(below) <= 4.0 * _CDF_EPS), name
        assert np.all(np.abs(above - below) <= 4.0 * _CDF_EPS), name
        assert above[0] > 0.1 and above[1] < above[0], name


@pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS + [("normal_mean", {"epsilon": 0.2})])
def test_the_bundle_net_is_its_estimators(name, kw):
    """A bundle has one net, the one its estimator rounds to."""
    b = make_bundle(name, **kw)
    assert b.net is b.estimator.net
