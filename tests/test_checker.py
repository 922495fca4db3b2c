"""Condition checks: pass on the shipped bundles, fail on corrupted ones."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from evarify import checker, families
from evarify.checker import (
    IDENTITY_TOL,
    SLACK_TOL,
    ConditionReport,
    check_cell_sandwich,
    check_divergence_growth,
    check_log_ratio_identity,
    check_reverse_triangle,
    default_cell_samples,
    default_growth_pairs,
    estimate_cell_bound,
    estimate_step_lower_bound,
    run_all_checks,
    step_bounds_directed,
)
from evarify.core import DomainError, Estimator
from evarify.families import make_bundle

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


class _OffByOneEstimator(Estimator):
    """Deliberately corrupted estimator (selects the neighbouring cell, up
    to the net's top index); it defines only ``index`` and ``edges``."""

    def __init__(self, base):
        self._base = base
        self.net = base.net
        self.right_closed = base.right_closed

    def index(self, v):
        k = np.asarray(self._base.index(v)) + 1
        return k if self.net.k_max is None else np.minimum(k, self.net.k_max)

    def edges(self, ks):  # the top cell also holds the base's top cell
        k = np.asarray(ks)
        e = self._base.edges(k - 1)
        e[..., 1] = np.where(k == self.net.k_max, self._base.edges(k)[..., 1], e[..., 1])
        return e


def _sum_by_side(ld_theta, ld_s, d_g_theta, d_g_s):
    """The residual as the check computes it: |A_theta - A_s| with
    A_t = log p_t(x) + d(g(x)||t)."""
    return np.abs((ld_theta + d_g_theta) - (ld_s + d_g_s))


def _ratio_against_divergences(ld_theta, ld_s, d_g_theta, d_g_s):
    """The residual as the identity is written: the log ratio against
    the difference of divergences."""
    return np.abs((ld_theta - ld_s) - (d_g_s - d_g_theta))


def _reference_log_ratio_identity(bundle, tolerance=IDENTITY_TOL, residual=_sum_by_side):
    """The identity check as one plain loop over (theta, s) pairs, each
    recomputing both densities and divergences: the reference the check
    must reproduce exactly.  A NaN residual makes its pair's peak, and the
    worst, NaN."""
    thetas, indices, g_values = bundle.identity_axes(bundle)
    fam = bundle.family
    gs = np.asarray(g_values, dtype=float)
    xs = [fam.lift(g) for g in gs]
    x_arr = np.stack(xs) if fam.sample_dim > 1 else np.asarray(xs, dtype=float)
    peaks = [0.0]
    witnesses = []
    n_eval = n_skip = 0
    for theta in thetas:
        ld_theta = np.asarray(fam.log_density(theta, x_arr), dtype=float)
        d_g_theta = np.asarray(fam.divergence_fn(gs, theta), dtype=float)
        for k in indices:
            s = bundle.net.points(k)
            ld_s = np.asarray(fam.log_density(s, x_arr), dtype=float)
            ok = np.isfinite(ld_theta) & np.isfinite(ld_s)
            n_eval += int(np.sum(ok))
            n_skip += int(np.sum(~ok))
            if not np.any(ok):
                continue
            d_g_s = np.asarray(fam.divergence_fn(gs, s), dtype=float)
            with np.errstate(invalid="ignore"):
                resid = residual(ld_theta, ld_s, d_g_theta, d_g_s)
            resid = np.where(ok, resid, 0.0)
            i = int(np.argmax(resid))
            peaks.append(resid[i])
            if not resid[i] <= tolerance and len(witnesses) < 10:
                witnesses.append([float(theta), float(s), float(gs[i]), float(resid[i])])
    worst = float(np.max(peaks))
    return {
        "condition": "log_ratio_identity",
        "max_violation": 0.0 if worst <= tolerance else worst,
        "tolerance": tolerance,
        "passing": worst <= tolerance,
        "estimated_constant": worst,
        "n_evaluated": n_eval,
        "n_skipped": n_skip,
        "witnesses": witnesses,
    }


def _reference_cell_sandwich(bundle, samples=None, index=None):
    """The sandwich check as a plain loop over samples with four
    ``Net.pred``/``Net.succ`` calls each: the reference the vectorized
    check must reproduce exactly.  ``index`` selects the net index of a
    statistic value (the bundle's estimator by default)."""
    xs = default_cell_samples(bundle) if samples is None else samples
    net = bundle.net
    index = bundle.estimator.index if index is None else index
    worst, witnesses = 0.0, []
    for x in xs:
        g = float(bundle.family.estimator_g(x))
        s = net.points(index(g))
        viol = 0.0
        ps, pg = net.pred(s), net.pred(g)
        if ps is not None and pg is not None and pg < ps:
            viol = max(viol, ps - pg)
        if ps is not None and pg is None:
            viol = max(viol, math.inf)
        ss, sg = net.succ(s), net.succ(g)
        if ss is not None and sg is not None and sg > ss:
            viol = max(viol, sg - ss)
        if sg is None and ss is not None:
            viol = max(viol, math.inf)
        worst = max(worst, viol)
        if viol > 0 and len(witnesses) < 10:
            witnesses.append((None, float(s), float(g), float(viol)))
    return worst, tuple(witnesses), len(xs)


#: every bundle ``tools/report_bytes.py`` builds: the benchmark's and these
REPORT_BYTES_CONFIGS = BENCHMARK_CONFIGS + [
    ("binomial", {"n": 4}),
    ("cauchy", {}),
    ("normal_mean", {"alpha": 0.5, "n": 3}),
    ("normal_mean", {"epsilon": 0.1}),
    ("normal_mean", {"alpha": 1e4}),
    ("normal_variance", {"n": 4}),
    ("normal_variance", {"n": 5}),
]


def _interior_samples(bundle, per_cell=32, points_max=1024):
    """Dense samples inside the checked cells (every cell of a net bounded
    on both sides, else 120 from max(k_min, -60)): a discrete cell's every
    support point when it has at most ``points_max``, else that many
    spread over it (below 2**53); ``per_cell`` evenly spaced statistics
    strictly inside each finite continuous cell, lifted."""
    net = bundle.net
    if net.k_min is not None and net.k_max is not None:
        ks = np.arange(net.k_min, net.k_max + 1)
    else:
        first = max(-60 if net.k_min is None else net.k_min, -60)
        ks = np.arange(first, first + 120)
    if bundle.family.law.discrete:
        samples = []
        for before, last in bundle.cell_bounds(ks).tolist():
            last = min(last, 2.0**53 - 1.0)
            if last - before > points_max:
                samples.append(np.unique(np.round(np.linspace(before + 1.0, last, points_max))))
            elif last > before:
                samples.append(np.arange(before + 1.0, last + 1.0))
        return np.concatenate(samples)
    e = bundle.estimator.edges(ks)
    e = e[np.isfinite(e).all(axis=1)]
    grid = np.arange(1, per_cell + 1) / (per_cell + 1.0)
    return bundle.family.lift((e[:, :1] + (e[:, 1:] - e[:, :1]) * grid).ravel())


def _reference_divergence_growth(bundle, pairs=None, alpha=None):
    """The growth check as a plain loop over pairs with two scalar
    divergence calls each: the reference the array pass must reproduce
    field by field."""
    ps = default_growth_pairs(bundle) if pairs is None else pairs
    fam, net = bundle.family, bundle.net
    worst, best_ratio, witnesses, n_eval = 0.0, math.inf, [], 0
    for t1, t2 in ps:
        t1, t2 = (t1, t2) if t1 <= t2 else (t2, t1)
        k = net.count_between(t1, t2)
        if k <= 1:
            continue
        log_k1 = math.log(k - 1)
        dmin = min(float(fam.divergence_fn(t1, t2)), float(fam.divergence_fn(t2, t1)))
        n_eval += 1
        if log_k1 > 0:
            best_ratio = min(best_ratio, dmin / log_k1)
        if alpha is not None:
            viol = max(0.0, (1.0 + alpha) * log_k1 - dmin)
            worst = max(worst, viol)
            if viol > SLACK_TOL and len(witnesses) < 10:
                witnesses.append((float(t1), float(t2), float(k), float(viol)))
    return ConditionReport(
        "divergence_growth", worst, SLACK_TOL, worst <= SLACK_TOL, tuple(witnesses),
        (best_ratio - 1.0) if math.isfinite(best_ratio) else None, n_eval).to_dict()


def _reference_growth_pairs(bundle):
    """The default growth pairs as a loop with one ``Net.points`` call per
    scalar index: the reference the array calls must reproduce, pair by
    pair and draw by draw."""
    net = bundle.net
    rng = np.random.default_rng(0)
    lo_k = net.k_min if net.k_min is not None else -500
    hi_k = net.k_max if net.k_max is not None else 500
    pairs = []
    gaps = sorted({g for g in [2, 3, 4, 5, 8, 13, 21, 55, 144, 377, 1000]
                   if g <= hi_k - lo_k})
    anchors = sorted({a for a in (lo_k, (lo_k + hi_k) // 2, hi_k - 2) if a >= lo_k})
    space = bundle.family.param_space
    for gap in gaps:
        for a in anchors:
            b = a + gap
            if b > hi_k:
                continue
            pa, pb = net.points(a), net.points(b)
            if a - 1 >= lo_k:
                prev_gap = pa - net.points(a - 1)
            elif space.lo > -math.inf:
                prev_gap = pa - space.lo
            else:
                prev_gap = 1.0
            if b + 1 <= hi_k:
                next_gap = net.points(b + 1) - pb
            elif space.hi < math.inf:
                next_gap = space.hi - pb
            else:
                next_gap = max(1.0, pb - net.points(b - 1))
            t1 = pa - prev_gap / 64.0
            t2 = pb + next_gap / 64.0
            if space.contains(t1) and space.contains(t2):
                pairs.append((float(t1), float(t2)))
    for _ in range(300):
        ka = int(rng.integers(lo_k, hi_k))
        kb = int(rng.integers(lo_k, hi_k))
        if ka == kb:
            continue
        ka, kb = min(ka, kb), max(ka, kb)
        t1 = net.points(ka) + (rng.random() - 0.5) * 1e-3
        t2 = net.points(kb) + (rng.random() - 0.5) * 1e-3
        if t1 < t2 and space.contains(t1) and space.contains(t2):
            pairs.append((float(t1), float(t2)))
    return pairs


def _reference_reverse_triangle(bundle, seed=0, n_triples=1000):
    """The triangle check as a plain loop over triples with three scalar
    divergence calls each, on the triples the check draws: the reference
    the array pass must reproduce field by field."""
    fam = bundle.family
    rng = np.random.default_rng(seed)
    space = fam.param_space
    if space.integer:
        draws = rng.integers(0, 4096, (n_triples, 3)).astype(float)
    elif space.lo == 0.0:
        draws = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (n_triples, 3)))
    else:
        draws = rng.uniform(-50.0, 50.0, (n_triples, 3))
    draws.sort(axis=1)
    triples = [tuple(row) for row in np.vstack([draws, draws[: n_triples // 2, ::-1]])]
    worst, witnesses = 0.0, []
    for t1, t2, t3 in triples:
        d13 = float(fam.divergence_fn(t1, t3))
        d12 = float(fam.divergence_fn(t1, t2))
        d23 = float(fam.divergence_fn(t2, t3))
        if math.isinf(d13):
            continue
        viol = max(0.0, (d12 + d23) - d13)
        worst = max(worst, viol)
        if viol > IDENTITY_TOL and len(witnesses) < 10:
            witnesses.append((float(t1), float(t2), float(t3), float(viol)))
    return ConditionReport("reverse_triangle", worst, IDENTITY_TOL, worst <= IDENTITY_TOL,
                           tuple(witnesses), n_evaluated=len(triples)).to_dict()


def _assert_same_fields(report, ref):
    doc = report.to_dict()
    assert doc.keys() == ref.keys()
    for key, value in ref.items():
        assert doc[key] == value, key


def _counting_divergence(bundle):
    """The bundle with its divergence counting its calls in ``calls``."""
    calls = []
    fn = bundle.family.divergence_fn

    def counted(*args):
        calls.append(1)
        return fn(*args)
    return replace(bundle, family=replace(bundle.family, divergence_fn=counted)), calls


def _nan_divergence_poisson():
    b = make_bundle("poisson")
    wrong = replace(b.family, divergence_fn=lambda a, c: np.full(np.shape(a), np.nan))
    return replace(b, family=wrong)


def _zero_divergence_poisson():
    b = make_bundle("poisson")
    wrong = replace(b.family, divergence_fn=lambda a, c: np.asarray(a, float) * 0.0)
    return replace(b, family=wrong)


def _doubled_divergence_poisson(nan_at=None):
    """Poisson with its divergence doubled (so the identity fails on
    every pair) and NaN at the statistic value ``nan_at``."""
    b = make_bundle("poisson")
    div = b.family.divergence_fn

    def doubled(a, c):
        return np.where(np.asarray(a) == nan_at, np.nan, 2.0 * div(a, c))
    return replace(b, family=replace(b.family, divergence_fn=doubled))


def _infinite_divergence_poisson(below):
    """Poisson with d(g||t) = +inf at g = 32 for every t < ``below``: an
    infinite residual against the other parameters, and inf - inf (NaN)
    between two of them."""
    b = make_bundle("poisson")
    div = b.family.divergence_fn

    def infinite(a, c):
        return np.where((np.asarray(a) == 32.0) & (np.asarray(c) < below), np.inf, div(a, c))
    return replace(b, family=replace(b.family, divergence_fn=infinite))


class TestLogRatioIdentity:
    @pytest.mark.parametrize(
        "name,kw",
        [("poisson", {}), ("binomial", {"n": 64}),
         ("normal_mean", {"alpha": 1.0, "n": 4}), ("normal_variance", {"n": 4}),
         ("cauchy", {"epsilon": 0.2})],
    )
    def test_passes_on_default_grid(self, name, kw):
        rep = check_log_ratio_identity(make_bundle(name, **kw))
        assert rep.passing, rep.max_violation
        assert rep.n_evaluated > 10_000
        assert rep.n_skipped == 0

    def test_poisson_residual_below_1e_10(self):
        rep = check_log_ratio_identity(make_bundle("poisson"))
        assert rep.estimated_constant <= 1e-10

    def test_diagonal_is_exact(self):
        b = make_bundle("poisson")
        # theta = s = 4: both sides are identically zero
        rep = check_log_ratio_identity(b, ((4.0,), (2,), (1.0, 4.0, 9.0)))
        assert rep.passing and rep.estimated_constant == 0.0

    def test_uniforms_skip_support_mismatches(self):
        rep = check_log_ratio_identity(make_bundle("discrete_uniform"))
        assert rep.passing
        assert rep.n_skipped > 0  # cells beyond the smaller parameter

    def test_detects_wrong_divergence(self):
        rep = check_log_ratio_identity(_zero_divergence_poisson())
        assert not rep.passing
        assert len(rep.witnesses) > 0

    def test_nan_residual_fails_with_witnesses(self):
        """A divergence that is NaN at one statistic value makes every
        pair's residual NaN there: the check fails (it used to pass with
        constant 0), where the same doubled divergence without the NaN
        fails on its size."""
        _, _, gs = make_bundle("poisson").identity_axes(make_bundle("poisson"))
        g = float(gs[len(gs) // 2])
        doubled = check_log_ratio_identity(_doubled_divergence_poisson())
        assert not doubled.passing and doubled.estimated_constant == pytest.approx(2499.9)
        rep = check_log_ratio_identity(_doubled_divergence_poisson(nan_at=g))
        assert not rep.passing
        assert math.isnan(rep.max_violation) and math.isnan(rep.estimated_constant)
        assert len(rep.witnesses) == 10
        assert all(w[2] == g and math.isnan(w[3]) for w in rep.witnesses)
        assert rep.n_evaluated == doubled.n_evaluated

    @pytest.mark.parametrize(
        "make",
        [lambda: make_bundle("discrete_uniform"),  # skipped points
         _zero_divergence_poisson,  # more than ten witnesses: order and cap
         lambda: _doubled_divergence_poisson(nan_at=32.0),  # NaN residuals
         lambda: _infinite_divergence_poisson(1.0),  # infinite on the theta side only
         lambda: _infinite_divergence_poisson(5.0),  # on a part of both sides
         lambda: make_bundle("binomial", n=64),
         lambda: make_bundle("normal_variance", n=4)],
        ids=["discrete_uniform", "poisson_zero_divergence", "poisson_nan_divergence",
             "poisson_infinite_theta_side", "poisson_infinite_on_both_sides",
             "binomial_n64", "normal_variance_n4"],
    )
    def test_same_report_as_the_plain_loop(self, make):
        bundle = make()
        doc = check_log_ratio_identity(bundle).to_dict()
        ref = _reference_log_ratio_identity(bundle)
        assert doc.keys() == ref.keys()
        for key, value in ref.items():  # as JSON, where NaN equals NaN
            assert json.dumps(doc[key]) == json.dumps(value), key

    @pytest.mark.parametrize("name,kw", [("binomial", {"n": 64}), ("normal_variance", {"n": 4})])
    def test_sum_by_side_agrees_with_the_written_identity(self, name, kw):
        """Comparing A_theta - A_s moves the residual from the identity's
        own association, log ratio against divergence difference, only at
        rounding level."""
        bundle = make_bundle(name, **kw)
        ours = _reference_log_ratio_identity(bundle)
        written = _reference_log_ratio_identity(bundle, residual=_ratio_against_divergences)
        assert abs(ours["estimated_constant"] - written["estimated_constant"]) <= 1e-10
        assert ours["n_evaluated"] == written["n_evaluated"]
        assert ours["passing"] and written["passing"]

    def test_each_pair_evaluated_once_in_tiles(self, monkeypatch):
        """On binomial n = 10^4 (50 thetas, 99 net points, 10,001
        statistic values) each (parameter, statistic) pair of each side
        goes through log_density and divergence_fn in exactly one call, no
        call takes more than ``_TILE_VALUES`` values, and each call holds
        every parameter of its side: ceil(10,001 / (b // 50)) +
        ceil(10,001 / (b // 99)) calls of each for b values.  So the
        density's work on the statistics alone (its two gammaln) runs once
        per statistic tile, on each statistic once per side."""
        b = make_bundle("binomial", n=10_000)
        seen = {"log_density": [], "divergence_fn": []}

        def recorded(name, at):
            fn = getattr(b.family, name)

            def wrapper(*args):
                seen[name].append((np.ravel(args[at]), np.ravel(args[1 - at])))
                return fn(*args)
            return wrapper

        fam = replace(b.family, log_density=recorded("log_density", 0),
                      divergence_fn=recorded("divergence_fn", 1))
        gammaln, gammaln_sizes = families.gammaln, []

        def counted(v):
            gammaln_sizes.append(np.size(v))
            return gammaln(v)
        monkeypatch.setattr(families, "gammaln", counted)
        thetas, indices, gs = axes = b.identity_axes(b)
        rep = check_log_ratio_identity(replace(b, family=fam), axes)
        block = checker._TILE_VALUES
        sides = (b.net.points(indices), thetas)
        tiles = [math.ceil(10_001 / (block // len(side))) for side in sides]
        for name, statistics in (("log_density", b.family.lift(gs)), ("divergence_fn", gs)):
            calls = seen[name]
            assert len(calls) == sum(tiles) == 92
            assert max(len(p) * len(x) for p, x in calls) <= block
            assert [p.tolist() for p, _ in calls] == [
                side.tolist() for side, n in zip(sides, tiles) for _ in range(n)]
            pairs = np.sort(np.concatenate([(p[:, None] + 1j * x).ravel() for p, x in calls]))
            want = np.concatenate([(side[:, None] + 1j * statistics).ravel() for side in sides])
            assert np.array_equal(pairs, np.sort(want))
        assert gammaln_sizes == [len(x) for _, x in seen["log_density"] for _ in range(2)]
        assert sum(gammaln_sizes) == 2 * 2 * 10_001
        assert rep.passing
        assert rep.n_evaluated == 49_504_950

    @pytest.mark.parametrize(
        "make",
        [*(lambda name=name, kw=kw: make_bundle(name, **kw) for name, kw in BENCHMARK_CONFIGS),
         _zero_divergence_poisson,  # witnesses, more than ten
         lambda: _doubled_divergence_poisson(nan_at=32.0),  # NaN residuals
         lambda: _infinite_divergence_poisson(5.0)],
        ids=[*(f"{name}{kw}" for name, kw in BENCHMARK_CONFIGS), "poisson_zero_divergence",
             "poisson_nan_divergence", "poisson_infinite_on_both_sides"],
    )
    def test_blocks_give_the_row_by_row_report(self, make, monkeypatch):
        """The default tiles give the report (worst, counts and witnesses)
        of tiles that split both axes: one parameter fewer than the thetas
        (so one statistic per tile), and every parameter by 7 statistics
        or more (7 on the larger side, ``7 * larger // smaller`` on the
        other), which leaves a partial last tile of statistics, on
        binomial n = 10^4's 10,001 values too; and of one value per tile
        where the grid is small."""
        bundle = make()
        thetas, indices, gs = bundle.identity_axes(bundle)
        width = bundle.family.lift(np.asarray(gs, dtype=float)).size // len(gs)
        larger = max(len(thetas), len(bundle.net.points(indices)))
        reports = [check_log_ratio_identity(bundle).to_dict()]
        sizes = [(len(thetas) - 1) * width, 7 * larger * width]
        if len(gs) * larger <= 10_000:
            sizes.append(width)
        for size in sizes:
            monkeypatch.setattr(checker, "_TILE_VALUES", size)
            reports.append(check_log_ratio_identity(bundle).to_dict())
        assert len(gs) % 7 and (len(gs) != 10_001 or 10_001 % (7 * larger // len(thetas)))
        default, *tiled = (json.dumps(r) for r in reports)  # NaN equals NaN
        assert all(r == default for r in tiled)

    def test_memory_is_one_row_per_array_not_the_grid(self):
        """A passing check on binomial n = 10^4 (50 thetas, 99 net points,
        10,001 statistic values) allocates at peak well below one
        theta-by-statistic array (4 MB)."""
        b = make_bundle("binomial", n=10_000)
        axes = b.identity_axes(b)
        tracemalloc.start()
        try:
            rep = check_log_ratio_identity(b, axes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passing
        assert peak < 0.5 * 50 * 10_001 * 8, peak

    def test_a_tile_folds_the_same_with_or_without_masks(self):
        """A tile whose densities are all positive and whose A are not
        NaN folds with plain extremes; one with a vanishing density or a
        NaN A goes through the masks.  Both give the fold of the masks
        alone (max and min are exact), with infinities among the A."""
        rng = np.random.default_rng(5)

        def masked(tiles, n):
            hi, lo = np.full(n, -math.inf), np.full(n, math.inf)
            count, nan = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
            for on, a, positive in tiles:
                number = positive & ~np.isnan(a)
                hi[on] = np.maximum(hi[on], np.max(a, axis=0, initial=-math.inf, where=number))
                lo[on] = np.minimum(lo[on], np.min(a, axis=0, initial=math.inf, where=number))
                count[on] += np.count_nonzero(positive, axis=0)
                nan[on] |= np.any(positive & np.isnan(a), axis=0)
            return hi, lo, count, nan

        a = rng.normal(size=(6, 3, 8))
        a[1, 2, 5], a[2, 0, 1], a[3, 1, 4] = math.inf, -math.inf, math.nan
        positive = np.ones(a.shape, dtype=bool)
        positive[4, 2, 6] = positive[5, :, 3] = False
        tiles = [(slice(0, 8), a[t], positive[t]) for t in range(6)] + \
            [(slice(4, 12), a[t], positive[t]) for t in range(3)]
        for got, want in zip(checker._fold(tiles, 12), masked(tiles, 12)):
            assert got.tolist() == want.tolist()


class TestCellBound:
    def test_poisson_at_most_one(self):
        b = make_bundle("poisson")
        c_hat = estimate_cell_bound(b)
        assert c_hat <= 1.0 + 1e-7
        # the bound is attained at the zero count (continuous extension)
        assert c_hat == pytest.approx(1.0, abs=1e-12)

    def test_normal_mean_at_most_alpha_sq_over_8(self):
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        assert estimate_cell_bound(b) <= 1.0 / 8.0 + 1e-9

    def test_cauchy_r_epsilon_at_most_log2(self):
        b = make_bundle("cauchy", epsilon=0.2)
        c_hat = estimate_cell_bound(b)
        assert c_hat <= math.log(2.0)
        assert c_hat == pytest.approx(math.log(1.0 + 0.49), abs=1e-6)

    def test_monotone_under_sample_refinement(self):
        b = make_bundle("poisson")
        samples = default_cell_samples(b)
        small = samples[:len(samples) // 4]
        big = np.concatenate([small, _interior_samples(b)[len(samples) // 2:]])
        assert estimate_cell_bound(b, big) >= estimate_cell_bound(b, small)

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_same_as_selecting_statistic_by_statistic(self, name, kw):
        b = make_bundle(name, **kw)
        samples = default_cell_samples(b)
        gs = [float(b.family.estimator_g(x)) for x in samples]
        want = max(float(b.family.divergence_fn(g, b.net.points(b.estimator.index(g))))
                   for g in gs)
        assert estimate_cell_bound(b, samples) == want

    def test_corrupted_estimator_exceeds_declared_bound(self):
        b = make_bundle("poisson")
        bad = replace(b, estimator=_OffByOneEstimator(b.estimator))
        assert estimate_cell_bound(bad) > 1.0 + 1e-7

    @pytest.mark.parametrize("name,kw,c_prime", [("binomial", {"n": 64}, 14.08),
                                                 ("normal_variance", {"n": 4}, 0.287)])
    def test_estimator_defining_only_index_gets_each_statistic_once(self, name, kw, c_prime):
        """An estimator that defines only ``index`` and ``edges`` (the next
        cell up, capped at the net's top) is given each sample's statistic
        once, also where the statistic is not the sample: the cell bound
        and the sandwich report equal plain loops over round_index(g) + 1."""
        b = make_bundle(name, **kw)
        bad = replace(b, estimator=_OffByOneEstimator(b.estimator))
        net = b.net

        def shifted(g):
            k = net.round_index(g) + 1
            return k if net.k_max is None else min(k, net.k_max)

        gs = [float(b.family.estimator_g(x)) for x in default_cell_samples(bad)]
        want = max(float(b.family.divergence_fn(g, net.points(shifted(g)))) for g in gs)
        assert estimate_cell_bound(bad) == want
        assert want == pytest.approx(c_prime, abs=5e-3)
        rep = check_cell_sandwich(bad)
        assert (rep.max_violation, rep.witnesses, rep.n_evaluated) == \
            _reference_cell_sandwich(bad, index=shifted)


@pytest.mark.parametrize("name,kw", REPORT_BYTES_CONFIGS,
                         ids=[f"{name}{kw}" for name, kw in REPORT_BYTES_CONFIGS])
class TestCellEnds:
    """The cell checks take each cell at its two ends, where every
    family's divergence to the selected point peaks: dense samples inside
    the same cells change neither check."""

    def test_interior_samples_raise_no_cell_bound_and_pass_the_sandwich(self, name, kw):
        b = make_bundle(name, **kw)
        ends, inner = default_cell_samples(b), _interior_samples(b)
        assert check_cell_sandwich(b, inner).passing
        assert estimate_cell_bound(b, np.concatenate([ends, inner])) == \
            estimate_cell_bound(b, ends)

    def test_cell_reports_do_not_depend_on_the_seed(self, name, kw):
        b = make_bundle(name, **kw)
        reports = [run_all_checks(b, seed=seed) for seed in (0, 1, 7)]
        for condition in ("cell_bound", "cell_sandwich"):
            assert len({json.dumps(r[condition].to_dict()) for r in reports}) == 1, condition


class TestCellSandwich:
    @pytest.mark.parametrize(
        "name,kw",
        [("poisson", {}), ("discrete_uniform", {}), ("cauchy", {"epsilon": 0.2}),
         ("normal_variance", {"n": 4})],
    )
    def test_passes(self, name, kw):
        rep = check_cell_sandwich(make_bundle(name, **kw))
        assert rep.passing

    def test_corrupted_estimator_detected_with_witnesses(self):
        b = make_bundle("poisson")
        bad = replace(b, estimator=_OffByOneEstimator(b.estimator))
        rep = check_cell_sandwich(bad)
        assert not rep.passing
        assert len(rep.witnesses) > 0

    def test_single_point_net_vacuous(self):
        # n = 4 gives a one-point sine net: every comparison is vacuous
        rep = check_cell_sandwich(make_bundle("binomial", n=4))
        assert rep.passing

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_same_report_as_the_plain_loop(self, name, kw, corrupt):
        """Worst violation, witnesses (first ten, in sample order) and
        count equal the per-sample loop's, on the shipped estimator and on
        one that selects the neighbouring cell (which violates it)."""
        b = make_bundle(name, **kw)
        if corrupt:
            b = replace(b, estimator=_OffByOneEstimator(b.estimator))
        rep = check_cell_sandwich(b)
        assert (rep.max_violation, rep.witnesses, rep.n_evaluated) == \
            _reference_cell_sandwich(b)
        assert rep.passing is not corrupt


class TestDivergenceGrowth:
    def test_cauchy_alpha_one_passes(self):
        rep = check_divergence_growth(make_bundle("cauchy", epsilon=0.2), alpha=1.0)
        assert rep.passing
        assert rep.n_evaluated > 50

    def test_vacuous_pairs_skipped(self):
        b = make_bundle("cauchy", epsilon=0.2)
        rep = check_divergence_growth(b, pairs=[(0.4, 0.6), (0.0, 1.5)], alpha=1.0)
        assert rep.passing and rep.n_evaluated == 0

    def test_poisson_with_exponent_ten_fails_with_witnesses(self):
        """Brute-force search: a pair just outside (1, 9) separates three
        squares while its divergence stays near d(1 || 9) = 8 - log 9,
        well under 11 * log 2."""
        b = make_bundle("poisson")
        rep = check_divergence_growth(b, alpha=10.0)
        assert not rep.passing
        assert len(rep.witnesses) > 0

    def test_estimation_mode(self):
        b = make_bundle("cauchy", epsilon=0.2)
        bare = replace(b, factor_inputs=None)
        rep = check_divergence_growth(bare, alpha=None)
        assert rep.passing  # nothing asserted
        assert rep.estimated_constant == pytest.approx(1.0, abs=0.05)

    def test_no_exponent_estimates_even_where_the_bundle_declares_one(self):
        """alpha=None only estimates: the bundle's declared exponent is
        asserted when it is passed (as ``run_all_checks`` does), not by
        default."""
        from evarify.core import FactorInputs

        b = make_bundle("poisson")
        strict = replace(b, factor_inputs=FactorInputs(c_prime=1.0, alpha=10.0))
        rep = check_divergence_growth(strict)
        assert rep.passing and rep.witnesses == () and rep.max_violation == 0.0
        assert rep.estimated_constant == check_divergence_growth(b, alpha=10.0).estimated_constant

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    def test_same_report_as_the_plain_loop(self, name, kw):
        b = make_bundle(name, **kw)
        alpha = b.factor_inputs.alpha if b.factor_inputs else None
        _assert_same_fields(check_divergence_growth(b, alpha=alpha),
                            _reference_divergence_growth(b, alpha=alpha))

    @pytest.mark.parametrize("alpha", [10.0, None])
    def test_same_report_as_the_plain_loop_on_poisson(self, alpha):
        """Failing with more than ten witnesses (their order and cap), and
        estimating; with vacuous and reversed pairs given."""
        b = make_bundle("poisson")
        rep = check_divergence_growth(b, alpha=alpha)
        _assert_same_fields(rep, _reference_divergence_growth(b, alpha=alpha))
        assert rep.passing is (alpha is None)
        pairs = [(9.5, 0.5), (1.0, 1.1), *default_growth_pairs(b)[:20]]
        _assert_same_fields(check_divergence_growth(b, pairs, alpha),
                            _reference_divergence_growth(b, pairs, alpha))

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS + [
        ("binomial", {"n": 16}), ("normal_mean", {"epsilon": 0.2}),
        ("normal_variance", {"n": 5}), ("cauchy", {})])
    def test_default_pairs_equal_the_scalar_loop(self, name, kw):
        """The same pairs, bit for bit and in order, as one net call per
        index; each from a fresh bundle, so no net starts warm."""
        pairs = default_growth_pairs(make_bundle(name, **kw))
        assert pairs == _reference_growth_pairs(make_bundle(name, **kw))
        assert {type(t) for pair in pairs for t in pair} == {float}

    @pytest.mark.parametrize("n", [4, 8])
    def test_one_point_net_has_no_pairs(self, n):
        """binomial n = 4 to 8 has one sine-net point (L = 2): no pair
        separates two, so the growth check is vacuous, where the random
        draws over an empty index range used to raise."""
        b = make_bundle("binomial", n=n)
        assert b.net.k_min == b.net.k_max
        assert default_growth_pairs(b) == []
        rep = run_all_checks(b)["divergence_growth"]
        assert rep.passing and rep.n_evaluated == 0

    def test_one_divergence_call_per_direction(self):
        b, calls = _counting_divergence(make_bundle("cauchy", epsilon=0.2))
        rep = check_divergence_growth(b)
        assert rep.n_evaluated == 322 and len(calls) == 2

    @pytest.mark.parametrize("alpha", [1.0, None])
    def test_nan_divergence_fails_with_witnesses(self, alpha):
        rep = check_divergence_growth(_nan_divergence_poisson(), alpha=alpha)
        assert not rep.passing and math.isnan(rep.max_violation)
        assert len(rep.witnesses) == 10 and all(math.isnan(w[3]) for w in rep.witnesses)
        assert rep.estimated_constant is None


class TestReverseTriangle:
    @pytest.mark.parametrize(
        "name,kw",
        [("poisson", {}), ("normal_mean", {"alpha": 1.0, "n": 4}),
         ("normal_variance", {"n": 4}), ("binomial", {"n": 64})],
    )
    def test_exponential_families_pass(self, name, kw):
        rep = check_reverse_triangle(make_bundle(name, **kw))
        assert rep.passing, rep.max_violation
        assert rep.n_evaluated >= 1000

    def test_degenerate_triple_is_equality(self):
        b = make_bundle("poisson")
        rep = check_reverse_triangle(b, triples=[(3.0, 3.0, 3.0)])
        assert rep.passing and rep.max_violation == 0.0

    def test_normal_mean_algebraic_identity(self):
        # (a+b)^2 >= a^2 + b^2 for same-sign increments, scaled by n/2
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        rep = check_reverse_triangle(
            b, triples=[(0.0, 1.0, 3.0), (5.0, 2.0, -1.0), (0.0, 0.5, 0.75)]
        )
        assert rep.passing

    def test_cauchy_divergence_violates_it(self):
        # log(1 + d^2) is not a Bregman divergence; far triples break the
        # inequality, which is why that family uses the growth route
        b = make_bundle("cauchy", epsilon=0.2)
        rep = check_reverse_triangle(b, triples=[(0.0, 5.0, 10.0)])
        assert not rep.passing

    @pytest.mark.parametrize("name,kw", BENCHMARK_CONFIGS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_same_report_as_the_plain_loop(self, name, kw, seed):
        """On every configuration, Cauchy's failure (with ten witnesses)
        and the uniforms' skipped infinite divergences included."""
        b = make_bundle(name, **kw)
        rep = check_reverse_triangle(b, seed=seed)
        _assert_same_fields(rep, _reference_reverse_triangle(b, seed))
        assert rep.passing is (name != "cauchy")

    def test_three_divergence_calls(self):
        b, calls = _counting_divergence(make_bundle("poisson"))
        rep = check_reverse_triangle(b)
        assert rep.n_evaluated == 1500 and len(calls) == 3

    def test_nan_divergence_fails_with_witnesses(self):
        rep = check_reverse_triangle(_nan_divergence_poisson())
        assert not rep.passing and math.isnan(rep.max_violation)
        assert len(rep.witnesses) == 10 and all(math.isnan(w[3]) for w in rep.witnesses)


class TestStepBounds:
    def test_poisson_steps_at_least_one(self):
        b = make_bundle("poisson")
        assert estimate_step_lower_bound(b, range(1, 10_001)) >= 1.0 - 1e-7

    def test_normal_mean_steps_exact(self):
        b = make_bundle("normal_mean", alpha=1.0, n=4)
        assert estimate_step_lower_bound(b, range(-1000, 1001)) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_normal_variance_directed_bounds(self):
        for n in (4, 16, 64):
            b = make_bundle("normal_variance", n=n)
            down, up = step_bounds_directed(b, range(-1000, 1001))
            assert down >= 1.0 / 32.0 - 1e-9
            assert up >= 1.0 / 8.0 - 1e-9

    def test_refinement_monotone(self):
        b = make_bundle("poisson")
        wide = estimate_step_lower_bound(b, range(1, 5001))
        narrow = estimate_step_lower_bound(b, range(1, 101))
        assert wide <= narrow  # min over a superset can only shrink


class TestRunAllChecks:
    @pytest.mark.parametrize(
        "name,kw",
        [("binomial", {"n": 64}), ("discrete_uniform", {}), ("poisson", {}),
         ("continuous_uniform", {}), ("normal_mean", {"alpha": 1.0, "n": 4}),
         ("normal_variance", {"n": 16}), ("cauchy", {"epsilon": 0.2})],
    )
    def test_all_shipped_bundles_pass(self, name, kw):
        reports = run_all_checks(make_bundle(name, **kw))
        for cname, rep in reports.items():
            assert rep.passing, (cname, rep.max_violation)

    def test_the_cell_samples_lift_at_most_2_24_values(self):
        """The cell samples lift 240 statistics to n-vectors: n = 69,906
        is refused before any value is made, where larger n once asked
        numpy for gigabytes (the lift is faked here, so no n allocates)."""
        lifted = []
        b = make_bundle("normal_variance", n=69906)
        b = replace(b, family=replace(b.family, lift=lambda v: lifted.append(v) or v))
        with pytest.raises(DomainError, match=r"family\.params\.n: 69906 .* 240 statistics"):
            checker.default_cell_samples(b)
        assert lifted == []
        assert 240 * 69905 <= 2**24 < 240 * 69906

    def test_cell_samples_built_once(self, monkeypatch):
        """The sandwich check and the cell-bound estimate share one set of
        cell samples, built from the bundle alone: the run's seed draws
        only the reverse-triangle triples."""
        from evarify import checker

        calls = []
        original = checker.default_cell_samples

        def counting(bundle, *args, **kwargs):
            calls.append((args, kwargs))
            return original(bundle, *args, **kwargs)

        monkeypatch.setattr(checker, "default_cell_samples", counting)
        run_all_checks(make_bundle("poisson"), seed=7)
        assert calls == [((), {})]

    def test_deterministic_given_seed(self):
        b = make_bundle("poisson")
        r1 = run_all_checks(b, seed=5)
        r2 = run_all_checks(b, seed=5)
        assert {k: v.to_dict() for k, v in r1.items()} == {
            k: v.to_dict() for k, v in r2.items()
        }

    def test_report_serialization_embeds_witnesses(self):
        b = make_bundle("poisson")
        rep = check_divergence_growth(b, alpha=10.0)
        doc = rep.to_dict()
        assert doc["condition"] == "divergence_growth"
        assert doc["witnesses"] and isinstance(doc["witnesses"][0], list)
        assert doc["passing"] is False

    def test_inflated_declared_step_constant_detected(self):
        # mutation: claim a step constant the net cannot deliver
        from evarify.core import FactorInputs

        b = make_bundle("poisson")
        bad = replace(b, factor_inputs=FactorInputs(c_prime=1.0, c=2.5))
        reports = run_all_checks(bad)
        rep = reports["step_lower_bound"]
        assert not rep.passing
        assert rep.max_violation == 2.5 - rep.estimated_constant
        assert rep.witnesses == ((None, None, None, rep.max_violation),)

    def test_a_cell_bound_below_the_measured_one_fails_with_a_witness(self):
        """The cell bound is a report like the others: a declared c' below
        the measured one fails by their difference and carries it as its
        witness; a "direct" bundle declares none and passes."""
        from evarify.core import FactorInputs

        b = make_bundle("poisson")
        bad = replace(b, factor_inputs=FactorInputs(c_prime=0.5, c=1.0))
        rep = run_all_checks(bad)["cell_bound"]
        assert not rep.passing
        assert rep.max_violation == rep.estimated_constant - 0.5
        assert rep.witnesses == ((None, None, None, rep.max_violation),)
        rep = run_all_checks(make_bundle("discrete_uniform"))["cell_bound"]
        assert rep.passing and rep.max_violation == 0.0 and rep.witnesses == ()

    def test_identity_tolerance_constant(self):
        assert IDENTITY_TOL == 1e-9


#: each condition's (n_evaluated, n_skipped) on BENCHMARK_CONFIGS, in order
#: (the sandwich's count is the checked cells' ends)
PINNED_COUNTS = [
    {"cell_bound": (0, 0), "cell_sandwich": (14, 0), "divergence_growth": (185, 0),
     "log_ratio_identity": (22750, 0)},
    {"cell_bound": (0, 0), "cell_sandwich": (198, 0), "divergence_growth": (314, 0),
     "log_ratio_identity": (49504950, 0)},
    {"cell_bound": (0, 0), "cell_sandwich": (106, 0), "log_ratio_identity": (6652, 16580)},
    {"cell_bound": (0, 0), "cell_sandwich": (240, 0), "log_ratio_identity": (95000, 0),
     "reverse_triangle": (1500, 0), "step_lower_bound": (0, 0)},
    {"cell_bound": (0, 0), "cell_sandwich": (240, 0), "log_ratio_identity": (17605, 34895)},
    {"cell_bound": (0, 0), "cell_sandwich": (240, 0), "log_ratio_identity": (125000, 0),
     "reverse_triangle": (1500, 0), "step_lower_bound": (0, 0)},
    {"cell_bound": (0, 0), "cell_sandwich": (240, 0), "log_ratio_identity": (125000, 0),
     "reverse_triangle": (1500, 0), "step_lower_bound": (0, 0)},
    {"cell_bound": (0, 0), "cell_sandwich": (240, 0), "log_ratio_identity": (62500, 0),
     "reverse_triangle": (1500, 0), "step_lower_bound": (0, 0)},
    {"cell_bound": (0, 0), "cell_sandwich": (240, 0), "divergence_growth": (322, 0),
     "log_ratio_identity": (125000, 0)},
]


@pytest.mark.parametrize("name,kw,counts",
                         [(*config, counts) for config, counts in zip(BENCHMARK_CONFIGS,
                                                                      PINNED_COUNTS)],
                         ids=[f"{name}{kw}" for name, kw in BENCHMARK_CONFIGS])
def test_each_checks_counts_are_pinned(name, kw, counts):
    """How many points each check evaluates and skips on each benchmark
    configuration: a check that quietly covers fewer cells, samples, pairs
    or triples fails here, though every verdict still passes."""
    reports = run_all_checks(make_bundle(name, **kw), seed=1)
    assert {k: (r.n_evaluated, r.n_skipped) for k, r in reports.items()} == counts
