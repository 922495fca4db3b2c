"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them inline).

Criterion 3 asserts the shipped direct-route constant 3 against the
exact adversarial budget certificate for the ceiling-power-of-two
estimator.  That certificate exceeds 3 (first at N = 5, where components
concentrating their whole budget on the observed support reach 19/6, and
peaks at 4.0039 for N = 513), so the "<= 3" half of the criterion fails;
the test states the witness rather than weakening the bound.
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from evarify.checker import (
    check_log_ratio_identity,
    check_reverse_triangle,
    estimate_cell_bound,
    estimate_step_lower_bound,
    step_bounds_directed,
)
from evarify.combinator import bump_weight, combine_interpolated, constant_evar, \
    even_odd_reconstruction, interpolated_spike_composite
from evarify.core import calibrate_p_to_e
from evarify.families import make_bundle
from evarify.verifier import (
    ExpectationPlan,
    certify_interpolated_factor,
    mle_counterexample_poisson,
    spike_composite,
    sweep,
    uniform_ceiling_budget,
    uniform_ceiling_budget_max,
)

SEED = 7

CRITERION_1_BUNDLES = [
    ("binomial", {"n": 64}),
    ("discrete_uniform", {}),
    ("poisson", {}),
    ("continuous_uniform", {}),
    ("normal_mean", {"alpha": 1.0, "n": 1}),
    ("normal_mean", {"alpha": 1.0, "n": 4}),
    ("normal_mean", {"alpha": 1.0, "n": 16}),
    ("normal_variance", {"n": 4}),
    ("normal_variance", {"n": 16}),
    ("normal_variance", {"n": 64}),
    ("cauchy", {"epsilon": 0.2}),
]

DISCRETE = {"binomial", "discrete_uniform", "poisson"}


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    text = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(text)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(text)


def _run_criterion_1_sweeps():
    out = []
    for name, kw in CRITERION_1_BUNDLES:
        bundle = make_bundle(name, **kw)
        plan = ExpectationPlan(seed=SEED)
        start = time.perf_counter()
        composite = spike_composite(bundle, plan=plan)
        report = sweep(composite, plan=plan)
        elapsed = time.perf_counter() - start
        out.append((bundle, report, elapsed))
    return out


@pytest.fixture(scope="module")
def criterion_1_reports():
    return _run_criterion_1_sweeps()


class TestCriterion1SpikeCertification:
    def test_all_seven_families(self, criterion_1_reports):
        """Full spike suites satisfy worst-case E_theta[e] <= 1 + 3 eb
        over the adversarial grids, with error bounds 1e-6 (discrete,
        exact sums) / 1e-3 (continuous) and < 5 min per family."""
        ok = True
        details = []
        for bundle, report, elapsed in criterion_1_reports:
            eb_cap = 1e-6 if bundle.family.name in DISCRETE else 1e-3
            good = (
                report.passed
                and report.worst_error_bound <= eb_cap
                and elapsed < 300.0
            )
            ok = ok and good
            details.append(
                f"{bundle.bundle_id}: worst={report.worst_value:.6f} "
                f"eb={report.worst_error_bound:.1e} [{elapsed:.1f}s]"
            )
        _line(1, "spike-suite certification (7 families)", ok, "; ".join(details))
        for bundle, report, elapsed in criterion_1_reports:
            assert report.passed, bundle.bundle_id
            eb_cap = 1e-6 if bundle.family.name in DISCRETE else 1e-3
            assert report.worst_error_bound <= eb_cap, bundle.bundle_id
            assert elapsed < 300.0, bundle.bundle_id


class TestCriterion2FactorNecessity:
    def test_factor_one_fails_for_poisson_and_normal_variance(self):
        worsts = {}
        for name, kw in [("poisson", {}), ("normal_variance", {"n": 4})]:
            bundle = make_bundle(name, **kw)
            report = sweep(spike_composite(bundle, factor_C=1.0),
                           plan=ExpectationPlan(seed=SEED))
            worsts[bundle.bundle_id] = report.worst_value
        ok = all(v > 1.0 for v in worsts.values())
        _line(2, "factor necessity (C = 1 breaks)", ok,
              "; ".join(f"{k}: worst={v:.4f}" for k, v in worsts.items()))
        for k, v in worsts.items():
            assert v > 1.0, k


class TestCriterion3DiscreteUniformConstant:
    def test_budget_certificate_against_the_constant_3(self):
        """Exact summation sweep of the saturated per-cell budget
        certificate sum_s (s+1)/(N+1): it must reach at least 2.5 (it
        equals 5/2 exactly at N = 3, just above a power of two) and is
        claimed bounded by 3.

        The bound half is genuinely false for the ceiling estimator: at
        N = 5 the reachable points {1, 2, 4, 8} already hold budget
        19/6 > 3, and the sweep peaks at 2058/514 = 4.0039 (N = 513).
        The assertion is kept at the stated constant and fails honestly.
        """
        max_val, arg_n = uniform_ceiling_budget_max(2**20)
        # dual route: the vectorized sweep against exact rational
        # enumeration at its own argmax and at the near-tight witness
        assert float(uniform_ceiling_budget(arg_n)) == pytest.approx(
            max_val, rel=1e-12
        )
        assert uniform_ceiling_budget(3) == Fraction(5, 2)
        ge_25 = max_val >= 2.5
        le_3 = max_val <= 3.0
        _line(
            3,
            "discrete-uniform budget constant",
            ge_25 and le_3,
            f"max={max_val:.6f} at N={arg_n} (>=2.5: {ge_25}; <=3: {le_3}; "
            f"B(3)=5/2, B(5)=19/6)",
        )
        assert ge_25, "the certificate never reaches 2.5"
        assert le_3, (
            f"budget certificate exceeds 3: B({arg_n}) = {max_val:.6f}; "
            "components may concentrate each reachable point's full budget "
            "(s+1) on the observed support, e.g. B(5) = 19/6 via point "
            "masses at x in {2, 3, 5}"
        )


class TestCriterion4PoissonBounds:
    def test_cell_and_step_constants_to_ten_thousand(self):
        bundle = make_bundle("poisson")
        # per-cell suprema sit at the integer cell endpoints (the
        # divergence is convex in its first argument), so endpoint
        # samples make the estimate exact
        samples = [0.0]
        for t in range(1, 10_001):
            samples += [float(t * t - t + 1), float(t * t + t)]
        c_hat = estimate_cell_bound(bundle, samples)
        step = estimate_step_lower_bound(bundle, range(1, 10_001))
        ok = c_hat <= 1.0 + 1e-7 and step >= 1.0 - 1e-7
        _line(4, "poisson cell/step constants", ok,
              f"c'={c_hat:.9f} (<=1), c={step:.9f} (>=1), t<=1e4")
        assert c_hat <= 1.0 + 1e-7
        assert step >= 1.0 - 1e-7


class TestCriterion5NormalVarianceBounds:
    def test_directed_steps_and_cell_bound(self):
        details = []
        ok = True
        for n in (4, 16, 64):
            bundle = make_bundle("normal_variance", n=n)
            down, up = step_bounds_directed(bundle, range(-1000, 1001))
            c_hat = estimate_cell_bound(bundle)
            good = (
                down >= 1.0 / 32.0 - 1e-7
                and up >= 1.0 / 8.0 - 1e-7
                and c_hat <= 0.5 + 1e-7
            )
            ok = ok and good
            details.append(f"n={n}: down={down:.5f} up={up:.5f} c'={c_hat:.5f}")
        _line(5, "normal-variance step/cell bounds", ok, "; ".join(details))
        assert ok


class TestCriterion6ExponentialFamilyIdentities:
    def test_log_ratio_identity_and_reverse_triangle(self):
        details = []
        ok = True
        for name, kw in [("poisson", {}), ("normal_mean", {"alpha": 1.0, "n": 4}),
                         ("normal_variance", {"n": 4})]:
            bundle = make_bundle(name, **kw)
            ident = check_log_ratio_identity(bundle)
            tri = check_reverse_triangle(bundle, seed=SEED)
            good = (
                ident.passing
                and ident.estimated_constant <= 1e-9
                and tri.passing
                and tri.max_violation <= 1e-9
            )
            ok = ok and good
            details.append(
                f"{name}: resid={ident.estimated_constant:.2e} "
                f"triangle_slack={tri.max_violation:.2e}"
            )
        _line(6, "exponential-family identities", ok, "; ".join(details))
        assert ok


class TestCriterion7MLECounterexample:
    def test_asymptotic_value_and_uniform_excess(self):
        value_100 = mle_counterexample_poisson(100.0)
        anchor = math.sqrt(2.0 * math.pi * 100.0)
        within_5pct = abs(value_100 - anchor) <= 0.05 * anchor
        lams = np.geomspace(20.0, 1e4, 25)
        values = [mle_counterexample_poisson(float(l)) for l in lams]
        all_over_10 = all(v > 10.0 for v in values)
        ok = within_5pct and all_over_10
        _line(7, "poisson MLE counterexample", ok,
              f"E_100={value_100:.4f} vs sqrt(200*pi)={anchor:.4f}; "
              f"min over lambda>=20: {min(values):.3f} (>10)")
        assert within_5pct
        assert all_over_10


class TestCriterion8InterpolatedCombiner:
    def test_partition_of_unity_exact_on_large_grid(self):
        xs = np.linspace(-5.0, 5.0, 100_001)
        for eps in (0.05, 0.2):
            sums = np.empty(len(xs))
            for i, x in enumerate(xs):
                m = math.floor(x + 0.5)
                sums[i] = sum(
                    bump_weight(n, eps, float(x)) for n in (m - 1, m, m + 1)
                )
            exact = bool(np.all(sums == 1.0))
            assert exact, f"partition not exact for eps={eps}"
        _line(8, "partition of unity (1e5 grid)", True, "exactly 1.0 everywhere")

    def test_even_odd_reconstruction_pointwise(self):
        rng = np.random.default_rng(SEED)
        comps = {n: constant_evar(float(v)) for n, v in
                 zip(range(-6, 7), rng.uniform(0.0, 4.0, 13))}
        bundle = make_bundle("cauchy", epsilon=0.2)
        worst = 0.0
        for eps in (0.05, 0.1, 0.2):
            comp = combine_interpolated(bundle, comps, epsilon=eps, factor_C=2.0)
            recon = even_odd_reconstruction(comps, eps, factor_C=2.0)
            ramps = (np.arange(-5, 5)[:, None] + 0.5
                     + np.linspace(-eps, eps, 41)[None, :]).ravel()
            xs = np.concatenate([np.linspace(-5.0, 5.0, 20_001), ramps])
            for x in xs:
                worst = max(worst, abs(recon(float(x)) - comp(float(x))))
        ok = worst <= 1e-12
        _line(8, "even/odd reconstruction", ok, f"max |diff| = {worst:.2e}")
        assert ok

    def test_interpolated_sweeps_pass_at_certified_factor(self):
        details = []
        ok = True
        for name in ("normal_mean", "cauchy"):
            bundle = make_bundle(name, epsilon=0.2)
            C, _ = certify_interpolated_factor(bundle)
            for eps in (0.05, 0.1, 0.2):
                rep = sweep(interpolated_spike_composite(bundle, eps, C),
                            plan=ExpectationPlan(seed=SEED))
                ok = ok and rep.passed
            details.append(f"{name}: C={C:.4f}")
        _line(8, "interpolated spike sweeps (eps in {.05,.1,.2})", ok,
              "; ".join(details))
        assert ok


class TestCriterion9Calibrator:
    def test_quadrature_normalization(self):
        worst = 0.0
        for kappa in (0.1, 0.5, 0.9):
            val, _ = integrate.quad(
                lambda p, k=kappa: k * p ** (k - 1.0), 0.0, 1.0
            )
            worst = max(worst, abs(val - 1.0))
        ok = worst <= 1e-6
        _line(9, "calibrator quadrature normalization", ok,
              f"max |integral - 1| = {worst:.2e}")
        assert ok

    def test_monte_carlo_unit_mean_under_uniform_null(self):
        details = []
        ok = True
        for kappa in (0.1, 0.5, 0.9):
            rng = np.random.Generator(np.random.Philox(key=[SEED, 0]))
            p = rng.random(1_000_000)
            mean = float(np.mean(calibrate_p_to_e(kappa, p)))
            good = mean <= 1.0 + 1e-3
            ok = ok and good
            details.append(f"kappa={kappa}: mean={mean:.6f}")
        _line(9, "calibrator MC (1e6 samples)", ok, "; ".join(details))
        assert ok


class TestCriterion10Determinism:
    def test_identical_seed_gives_byte_identical_reports(self, criterion_1_reports):
        rerun = _run_criterion_1_sweeps()
        ok = True
        for (b1, r1, _), (b2, r2, _) in zip(criterion_1_reports, rerun):
            same = r1.to_json_bytes() == r2.to_json_bytes()
            same = same and (r1.to_csv() == r2.to_csv())
            ok = ok and same
        _line(10, "determinism (byte-identical reports)", ok,
              f"{len(rerun)} reports compared")
        assert ok
