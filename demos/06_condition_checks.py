"""Verifying the factor-formula preconditions numerically.

The closed-form factors rest on checkable conditions: a log-ratio /
divergence identity, a per-cell divergence bound c', a sandwich relation
between the estimator and the pointwise estimate, and either a growth
exponent alpha or a step lower bound c.  The checker measures each on
deterministic grids and compares against the declared constants.

The checks also catch corruption: an off-by-one estimator or an
inflated step constant fails with explicit witnesses.
"""

from dataclasses import replace

import numpy as np

from evarify import make_bundle, run_all_checks
from evarify.checker import check_divergence_growth
from evarify.core import Estimator

for name, kw in [("poisson", {}), ("normal_variance", {"n": 16}),
                 ("cauchy", {"epsilon": 0.2}), ("binomial", {"n": 64})]:
    bundle = make_bundle(name, **kw)
    print(f"== {bundle.bundle_id}")
    for cname, rep in sorted(run_all_checks(bundle).items()):
        extra = (f"  estimate = {rep.estimated_constant:.6g}"
                 if rep.estimated_constant is not None else "")
        print(f"   {cname:22s} {'pass' if rep.passing else 'FAIL'}{extra}")

# a growth exponent the Poisson divergence cannot deliver: pairs just
# outside (1, 9) separate three squares but diverge by only ~5.8
bundle = make_bundle("poisson")
report = check_divergence_growth(bundle, alpha=10.0)
print(f"\npoisson with exponent 10: {'pass' if report.passing else 'FAIL'}, "
      f"{len(report.witnesses)} witnesses, e.g. {report.witnesses[0]}")


class OffByOne(Estimator):
    """Deliberately corrupted estimator: selects the next cell up, capped
    at the net's top index (whose cell then also holds the one below)."""

    def __init__(self, base):
        self._base, self.net = base, base.net
        self.right_closed = base.right_closed

    def index(self, v):
        k = np.asarray(self._base.index(v)) + 1
        return k if self.net.k_max is None else np.minimum(k, self.net.k_max)

    def edges(self, ks):
        k = np.asarray(ks)
        e = self._base.edges(k - 1)
        e[..., 1] = np.where(k == self.net.k_max, self._base.edges(k)[..., 1], e[..., 1])
        return e


# the checks see through the statistic: Poisson's is the sample itself,
# the binomial's is the count over n
print("\ncorrupted estimator detection:")
for name, kw in [("poisson", {}), ("binomial", {"n": 64})]:
    bundle = make_bundle(name, **kw)
    reports = run_all_checks(replace(bundle, estimator=OffByOne(bundle.estimator)))
    for cname in ("cell_sandwich", "cell_bound"):
        rep = reports[cname]
        print(f"   {bundle.bundle_id:16s} {cname:16s} {'pass' if rep.passing else 'FAIL'} "
              f"(max violation {rep.max_violation:.3g})")
