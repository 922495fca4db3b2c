"""The continuously interpolated combiner on integer nets.

Hard rounding makes the discrete composite discontinuous in x.  On the
unit-lattice families (unit-variance normal and Cauchy location) the
selection can instead be blended: trapezoid weights form a partition of
unity with plateaus around each integer and linear ramps across the
half-integer neighbourhoods, and the composite sums the at-most-two
active weighted components.

The split into even-indexed and odd-indexed halves shows why the result
is still an e-variable: each half is an ordinary discrete composite
under a rounding rule that sends half-integer neighbourhoods to its own
parity, and the interpolated test is exactly their average.

The composite of the unit-cell spikes repeats with period 1, so its
expectation is a Fourier series in theta; the certified factor is the
largest, over epsilon, of that series' sup over every theta plus its
bound.
"""

import numpy as np

from evarify import (
    bump_weight,
    combine_interpolated,
    constant_evar,
    even_odd_reconstruction,
    make_bundle,
    sweep,
)
from evarify.verifier import certify_interpolated_factor, interpolated_spike_composite

eps = 0.2

# partition of unity: the two active trapezoids are exactly complementary
xs = np.linspace(-1.0, 2.0, 13)
print("x      w(0)   w(1)   sum")
for x in xs:
    w0, w1 = bump_weight(0, eps, float(x)), bump_weight(1, eps, float(x))
    print(f"{x:5.2f} {w0:6.3f} {w1:6.3f} {w0 + w1 + bump_weight(-1, eps, float(x)):6.3f}")

# the even/odd average reconstructs the interpolated composite exactly
cauchy = make_bundle("cauchy", epsilon=eps)
rng = np.random.default_rng(0)
comps = {n: constant_evar(float(v)) for n, v in
         zip(range(-3, 4), rng.uniform(0.5, 3.0, 7))}
interp = combine_interpolated(cauchy, comps, epsilon=eps, factor_C=2.0)
recon = even_odd_reconstruction(comps, eps, factor_C=2.0)
grid = np.linspace(-2.5, 2.5, 2001)
worst = max(abs(interp(float(x)) - recon(float(x))) for x in grid)
print(f"\nmax |interpolated - (even+odd)/2| over {len(grid)} points: {worst:.3e}")

# certify the factor for the unit-cell spike suite over every theta, then sweep
for name in ("normal_mean", "cauchy"):
    bundle = make_bundle(name, epsilon=eps)
    C, per_eps = certify_interpolated_factor(bundle)
    print(f"\n{name}: certified factor {C:.7f} (the largest sup + bound)")
    for e in (0.05, 0.1, 0.2):
        sup, bound = per_eps[e]
        report = sweep(interpolated_spike_composite(bundle, e, C))
        print(f"   eps = {e:4.2f}: sup over all theta {sup:.7f} (+ {bound:.1e}), "
              f"grid worst E = {report.worst_value:.6f} -> {report.verdict}")
