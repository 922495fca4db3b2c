"""Tour of the family bundles: nets, estimators, divergences, factors.

Each of the seven families ships as a bundle pairing the distribution
with a countable parameter net, an estimator mapping samples to net
points, and a normalizing factor C that makes the selection rule
e(x) = e_{shat(x)}(x) / C a valid e-variable for the whole family.
"""

import math

from evarify import divergence, make_bundle, net_neighbors
from evarify.core import DyadicInt, ScaledLattice, Squares

# --- the seven bundles -----------------------------------------------------

bundles = [
    make_bundle("binomial", n=64),
    make_bundle("discrete_uniform"),
    make_bundle("poisson"),
    make_bundle("continuous_uniform"),
    make_bundle("normal_mean", alpha=1.0, n=4),
    make_bundle("normal_variance", n=4),
    make_bundle("cauchy", epsilon=0.2),
]

print(f"{'bundle':32s} {'net':16s} {'route':7s} {'factor C':>10s}")
for b in bundles:
    print(f"{b.bundle_id:32s} {type(b.net).__name__:16s} {b.route:7s} {b.factor_C:10.4f}")

# --- nets: predecessor / round / successor ----------------------------------

# rounding breaks ties upward; None marks the net's extremes
print("\nneighbors of 5 in {2^k}:      ", net_neighbors(DyadicInt(), 5.0))
print("neighbors of 10 in {t^2}:     ", net_neighbors(Squares(), 10.0))
print("neighbors of 0.3 in 0.5*Z:    ",
      net_neighbors(ScaledLattice(alpha=1.0, n=4), 0.3))
print("neighbors of 0.5 in {2^k}:    ", net_neighbors(DyadicInt(), 0.5))

# --- estimators ---------------------------------------------------------

du, pois, nm = bundles[1], bundles[2], bundles[4]
print("\nceil-power-of-two estimate of 5:       ", du.estimate(5))
print("nearest-square estimate of 12:         ", pois.estimate(12))
print("rounded mean of (0.1, 0.2, 0.3, 0.6):  ",
      nm.estimate([0.1, 0.2, 0.3, 0.6]))

# --- divergences ---------------------------------------------------------

print("\nPoisson d(1 || e)    =", divergence(pois.family, 1.0, math.e),
      " (= e - 2)")
print("normal-mean d(0 || 1) =", divergence(nm.family, 0.0, 1.0),
      " (= n/2 * (0 - 1)^2 with n = 4)")
cauchy = bundles[6]
print("Cauchy d(0 || 1)      =", divergence(cauchy.family, 0.0, 1.0),
      " (= log 2)")
