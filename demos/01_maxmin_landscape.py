"""Tour of max-min candidate functions.

Builds V(x) = max{min{x'P1x, x'P2x}, x'P3x} for the bundled three-mode
planar benchmark and walks the unit circle: value and active bases,
plus the ordering-cone selection table that drives the matrix-inequality
certification.  Each active set carries the generalized-gradient
vertices of its point, the gradients of its active bases.
"""

import numpy as np

from maxminlyap import fixtures
from maxminlyap.maxmin import (
    active_indices,
    all_permutations,
    dual_families,
    evaluate,
    phi,
)
from maxminlyap.policy import NumericPolicy

policy = NumericPolicy()
_, spec, basis = fixtures.example("example1")

print("structure: max over families of min over bases,", spec.families)
print("dual form:", dual_families(spec.families), "(pointwise identical)\n")

print("selection table over strict orderings:")
for rho in all_permutations(spec.K):
    print(f"  ordering {rho} -> active base {phi(spec, rho)}")

print("\nunit-circle sweep (every 22.5 degrees):")
for deg in range(0, 180, 22):
    t = np.deg2rad(deg)
    x = np.array([np.cos(t), np.sin(t)])
    act = active_indices(spec, basis, x, policy)
    print(
        f"  angle {deg:5.1f}:  V = {evaluate(spec, basis, x):7.4f}   "
        f"active = {act.indices}  ({act.method})"
    )

print("\ngeneralized gradient at the nonsmooth point on the first switching line:")
v1 = fixtures.EXAMPLE1_LINES["S13"]
hull = active_indices(spec, basis, v1, policy)
for k, g in zip(hull.indices, hull.vertices):
    print(f"  vertex from base {k}: {np.round(g, 4)}")
print("the gradient set is the segment between those vertices")
