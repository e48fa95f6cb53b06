"""Tight versus conservative set-valued derivatives.

At a kink of the candidate that sits on a switching surface, the
conservative interval pairs every gradient with every admissible
velocity, while the tight set keeps only velocities on which all
gradients agree.  The gap between the two is what makes the tight
notion certify systems the conservative one cannot.
"""

import numpy as np

from maxminlyap import fixtures
from maxminlyap.inclusion import SwitchedSystem
from maxminlyap.policy import NumericPolicy
from maxminlyap.setderiv import clarke_derivative, decrease_check, lie_derivative
from maxminlyap.sysdsl.config import parse_config

policy = NumericPolicy()

# one-dimensional picture: V(x) = |x| = max{x, -x}, and two constant
# fields meeting at 0, f1 on x < 0 and f2 on x > 0
ONEDIM = """
[system]
dim = 1
mode 1 {{ f = ({f1}); H = -x1 }}
mode 2 {{ f = ({f2}); H = x1 }}

[basis]
V1 = x1
V2 = -x1

[structure]
S1 = {{1}}
S2 = {{2}}
"""
for f1, f2 in ((-1.0, 2.0), (1.0, 2.0)):
    parsed = parse_config(ONEDIM.format(f1=f1, f2=f2))
    sysm = SwitchedSystem.from_config(parsed.system)
    spec1d, basis1d = parsed.basis.to_spec(), parsed.basis.to_basis()
    lie = lie_derivative(spec1d, basis1d, sysm, np.array([0.0]), policy)
    cl = clarke_derivative(spec1d, basis1d, sysm, np.array([0.0]), policy)
    tight = "empty" if lie.empty else f"[{lie.lo:.3f}, {lie.hi:.3f}]"
    print(
        f"V = |x|, velocities [{f1}, {f2}] at 0: tight {tight:>16}   "
        f"conservative [{cl.lo:.3f}, {cl.hi:.3f}]"
    )

# planar benchmark: on the first switching line the tight set is empty
# (no admissible velocity equalizes the two gradients), while the
# conservative interval reaches up to +8.65
sys1, spec, basis = fixtures.example("example1")
v1 = fixtures.EXAMPLE1_LINES["S13"]
lie = lie_derivative(spec, basis, sys1, v1, policy)
cl = clarke_derivative(spec, basis, sys1, v1, policy)
print(f"\nplanar benchmark at the S13 unit vector:")
print(f"  tight set: {'empty (max = -inf)' if lie.empty else (lie.lo, lie.hi)}")
print(f"  conservative interval: [{cl.lo:.4f}, {cl.hi:.4f}]")

pts = [r * v1 for r in (0.5, 1.0, 2.0)]
for conservative in (False, True):
    report = decrease_check(
        spec, basis, sys1, pts, rate=0.0, policy=policy, use_clarke=conservative
    )
    mode = "conservative" if conservative else "tight"
    print(f"  decrease check ({mode:12s}): {len(report.violations)} violations")
