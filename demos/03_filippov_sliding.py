"""Filippov simulation with sliding modes.

The saturating two-mode benchmark has one attracting switching line
(trajectories slide along it into the origin) and one line whose
sliding motion diverges far from the origin.  The integrator locates
surface hits on its dense output, decides crossing versus sliding from
the normal field components, and records the sliding weight.
"""

import numpy as np

from maxminlyap import fixtures
from maxminlyap.filippovsim import SimOptions, export_csv, simulate, sliding_lambda
from maxminlyap.svg import phase_portrait_svg
from maxminlyap.maxmin import evaluate

sysm, spec, basis = fixtures.example("example2")

print("sliding weight along both switching lines (always one half):")
for a in (0.2, 1.0, 4.0):
    lam_conv = sliding_lambda(sysm, np.array([a, a]))
    lam_div = sliding_lambda(sysm, np.array([a, -a]))
    print(f"  |x1| = {a}: converging line {lam_conv}, diverging line {lam_div}")

traj = simulate(sysm, np.array([0.5, 0.0]), SimOptions(horizon=3.0, max_step=0.01))
regimes = []
for s in traj.samples:
    label = s.regime.label()
    if not regimes or regimes[-1][0] != label:
        regimes.append([label, s.t])
print(f"\ntrajectory from (0.5, 0): status {traj.status}")
print("regime timeline:")
for label, t in regimes:
    print(f"  t = {t:7.4f}  ->  {label}")
print(f"final state {np.round(traj.x_end, 10)} (norm {np.linalg.norm(traj.x_end):.2e})")

csv_text = export_csv(traj, spec, basis)
print(f"\nCSV export: {len(csv_text.splitlines())} lines, header:")
print(" ", csv_text.splitlines()[0])

svg = phase_portrait_svg(
    [[s.x for s in traj.samples]],
    value_fn=lambda p: evaluate(spec, basis, p),
    levels=(0.05, 0.2),
    grid=120,
)
with open("sliding_portrait.svg", "w", encoding="utf-8") as fh:
    fh.write(svg)
print("phase portrait with two level sets written to sliding_portrait.svg")
