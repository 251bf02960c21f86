"""Finding the phase factors that make the protocol work.

The coefficient construction needs d*n angles theta[m, k] with

    sum_k p_k exp(i(theta[m,k] - theta[m',k])) = delta(m, m').

Three solution strategies, tried in this order by solve_general:

  1. d = 2: a single phasor sum must vanish.  Partition the probabilities
     greedily into three groups of weight <= 1/2; the group weights close
     into a triangle, and the triangle's angles are the phases.
  2. any d: if the probabilities split into d subgroups of weight exactly
     1/d, a roots-of-unity ladder on the subgroup labels works.
  3. otherwise: seeded multi-restart least squares, accepted only at
     machine-precision residual, with honest failure as a real outcome.
"""

import numpy as np

from qteleport import (
    NoPartition,
    PhaseFactorsNotFound,
    SchmidtSpectrum,
    find_partition,
    phases_from_partition,
    solve_d2,
    solve_general,
)

# ---------------------------------------------------------------------------
# Qubit case: close the phasor triangle
# ---------------------------------------------------------------------------
print("Qubit phases by triangle closure")
print("=" * 60)
for probs in (["1/2", "1/2"], ["1/2", "1/3", "1/6"]):
    s = SchmidtSpectrum.from_rationals(probs)
    theta = solve_d2(s)
    phasor = sum(p * np.exp(1j * t) for p, t in zip(s.probs, theta.theta[1]))
    print(f"  p = {probs}")
    print(f"    angles {np.round(theta.theta[1], 6)}   |phasor sum| = {abs(phasor):.2e}")

s = SchmidtSpectrum.from_probs([0.4, 0.25, 0.2, 0.15])
theta = solve_d2(s)
print(f"  p = (0.4, 0.25, 0.2, 0.15)")
print(f"    angles {np.round(theta.theta[1], 6)}")
print(f"    residual {theta.constraint_residual(s):.2e}")

# ---------------------------------------------------------------------------
# Equal-weight partitions for general d
# ---------------------------------------------------------------------------
print("\nSubgroup partitions (each subgroup weighs exactly 1/d)")
print("=" * 60)
s = SchmidtSpectrum.from_rationals(["1/3", "1/3", "1/6", "1/6"])
part = find_partition(s, 3)
print("  p = (1/3, 1/3, 1/6, 1/6), d = 3  ->  labels", part.assignment)
theta = phases_from_partition(part, 3, 4)
print("  phase rows (degrees):")
for row in np.degrees(theta.theta):
    print("   ", np.round(row, 3))
print("  residual:", theta.constraint_residual(s))

# ---------------------------------------------------------------------------
# The search stage, and honest failure
# ---------------------------------------------------------------------------
print("\nNumerical stage for spectra with no partition")
print("=" * 60)
s = SchmidtSpectrum.from_probs([0.3, 0.3, 0.2, 0.2])
try:
    find_partition(s, 3)
except NoPartition:
    print("  p = (0.3, 0.3, 0.2, 0.2), d = 3: no equal-weight partition exists")
theta = solve_general(s, 3)
print(f"  search succeeds anyway: residual {theta.constraint_residual(s):.2e}")

s = SchmidtSpectrum.from_rationals(["1/3", "3/10", "4/15", "1/10"])
print("\n  p = (1/3, 3/10, 4/15, 1/10), d = 3: feasible by the 1/d rule, yet")
try:
    solve_general(s, 3)
except PhaseFactorsNotFound as err:
    print(f"  {err}")
    print(f"  proved (no search ran): {err.proved}")
    print("  -> for 2 < d < n phase factors need not exist; the solver says so")
