"""Synthesizing the measurement and the corrections, and checking them.

A protocol is a table of s = n*d coefficients V[j, m, k], all of modulus
1/sqrt(s), satisfying two conditions: the s flattened blocks form an
orthonormal measurement basis for Alice, and each block row-weighted by the
spectrum yields orthonormal correction columns for Bob.

The four-outcome table for the uniform two-term resource is the classic
qubit teleportation protocol in disguise: rotating the first measurement
system by (|1> +/- |2>)/sqrt(2) turns the four measurement states into the
Bell basis, and Bob's corrections are the rescaled coefficient blocks.
"""

import numpy as np

from qteleport import (
    SchmidtSpectrum,
    bob_unitaries,
    correction_columns,
    measurement_basis,
    solve_d2,
    synthesize_d2,
    synthesize_general,
    verify_conditions,
)

# ---------------------------------------------------------------------------
# The four-outcome qubit protocol
# ---------------------------------------------------------------------------
print("Uniform pair resource: the four-outcome protocol")
print("=" * 60)
pair = SchmidtSpectrum.from_rationals(["1/2", "1/2"])
table = synthesize_d2(pair, solve_d2(pair))
print("coefficients x 2 (rows j, columns (m,k)):")
print(np.round(table.V.reshape(4, 4).real * 2, 3))

report = verify_conditions(table)
print(f"orthonormality residual: {report.orthonormality_residual:.2e}"
      "  (0 for every theta: the basis is a double geometric series)")
states = measurement_basis(table)
print(f"  measured on the floats: {np.abs(states.conj() @ states.T - np.eye(4)).max():.2e}")
print(f"unitarity residual:      {report.unitarity_residual:.2e}")

change = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
print("\nmeasurement states after rotating system 1 (rows; , = basis 11,12,21,22):")
for j, state in enumerate(measurement_basis(table), start=1):
    rotated = np.kron(change.conj().T, np.eye(2)) @ state
    print(f"  j={j}:", np.round(rotated.real * np.sqrt(2), 3))
print("-> the Bell basis, up to signs")

columns = correction_columns(table)  # n = d: the columns are the whole 2x2 correction
print("\ncorrections are sqrt(2) * V:",
      all(np.abs(columns[j].conj().T - np.sqrt(2) * table.V[j]).max() < 1e-12
          for j in range(4)))

# ---------------------------------------------------------------------------
# Six outcomes for the (1/2, 1/3, 1/6) resource
# ---------------------------------------------------------------------------
print("\nThree-term resource: six outcomes, corrections completed to 3x3")
print("=" * 60)
golden = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])
table6 = synthesize_d2(golden, solve_d2(golden))
report6 = verify_conditions(table6)
print(f"s = {table6.s} outcomes; residuals "
      f"({report6.orthonormality_residual:.2e}, {report6.unitarity_residual:.2e})")

columns6 = correction_columns(table6)
pinned = max(np.abs(c.conj().T @ c - np.eye(2)).max() for c in columns6)
print(f"the table pins 2 orthonormal columns of each 3x3 correction, to {pinned:.2e}")
worst = max(np.abs(u.conj().T @ u - np.eye(3)).max() for u in bob_unitaries(table6))
print(f"the reference completion makes all 6 corrections unitary to {worst:.2e}")
print("(the third column is completed deterministically against the first two;")
print(" it never touches the teleported state, so the simulator skips it)")

# ---------------------------------------------------------------------------
# General-d formula: uniform qutrit resource
# ---------------------------------------------------------------------------
print("\nUniform qutrit resource at d = 3: nine outcomes")
print("=" * 60)
from qteleport import solve_general

qutrit = SchmidtSpectrum.from_rationals(["1/3", "1/3", "1/3"])
table9 = synthesize_general(qutrit, solve_general(qutrit, 3))
report9 = verify_conditions(table9)
print(f"s = {table9.s}; residuals "
      f"({report9.orthonormality_residual:.2e}, {report9.unitarity_residual:.2e})")
print(f"|V| flat at 1/3: max deviation "
      f"{np.abs(np.abs(table9.V) - 1/3).max():.2e}")
