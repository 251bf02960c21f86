"""Schmidt structure of a shared resource, and when it can teleport a qudit.

A bipartite pure state is fully described (up to local bases) by its Schmidt
probabilities p_k.  Two numbers derived from them control teleportation:

    E_Sch = log2(number of non-zero p_k)      Schmidt entanglement
    E_t   = -log2(max p_k)                    teleportation entanglement

A d-level state can be teleported faithfully if and only if E_t >= log2(d),
i.e. no p_k may exceed 1/d.  More entanglement by rank alone does not help:
it is the largest coefficient that decides.
"""

import numpy as np

from qteleport import (
    BipartiteShape,
    SchmidtSpectrum,
    basis_state,
    entanglement_of_teleportation,
    schmidt_decompose,
    schmidt_entanglement,
    tensor,
)

# ---------------------------------------------------------------------------
# Decompose a concrete resource: sqrt(1/2)|11> + sqrt(1/3)|22> + sqrt(1/6)|33>
# ---------------------------------------------------------------------------
print("A three-term resource shared between Alice and Bob")
print("=" * 60)

weights = [1 / 2, 1 / 3, 1 / 6]
state = sum(
    np.sqrt(p) * tensor(basis_state(3, k), basis_state(3, k))
    for k, p in enumerate(weights)
)
spectrum, bases_a, bases_b = schmidt_decompose(state, BipartiteShape(3, 3))
print("Schmidt probabilities:", np.round(spectrum.probs, 6))

rebuilt = sum(
    np.sqrt(p) * tensor(bases_a[k], bases_b[k]) for k, p in enumerate(spectrum.probs)
)
print("reconstruction error:", np.abs(rebuilt - state).max())

# ---------------------------------------------------------------------------
# The two entanglement measures and the feasibility rule
# ---------------------------------------------------------------------------
exact = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])
print("\nE_t   =", entanglement_of_teleportation(exact).value, "bit")
print("E_Sch =", schmidt_entanglement(exact).value, "bits")
print("qubit (d=2) teleportable? ", exact.admits(2))
print("qutrit (d=3) teleportable?", exact.admits(3))
print("(rank 3 is not enough: p_max = 1/2 > 1/3 blocks the qutrit)")

# ---------------------------------------------------------------------------
# A spectrum can be *more* entangled by rank yet still only carry a qubit
# ---------------------------------------------------------------------------
print("\nFeasibility across a family p = (q, (1-q)/3, (1-q)/3, (1-q)/3):")
for q in (0.25, 0.30, 1 / 3, 0.40, 0.55):
    s = SchmidtSpectrum.from_probs([q, (1 - q) / 3, (1 - q) / 3, (1 - q) / 3])
    flags = [f"d={d}:{'yes' if s.admits(d) else 'no '}" for d in (2, 3, 4)]
    print(f"  q = {q:.4f}  E_t = {entanglement_of_teleportation(s).value:.4f}  ", *flags)
