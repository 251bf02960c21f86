"""Dense complex linear algebra for bipartite pure states.

Composite vectors use a big-endian subsystem convention throughout the
package: the first subsystem's index is the most significant, so a bipartite
vector of shape (dimA, dimB) stores amplitude psi[i, j] at flat position
i * dimB + j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .spectrum import SchmidtSpectrum

NORM_TOL = 1e-12
RANK_TOL = 1e-10  # a singular value counts toward the Schmidt number iff sigma^2 > RANK_TOL


@dataclass(frozen=True)
class BipartiteShape:
    """Subsystem dimensions used to interpret a flat composite vector."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def as_state(entries, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D complex vector, optionally checking its length."""
    vec = np.asarray(entries, dtype=complex).reshape(-1)
    if dim is not None and vec.size != dim:
        raise ShapeMismatch(f"expected a vector of dimension {dim}, got {vec.size}")
    return vec


def is_normalized(vec) -> bool:
    """True when <v|v> is within NORM_TOL of 1; NaN and infinite amplitudes fail."""
    vec = np.asarray(vec, dtype=complex)
    return bool(abs(np.vdot(vec, vec).real - 1.0) <= NORM_TOL)  # a NaN comparison is False


def basis_state(dim: int, k: int) -> np.ndarray:
    """Computational basis vector |k> (0-based) in the given dimension."""
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def tensor(a, b) -> np.ndarray:
    """Tensor product of two vectors: entry (i * dimB + j) equals a_i * b_j."""
    return np.kron(as_state(a), as_state(b))


def _as_bipartite_matrix(state, shape: BipartiteShape) -> np.ndarray:
    vec = as_state(state)
    if vec.size != shape.dim:
        raise ShapeMismatch(
            f"state of dimension {vec.size} does not match shape "
            f"{shape.dim_a}x{shape.dim_b}"
        )
    return vec.reshape(shape.dim_a, shape.dim_b)


def schmidt_decompose(
    state, shape: BipartiteShape
) -> tuple[SchmidtSpectrum, np.ndarray, np.ndarray]:
    """Schmidt decomposition of a normalized bipartite pure state.

    Returns (spectrum, bases_a, bases_b) with the probabilities sorted in
    descending order, one per coefficient schmidt_number counts, scaled to sum
    to 1.  Row k of bases_a / bases_b is the k-th Schmidt vector of each side, and

        state == sum_k sqrt(p_k) * tensor(bases_a[k], bases_b[k])

    holds to machine precision, or within sqrt(w + w^2) in norm when weight
    w < min(dim_a, dim_b) * RANK_TOL is dropped.  The Schmidt coefficients
    sqrt(p_k) are real and non-negative; all phases are absorbed into bases_b.
    """
    mat = _as_bipartite_matrix(state, shape)
    if not is_normalized(state):
        raise ValueError("state must be normalized before decomposition")
    u, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    keep = sigma**2 > RANK_TOL
    probs = sigma[keep] ** 2
    spectrum = SchmidtSpectrum.from_probs(probs / probs.sum())
    return spectrum, u[:, keep].T.copy(), vh[keep, :].copy()


def schmidt_number(state, shape: BipartiteShape) -> int:
    """Count of Schmidt coefficients above the rank threshold."""
    mat = _as_bipartite_matrix(state, shape)
    if not is_normalized(state):
        raise ValueError("state must be normalized")
    sigma = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sigma**2 > RANK_TOL))
