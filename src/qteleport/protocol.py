"""Synthesis of the teleportation protocol: coefficients, measurement, corrections.

A protocol for teleporting a d-level state through an n-term resource is a
table of s = n*d complex coefficients V[j, m, k] per outcome j, obeying two
conditions (all indices 1-based as in the construction formulas):

  orthonormality:  sum_{m,k} conj(V[j]) * V[j']          = delta(j, j')
  unitarity:       n*d * sum_k p_k conj(V[j,m']) V[j,m]  = delta(m, m')

The first makes the s measurement states |M_j> = sum_{m,k} V[j,m,k]|m>|k> an
orthonormal basis of Alice's d*n-dimensional space; the second makes Bob's
correction, defined column-wise by u_j|m> = sqrt(s) sum_k conj(V[j,m,k])
sqrt(p_k)|k>, an isometry that extends to a full unitary on his n-level
system.

Two constructions are provided: the closed-form qubit table built from the
roots-of-unity matrix and the single-phasor angles, and the general-d table
built from a full phase matrix.  Both keep |V[j, m, k]| = 1/sqrt(s) exactly,
which forces every measurement outcome to occur with probability 1/s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumns
from .phases import (
    DEFAULT_MAX_NFEV,
    DEFAULT_RESTARTS,
    TWO_PI,
    PhaseMatrix,
    _feasibility_gate,
    solve_general,
)
from .spectrum import SchmidtSpectrum

CONDITION_TOL = 1e-10
COLUMN_TOL = 1e-8  # orthonormality slack for the defined correction columns


class Construction(enum.Enum):
    GENERAL_FORMULA = "GeneralFormula"
    D2_FORMULA = "D2Formula"
    EXPLICIT = "Explicit"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProtocolTable:
    """Coefficients V with shape (s, d, n), one d x n block per outcome."""

    d: int
    n: int
    V: np.ndarray
    construction: Construction

    def __post_init__(self):
        coeffs = np.asarray(self.V, dtype=complex)
        if coeffs.shape != (self.d * self.n, self.d, self.n):
            raise ValueError(
                f"coefficient array of shape {coeffs.shape} does not match "
                f"(s, d, n) = ({self.d * self.n}, {self.d}, {self.n})"
            )
        object.__setattr__(self, "V", _freeze(coeffs))

    @property
    def s(self) -> int:
        """Number of measurement outcomes (= classical messages)."""
        return self.d * self.n


@dataclass(frozen=True)
class MeasurementBasis:
    """The s orthonormal measurement states, one row per outcome."""

    states: np.ndarray  # (s, d*n)

    def __post_init__(self):
        object.__setattr__(self, "states", _freeze(np.asarray(self.states, dtype=complex)))


@dataclass(frozen=True)
class BobUnitarySet:
    """Bob's correction unitaries, one n x n matrix per outcome."""

    unitaries: np.ndarray  # (s, n, n)

    def __post_init__(self):
        object.__setattr__(self, "unitaries", _freeze(np.asarray(self.unitaries, dtype=complex)))


@dataclass(frozen=True)
class ConditionReport:
    """Worst-case deviations of the two defining conditions from their deltas."""

    orthonormality_residual: float
    unitarity_residual: float

    def ok(self, tol: float = CONDITION_TOL) -> bool:
        return self.orthonormality_residual <= tol and self.unitarity_residual <= tol


def _roots_of_unity(count: int) -> np.ndarray:
    """exp(2 pi i r / count) for r = 0 .. count-1, every argument below 2 pi."""
    return np.exp(1j * (TWO_PI / count) * np.arange(count))


def synthesize_general(
    spectrum: SchmidtSpectrum, d: int, phases: PhaseMatrix
) -> ProtocolTable:
    """General-d table: V[j,m,k] = exp(i theta[m,k]) exp(i j (2pi m/s + 2pi k/n)) / sqrt(s).

    Indices j, m, k are 1-based in the formula.  Orthonormality holds for any
    angles (double geometric series); unitarity holds exactly when the phase
    matrix satisfies its constraint for the given spectrum.
    """
    _feasibility_gate(spectrum, d)
    n = spectrum.n
    if phases.theta.shape != (d, n):
        raise ValueError(f"phase matrix shape {phases.theta.shape} does not match ({d}, {n})")
    s = n * d
    # j (m/s + k/n) = (j m + j k d)/s: exact integer indices into the s-th roots of unity
    j = np.arange(1, s + 1)[:, None, None]
    m = np.arange(1, d + 1)[None, :, None]
    k = np.arange(1, n + 1)[None, None, :]
    coeffs = (
        np.exp(1j * phases.theta)[None, :, :]
        * _roots_of_unity(s)[(j * m + j * k * d) % s]
        / np.sqrt(s)
    )
    return ProtocolTable(d=d, n=n, V=coeffs, construction=Construction.GENERAL_FORMULA)


def synthesize_d2(spectrum: SchmidtSpectrum, thetas: PhaseMatrix) -> ProtocolTable:
    """Qubit table from the roots-of-unity matrix e[j,k] = exp(2 pi i j k / n).

    With theta_k the single-phasor angles (row difference of the 2 x n phase
    matrix), the first n outcomes use rows (e[j,k], e[j,k] e^{i theta_k}) and
    the last n use rows (-e[j,k] e^{-i theta_k}, e[j,k]), all divided by
    sqrt(s).  Reproduces the displayed qubit tables verbatim, including the
    four-outcome sign pattern at n = 2.
    """
    _feasibility_gate(spectrum, 2)
    n = spectrum.n
    if thetas.theta.shape != (2, n):
        raise ValueError(f"phase matrix shape {thetas.theta.shape} does not match (2, {n})")
    theta = thetas.row_differences()
    s = 2 * n
    j = np.arange(1, s + 1)[:, None]
    k = np.arange(1, n + 1)[None, :]
    e = _roots_of_unity(n)[(j * k) % n]  # (s, n)
    coeffs = np.empty((s, 2, n), dtype=complex)
    coeffs[:n, 0, :] = e[:n]
    coeffs[:n, 1, :] = e[:n] * np.exp(1j * theta)[None, :]
    coeffs[n:, 0, :] = -e[n:] * np.exp(-1j * theta)[None, :]
    coeffs[n:, 1, :] = e[n:]
    coeffs /= np.sqrt(s)
    return ProtocolTable(d=2, n=n, V=coeffs, construction=Construction.D2_FORMULA)


def synthesize_auto(
    spectrum: SchmidtSpectrum,
    d: int,
    *,
    method: str = "auto",
    restarts: int = DEFAULT_RESTARTS,
    max_nfev: int = DEFAULT_MAX_NFEV,
) -> tuple[PhaseMatrix, ProtocolTable]:
    """Solve for phase factors and synthesize a table in one step: (theta, table).

    method "d2" forces the qubit construction, "general" the general formula,
    "auto" picks the qubit construction at d = 2.
    """
    if method not in ("auto", "d2", "general"):
        raise ValueError(f"unknown method {method!r}")
    if method == "d2" and d != 2:
        raise ValueError("the qubit construction requires d = 2")
    theta = solve_general(spectrum, d, restarts=restarts, max_nfev=max_nfev)
    if d == 2 and method in ("auto", "d2"):
        return theta, synthesize_d2(spectrum, theta)
    return theta, synthesize_general(spectrum, d, theta)


def measurement_basis(table: ProtocolTable) -> MeasurementBasis:
    """Flatten each coefficient block into the measurement state |M_j>.

    Amplitude of |m>|k> is V[j, m, k]; the big-endian layout puts m in the
    most significant position, so the flat index is m*n + k.
    """
    return MeasurementBasis(states=table.V.reshape(table.s, table.d * table.n))


def outcome_grams(table: ProtocolTable, spectrum: SchmidtSpectrum) -> np.ndarray:
    """Gram matrices G_j = D_j^dagger D_j of Bob's defined columns, shape (s, d, d).

    G_j = W_j W_j^dagger with W_j = V[j] * sqrt(s p), one batched matmul.  The
    unitarity condition says G_j = I; for an input psi the outcome probability
    is psi^dagger G_j psi / s and the fidelity |M_j|^4 psi^dagger G_j psi.
    """
    if spectrum.n != table.n:
        raise ValueError(f"spectrum length {spectrum.n} does not match table n={table.n}")
    weighted = table.V * np.sqrt(table.s * spectrum.as_array())
    return weighted @ weighted.conj().transpose(0, 2, 1)


def checked_grams(table: ProtocolTable, spectrum: SchmidtSpectrum) -> np.ndarray:
    """`outcome_grams`, raising DegenerateColumns when some G_j deviates from the
    identity by more than COLUMN_TOL, as for a table that violates the unitarity
    condition for this spectrum."""
    grams = outcome_grams(table, spectrum)
    defects = np.abs(grams - np.eye(table.d)).max(axis=(1, 2))
    failing = np.flatnonzero(defects > COLUMN_TOL)
    if failing.size:
        j = int(failing[0])
        raise DegenerateColumns(
            f"outcome {j + 1}: defined correction columns deviate from "
            f"orthonormality by {defects[j]:.3e}"
        )
    return grams


def correction_columns(table: ProtocolTable, spectrum: SchmidtSpectrum) -> np.ndarray:
    """Bob's d defined correction columns per outcome, shape (s, n, d): column m
    of u_j is sqrt(s) * conj(V[j, m, :]) * sqrt(p).  Raises DegenerateColumns as
    `checked_grams` does."""
    checked_grams(table, spectrum)
    sqrt_p = np.sqrt(spectrum.as_array())
    return np.sqrt(table.s) * table.V.conj().transpose(0, 2, 1) * sqrt_p[None, :, None]


def bob_unitaries(table: ProtocolTable, spectrum: SchmidtSpectrum) -> BobUnitarySet:
    """Reference completion of `correction_columns` to full n x n unitaries by one
    batched complete QR; the simulator never builds the completed columns."""
    defined = correction_columns(table, spectrum)
    unitaries, _ = np.linalg.qr(defined, mode="complete")
    unitaries[:, :, :table.d] = defined
    return BobUnitarySet(unitaries=unitaries)


def verify_conditions(table: ProtocolTable, spectrum: SchmidtSpectrum) -> ConditionReport:
    """Worst-case residuals of the two defining conditions; reports, never raises."""
    s, d, n = table.s, table.d, table.n
    unit = float(np.abs(outcome_grams(table, spectrum) - np.eye(d)).max())
    flat = table.V.reshape(s, d * n)
    gram = flat.conj() @ flat.T
    gram[np.diag_indices(s)] -= 1.0  # in place: no second s x s array
    ortho = float(np.abs(gram).max())
    return ConditionReport(orthonormality_residual=ortho, unitarity_residual=unit)
