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

The unitarity condition is stated against the resource, so a table is a
protocol only for the spectrum it was built from: `ProtocolTable` holds that
spectrum, and every stage after synthesis takes the table alone.

Two constructions are provided: the closed-form qubit table built from the
roots-of-unity matrix and the single-phasor angles, and the general-d table
built from a full phase matrix.  A table is its phase matrix: it holds theta
and builds the dense V only when something reads it (emission, the
correction columns, the measurement basis, a simulation trace's branch
overlaps).  Both constructions keep |V[j, m, k]| = 1/sqrt(s) exactly, so
every outcome occurs with probability 1/s and |M_j| = 1; their measurement
basis is orthonormal for every theta (a double geometric series); and the
Gram G_j = D_j^dagger D_j of Bob's defined columns is L_j C L_j^dagger for
the d x d phase Gram C (`ProtocolTable.phase_gram`) and a diagonal unitary
L_j of roots of unity (signs at d = 2).  So C certifies a table: its
orthonormality residual is 0, its unitarity residual is |C - I|, and over
all inputs every fidelity and s times every outcome probability lie
between C's extreme eigenvalues, which must lie within CONDITION_TOL of 1
(`ProtocolTable.gram_eigenvalues`, `checked_phase_gram`).  The simulator
reads the Grams, built once per table from C in O(s*d^2) (`ProtocolTable.grams`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumns
from .phases import (
    CONDITION_TOL,
    TWO_PI,
    PhaseMatrix,
    _feasibility_gate,
    phase_gram,
    solve_general,
)
from .spectrum import SchmidtSpectrum


class Construction(enum.Enum):
    GENERAL_FORMULA = "GeneralFormula"
    D2_FORMULA = "D2Formula"


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProtocolTable:
    """The formula table of `construction` for a phase matrix and the spectrum
    whose unitarity condition it is meant to satisfy: coefficients V with shape
    (s, d, n), one d x n block per outcome, built on first access, read-only.
    d is the phase matrix's row count (2 for the qubit construction)."""

    spectrum: SchmidtSpectrum
    phases: PhaseMatrix
    construction: Construction

    def __post_init__(self):
        rows = 2 if self.construction is Construction.D2_FORMULA else self.phases.d
        if self.phases.theta.shape != (rows, self.spectrum.n):
            raise ValueError(
                f"phase matrix shape {self.phases.theta.shape} does not match "
                f"(d, n) = ({rows}, {self.spectrum.n}) for a {self.spectrum.n}-term spectrum"
            )

    @property
    def d(self) -> int:
        """Dimension of the teleported state."""
        return self.phases.d

    @property
    def n(self) -> int:
        """Number of Schmidt terms of the resource."""
        return self.spectrum.n

    @property
    def s(self) -> int:
        """Number of measurement outcomes (= classical messages)."""
        return self.d * self.n

    @functools.cached_property
    def V(self) -> np.ndarray:
        """The coefficients, built on first access and read-only."""
        if self.construction is Construction.D2_FORMULA:
            return _read_only(_d2_coefficients(self.phases))
        return _read_only(_general_coefficients(self.phases))

    @functools.cached_property
    def phase_gram(self) -> np.ndarray:
        """The d x d phase Gram C = `phases.phase_gram` of this spectrum, read-only:
        every outcome's Gram is L_j C L_j^dagger, so C decides both conditions."""
        return _read_only(phase_gram(self.spectrum.as_array(), self.phases.theta))

    @functools.cached_property
    def gram_eigenvalues(self) -> np.ndarray:
        """C's eigenvalues, ascending and read-only: every G_j has them, so their
        defect max |lambda - 1| decides whether the table is a protocol."""
        return _read_only(np.linalg.eigvalsh(self.phase_gram))

    @functools.cached_property
    def outcome_phases(self) -> np.ndarray:
        """Diagonals of the unitaries L_j with G_j = L_j C L_j^dagger, shape (s, d):
        exp(2 pi i j m / s) for the general formula (exact indices into the s-th
        roots of unity), (1, 1) for the first n qubit outcomes and (1, -1) for
        the last n."""
        s, d = self.s, self.d
        if self.construction is Construction.D2_FORMULA:
            lam = np.ones((s, 2), dtype=complex)
            lam[self.n:, 1] = -1.0
        else:
            j = np.arange(1, s + 1)[:, None]
            lam = _roots_of_unity(s)[(j * np.arange(1, d + 1)) % s]
        return _read_only(lam)

    @functools.cached_property
    def grams(self) -> np.ndarray:
        """Gram matrices G_j = D_j^dagger D_j of Bob's defined columns, shape (s, d, d),
        built on first access and read-only.

        G_j = W_j W_j^dagger with W_j = V[j] * sqrt(s p), which is L_j C L_j^dagger,
        formed from the phase Gram in O(s d^2) and without V.  The unitarity
        condition says G_j = I; for an input psi the outcome probability is
        psi^dagger G_j psi / s and the fidelity psi^dagger G_j psi.
        """
        lam = self.outcome_phases
        return _read_only(lam[:, :, None] * self.phase_gram * lam.conj()[:, None, :])


def _roots_of_unity(count: int) -> np.ndarray:
    """exp(2 pi i r / count) for r = 0 .. count-1, every argument below 2 pi."""
    return np.exp(1j * (TWO_PI / count) * np.arange(count))


def _general_coefficients(phases: PhaseMatrix) -> np.ndarray:
    """V[j,m,k] = exp(i theta[m,k]) exp(i j (2pi m/s + 2pi k/n)) / sqrt(s), 1-based."""
    d, n = phases.d, phases.n
    s = n * d
    # j (m/s + k/n) = (j m + j k d)/s: one exact root of unity per entry, so equal
    # indices give bit-equal entries and reportio formats each distinct pair once.  The
    # product L_j[m] chi_j[k] the Grams use rounds per entry: at uniform (3, 18) it took
    # V's distinct [re, im] pairs from 169 to 883, and dumps of V 2.5 times as long
    j = np.arange(1, s + 1)[:, None, None]
    m = np.arange(1, d + 1)[None, :, None]
    k = np.arange(1, n + 1)[None, None, :]
    return (
        np.exp(1j * phases.theta)[None, :, :]
        * _roots_of_unity(s)[(j * m + j * k * d) % s]
        / np.sqrt(s)
    )


def _d2_coefficients(thetas: PhaseMatrix) -> np.ndarray:
    """Qubit rows (e, e e^{i theta}) for the first n outcomes and
    (-e e^{-i theta}, e) for the last n, over sqrt(s)."""
    n = thetas.n
    theta = thetas.row_differences()
    s = 2 * n
    j = np.arange(1, s + 1)[:, None]
    k = np.arange(1, n + 1)[None, :]
    e = _roots_of_unity(n)[(j * k) % n]  # (s, n), one exact root per entry as above
    coeffs = np.empty((s, 2, n), dtype=complex)
    coeffs[:n, 0, :] = e[:n]
    coeffs[:n, 1, :] = e[:n] * np.exp(1j * theta)[None, :]
    coeffs[n:, 0, :] = -e[n:] * np.exp(-1j * theta)[None, :]
    coeffs[n:, 1, :] = e[n:]
    coeffs /= np.sqrt(s)
    return coeffs


def synthesize_general(spectrum: SchmidtSpectrum, phases: PhaseMatrix) -> ProtocolTable:
    """General-d table: V[j,m,k] = exp(i theta[m,k]) exp(i j (2pi m/s + 2pi k/n)) / sqrt(s).

    Indices j, m, k are 1-based in the formula, and d is the phase matrix's row
    count.  Orthonormality holds for any angles (double geometric series);
    unitarity holds exactly when the phase matrix satisfies its constraint for
    the given spectrum.  The table holds the angles; V is built on first access.
    """
    _feasibility_gate(spectrum, phases.d)
    return ProtocolTable(spectrum, phases, Construction.GENERAL_FORMULA)


def synthesize_d2(spectrum: SchmidtSpectrum, thetas: PhaseMatrix) -> ProtocolTable:
    """Qubit table from the roots-of-unity matrix e[j,k] = exp(2 pi i j k / n).

    With theta_k the single-phasor angles (row difference of the 2 x n phase
    matrix), the first n outcomes use rows (e[j,k], e[j,k] e^{i theta_k}) and
    the last n use rows (-e[j,k] e^{-i theta_k}, e[j,k]), all divided by
    sqrt(s).  Reproduces the displayed qubit tables verbatim, including the
    four-outcome sign pattern at n = 2.  The table holds the angles; V is
    built on first access.
    """
    _feasibility_gate(spectrum, 2)
    return ProtocolTable(spectrum, thetas, Construction.D2_FORMULA)


def synthesize_auto(spectrum: SchmidtSpectrum, d: int) -> tuple[PhaseMatrix, ProtocolTable]:
    """Solve for phase factors and synthesize a table in one step: (theta, table),
    by the qubit construction at d = 2 and the general formula otherwise."""
    theta = solve_general(spectrum, d)
    synthesize = synthesize_d2 if d == 2 else synthesize_general
    return theta, synthesize(spectrum, theta)


def measurement_basis(table: ProtocolTable) -> np.ndarray:
    """The s orthonormal measurement states |M_j>, one read-only row per outcome:
    a (s, d*n) view of the coefficient blocks.

    Amplitude of |m>|k> is V[j, m, k]; the big-endian layout puts m in the
    most significant position, so the flat index is m*n + k.
    """
    return table.V.reshape(table.s, table.d * table.n)


def checked_phase_gram(table: ProtocolTable) -> np.ndarray:
    """`ProtocolTable.phase_gram`, raising DegenerateColumns when an eigenvalue is
    more than CONDITION_TOL from 1, the rule solve_general accepts theta by:
    every G_j = L_j C L_j^dagger has C's eigenvalues, and so every fidelity."""
    defect = float(np.abs(table.gram_eigenvalues - 1.0).max())
    if not defect <= CONDITION_TOL:
        raise DegenerateColumns(f"phase Gram eigenvalue defect {defect:.3e} exceeds {CONDITION_TOL:.0e}")
    return table.phase_gram


def correction_columns(table: ProtocolTable) -> np.ndarray:
    """Bob's d defined correction columns per outcome, shape (s, n, d): column m
    of u_j is sqrt(s) * conj(V[j, m, :]) * sqrt(p).  Raises DegenerateColumns as
    `checked_phase_gram` does."""
    checked_phase_gram(table)
    sqrt_p = np.sqrt(table.spectrum.as_array())
    return np.sqrt(table.s) * table.V.conj().transpose(0, 2, 1) * sqrt_p[None, :, None]


def bob_unitaries(table: ProtocolTable) -> np.ndarray:
    """Reference completion of `correction_columns` to full n x n unitaries, shape
    (s, n, n), by one batched complete QR; the simulator never builds the
    completed columns."""
    defined = correction_columns(table)
    unitaries, _ = np.linalg.qr(defined, mode="complete")
    unitaries[:, :, :table.d] = defined
    return unitaries


def verify_conditions(table: ProtocolTable) -> float:
    """The unitarity residual max |G_j - I| = max |C - I|, since every L_j is
    diagonal and unimodular; reports, never raises.  Orthonormality holds for
    every theta, so it has no residual to compute."""
    return float(np.abs(table.phase_gram - np.eye(table.d)).max())
