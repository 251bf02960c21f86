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

    @property
    def s(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class BobUnitarySet:
    """Bob's correction unitaries, one n x n matrix per outcome."""

    unitaries: np.ndarray  # (s, n, n)

    def __post_init__(self):
        object.__setattr__(self, "unitaries", _freeze(np.asarray(self.unitaries, dtype=complex)))

    @property
    def s(self) -> int:
        return self.unitaries.shape[0]


@dataclass(frozen=True)
class ConditionReport:
    """Worst-case deviations of the two defining conditions from their deltas."""

    orthonormality_residual: float
    unitarity_residual: float

    def ok(self, tol: float = CONDITION_TOL) -> bool:
        return self.orthonormality_residual <= tol and self.unitarity_residual <= tol


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
    j = np.arange(1, s + 1, dtype=float)[:, None, None]
    m = np.arange(1, d + 1, dtype=float)[None, :, None]
    k = np.arange(1, n + 1, dtype=float)[None, None, :]
    coeffs = (
        np.exp(1j * phases.theta)[None, :, :]
        * np.exp(1j * j * (TWO_PI * m / s + TWO_PI * k / n))
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
    j = np.arange(1, s + 1, dtype=float)[:, None]
    k = np.arange(1, n + 1, dtype=float)[None, :]
    e = np.exp(2j * np.pi * j * k / n)  # (s, n)
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
) -> ProtocolTable:
    """Solve for phase factors and synthesize a table in one step.

    method "d2" forces the qubit construction, "general" the general formula,
    "auto" picks the qubit construction at d = 2.
    """
    if method not in ("auto", "d2", "general"):
        raise ValueError(f"unknown method {method!r}")
    if method == "d2" and d != 2:
        raise ValueError("the qubit construction requires d = 2")
    theta = solve_general(spectrum, d, restarts=restarts, max_nfev=max_nfev)
    if d == 2 and method in ("auto", "d2"):
        return synthesize_d2(spectrum, theta)
    return synthesize_general(spectrum, d, theta)


def measurement_basis(table: ProtocolTable) -> MeasurementBasis:
    """Flatten each coefficient block into the measurement state |M_j>.

    Amplitude of |m>|k> is V[j, m, k]; the big-endian layout puts m in the
    most significant position, so the flat index is m*n + k.
    """
    return MeasurementBasis(states=table.V.reshape(table.s, table.d * table.n))


def bob_unitaries(table: ProtocolTable, spectrum: SchmidtSpectrum) -> BobUnitarySet:
    """Bob's correction for each outcome, extended to a full n x n unitary.

    Column m (m < d) is fixed to sqrt(s) * conj(V[j, m, :]) * sqrt(p); the
    unitarity condition makes these d columns orthonormal, and the remaining
    n - d columns are the orthogonal complement from one batched complete QR
    decomposition of the defined columns.

    Raises DegenerateColumns when the defined columns deviate from
    orthonormality by more than COLUMN_TOL, which signals a table violating
    the unitarity condition for this spectrum.
    """
    if spectrum.n != table.n:
        raise ValueError(f"spectrum length {spectrum.n} does not match table n={table.n}")
    s, d = table.s, table.d
    sqrt_p = np.sqrt(spectrum.as_array())
    defined = np.sqrt(s) * table.V.conj().transpose(0, 2, 1) * sqrt_p[None, :, None]  # (s, n, d)
    gram = defined.conj().transpose(0, 2, 1) @ defined
    defects = np.abs(gram - np.eye(d)).max(axis=(1, 2))
    failing = np.flatnonzero(defects > COLUMN_TOL)
    if failing.size:
        j = int(failing[0])
        raise DegenerateColumns(
            f"outcome {j + 1}: defined correction columns deviate from "
            f"orthonormality by {defects[j]:.3e}"
        )
    unitaries, _ = np.linalg.qr(defined, mode="complete")
    unitaries[:, :, :d] = defined
    return BobUnitarySet(unitaries=unitaries)


def verify_conditions(table: ProtocolTable, spectrum: SchmidtSpectrum) -> ConditionReport:
    """Worst-case residuals of the two defining conditions; reports, never raises."""
    s, d, n = table.s, table.d, table.n
    flat = table.V.reshape(s, d * n)
    gram = flat.conj() @ flat.T
    ortho = float(np.abs(gram - np.eye(s)).max())
    weighted = np.einsum("jmk,jlk,k->jml", table.V, table.V.conj(), s * spectrum.as_array())
    unit = float(np.abs(weighted - np.eye(d)[None, :, :]).max())
    return ConditionReport(orthonormality_residual=ortho, unitarity_residual=unit)
