"""Exact statevector simulation of the four-step teleportation protocol.

For every outcome j the run follows the algebra of the protocol:

  1. the initial state is |psi>_1 |chi>_23 with |chi> = sum_k sqrt(p_k)|k>|k>;
  2. projecting Alice's systems (1, 2) onto |M_j> leaves the product branch
     |M_j> (x) |o_j>, where o_j[l] = sqrt(p_l) sum_m conj(V[j,m,l]) psi_m;
  3. the outcome probability is the squared norm of o_j (equal to the
     normalization coefficient of the branch);
  4. Bob's correction gives |c_j> = u_j^dagger |o_j>, and the fidelity is the
     squared overlap of |M_j> (x) |c_j> / sqrt(p_j) with |M_j> (x) |psi>.
     As o_j = D_j psi / sqrt(s) for the d defined columns D_j of u_j, c_j is
     G_j psi / sqrt(s) followed by zeros, with G_j = D_j^dagger D_j
     (`ProtocolTable.grams`): the rest of u_j is never built, and the trace
     holds only the d leading entries.

The d x d Gram G_j is all a run needs: with q_j = psi^dagger G_j psi, the
outcome probability is q_j / s and the fidelity is |M_j|^4 q_j = q_j, since
every measurement state has unit norm.  Every function takes the table
alone: it carries its spectrum and its phase Gram C, and G_j = L_j C L_j^dagger
(`ProtocolTable.phase_gram`, `ProtocolTable.outcome_phases`), so neither a
run nor a sweep builds V, and both refuse C as `protocol.checked_phase_gram`
does.  `random_input_sweep` certifies T inputs as these quadratic forms in
O(T*s*d^2), one GEMM per block of trials against the Grams
(`ProtocolTable.grams`), keeping the least fidelity and the worst
|fidelity - 1|.  `run_protocol` is the same quadratic form at one input:
q_j = sqrt(s) Re(c_j . conj(psi)) from the corrections c_j = L_j C L_j^dagger
psi / sqrt(s), in O(s*d^2) with neither the Grams nor an (s, n) array.  The
`SimulationTrace` holds the input; the overlaps o_j (one einsum over V), the
measurement states (a view of V), the `OutcomeRecord`s and the d*n^2 branch
states are built only when read (`SimulationTrace.overlaps`,
`SimulationTrace.measurement_states`, `SimulationTrace.outcomes`,
`OutcomeRecord.post_state`, `OutcomeRecord.corrected_state`).
Every outcome is enumerated (no sampling), so a fidelity-1 report is an exact
certificate at machine precision rather than a statistical statement.

A run leaves no residual entanglement: every corrected state is the product
|M_j> (x) |c_j>, so its Schmidt number across the (1,2)|(3) cut is 1 and no
run computes it.  The tests and demo 04 measure it with `linalg.schmidt_number`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import protocol as _protocol
# schmidt_number is unused here but stays importable:
# bench/tracing.py wraps it by this name.
from .linalg import as_state, is_normalized, schmidt_number  # noqa: F401
from .protocol import ProtocolTable

SWEEP_BLOCK_BYTES = 1 << 16  # quadratic forms per sweep block: memory stays flat in trials,
# and each block array stays below malloc's default 128 KiB mmap threshold


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement branch |M_j> (x) |overlap>, with Bob's correction applied."""

    j: int                          # outcome label, 1-based
    probability: float              # squared norm of the projected branch
    measurement_state: np.ndarray   # |M_j>, flat over (1, 2)
    overlap: np.ndarray             # Bob's factor of the projected branch, unnormalized
    correction: np.ndarray          # u_j^dagger applied to the overlap, unnormalized
    fidelity: float                 # squared overlap with |M_j> (x) |psi>

    @property
    def post_state(self) -> np.ndarray:
        """Projected state, unnormalized, flat over (1, 2, 3)."""
        return np.kron(self.measurement_state, self.overlap)

    @property
    def corrected_state(self) -> np.ndarray:
        """State after Bob's correction, normalized, flat over (1, 2, 3)."""
        return np.kron(self.measurement_state, self.correction) / math.sqrt(self.probability)


@dataclass(frozen=True)
class SimulationTrace:
    """All outcome branches of one protocol run, held as arrays over outcomes j."""

    psi: np.ndarray                 # (d,) the input state
    probabilities: np.ndarray       # (s,) squared norms of the projected branches
    fidelities: np.ndarray          # (s,)
    corrections: np.ndarray         # (s, d) u_j^dagger o_j, trailing zeros dropped
    table: ProtocolTable = dataclasses.field(repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.table.d

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def classical_bits(self) -> float:
        """log2 of the number of outcomes."""
        return math.log2(self.table.s)

    @functools.cached_property
    def overlaps(self) -> np.ndarray:
        """(s, n) projected branch factors o_j, unnormalized, built on first
        access by one einsum over V (a formula table builds V then)."""
        # conj(A) B == conj(A conj(B)) exactly, so conjugate the small operand, not the table
        overlaps = np.einsum("jml,m->jl", self.table.V, self.psi.conj()).conj()
        return overlaps * np.sqrt(self.table.spectrum.as_array())

    @functools.cached_property
    def measurement_states(self) -> np.ndarray:
        """(s, d*n) |M_j>, flat over (1, 2): a view of the table's V, built on
        first access (a formula table builds V then)."""
        return _protocol.measurement_basis(self.table)

    @property
    def total_probability(self) -> float:
        return float(self.probabilities.sum())

    @property
    def min_fidelity(self) -> float:
        return float(self.fidelities.min())

    @functools.cached_property
    def outcomes(self) -> tuple[OutcomeRecord, ...]:
        """One record per outcome, built on first access; each correction is
        zero-padded to the table's n, the overlap's length."""
        corrections = np.pad(self.corrections, ((0, 0), (0, self.n - self.d)))
        return tuple(
            OutcomeRecord(
                j=j + 1,
                probability=float(self.probabilities[j]),
                measurement_state=self.measurement_states[j],
                overlap=self.overlaps[j],
                correction=corrections[j],
                fidelity=float(self.fidelities[j]),
            )
            for j in range(self.probabilities.size)
        )


def as_input_qudit(amps, d: int | None = None) -> np.ndarray:
    """Validate a normalized d-level input state."""
    vec = as_state(amps, d)
    if not is_normalized(vec):
        raise ValueError("input state must be normalized")
    return vec


def haar_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state: complex Gaussian amplitudes, normalized."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def run_protocol(psi, table: ProtocolTable) -> SimulationTrace:
    """Simulate all s outcomes of the protocol for one input state: the sweep's
    quadratic forms q_j = psi^dagger G_j psi at this one input, in O(s*d^2)."""
    s = table.s
    psi = as_input_qudit(psi, table.d)
    # u_j^dagger o_j = D_j^dagger D_j psi / sqrt(s): o_j lies in the span of the
    # defined columns D_j and the QR completion of u_j is orthogonal to that span,
    # so the correction is zero past entry d and only its first d entries are kept;
    # D_j^dagger D_j = L_j C L_j^dagger, applied without forming it
    lam = table.outcome_phases
    corrections = lam * ((lam.conj() * psi) @ _protocol.checked_phase_gram(table).T) / math.sqrt(s)
    quadratic = math.sqrt(s) * (corrections @ psi.conj()).real
    return SimulationTrace(
        psi=psi,
        probabilities=quadratic / s,
        fidelities=quadratic,
        corrections=corrections,
        table=table,
    )


@dataclass(frozen=True)
class SweepReport:
    """Worst-case fidelities over a batch of random input states; a probability
    is a fidelity over s, and one input's sum to sum_k p_k, so none is kept."""

    min_fidelity: float
    max_fidelity_deviation: float       # worst |fidelity - 1|


def random_input_sweep(table: ProtocolTable, trials: int, seed: int) -> SweepReport:
    """Certify the protocol on Haar-random inputs.

    The seeded generator makes the report bit-for-bit reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    d = table.d
    _protocol.checked_phase_gram(table)
    grams = table.grams
    block = max(1, SWEEP_BLOCK_BYTES // (16 * table.s))  # complex128 quadratic forms

    rng = np.random.default_rng(seed)
    min_fid, max_fid_dev = 1.0, 0.0
    for start in range(0, trials, block):
        psis = np.array([haar_random_state(d, rng) for _ in range(min(block, trials - start))])
        # fidelity q[t, j] = psi_t^dagger G_j psi_t, one GEMM of the (T, d^2) outer products
        # against the (s, d^2) Grams: L_j C L_j^dagger per trial, as run_protocol applies
        # it, builds no Grams but was 2-3 times slower at uniform (2, 1024), 20 trials
        outer = (psis.conj()[:, :, None] * psis[:, None, :]).reshape(len(psis), -1)
        fidelities = (outer @ grams.reshape(table.s, -1).T).real
        min_fid = min(min_fid, float(fidelities.min()))
        max_fid_dev = max(max_fid_dev, float(np.abs(fidelities - 1.0).max()))
    return SweepReport(min_fidelity=min_fid, max_fidelity_deviation=max_fid_dev)
