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
|fidelity - 1|.  `run_protocol` is the same quadratic form
at one input: q_j = sqrt(s) Re(c_j . conj(psi)) from the corrections
c_j = L_j C L_j^dagger psi / sqrt(s), in O(s*d^2) with neither the Grams nor
an (s, n) array.  The `SimulationTrace` holds
the input; the overlaps o_j (one einsum over V), the measurement states (a
view of V), the `OutcomeRecord`s and the d*n^2 branch states are built only
when read (`SimulationTrace.overlaps`, `SimulationTrace.measurement_states`,
`SimulationTrace.outcomes`, `OutcomeRecord.post_state`,
`OutcomeRecord.corrected_state`).
Every outcome is enumerated (no sampling), so a fidelity-1 report is an exact
certificate at machine precision rather than a statistical statement.

Residual entanglement is quantified by the Schmidt number n_s of the
corrected state across the (1,2)|(3) cut; the amount left is log2(n_s) bits,
capped by log2(n) - log2(d) since Bob's n-level system must host both the
n_s-dimensional entangled part and the d-dimensional teleported state
(n >= n_s * d).  In `run_protocol` the corrected state is the product
|M_j> (x) |c_j>, so n_s = 1 by construction and is recorded without an SVD.
`residual_schmidt()` is the SVD reference measurement; the one-pair
teleport through a two-Bell-pair resource (`one_pair_double_bell_trace`) is
where n_s is actually measured, and there it is 2.  Note: the source
material writes this residual entanglement with a minus sign (-log2 n_s),
which is inconsistent with a logarithm of a Schmidt number (n_s >= 1); this
package reports n_s and +log2(n_s).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import phases as _phases
from . import protocol as _protocol
from .linalg import BipartiteShape, as_state, is_normalized, schmidt_number
from .protocol import ProtocolTable
from .spectrum import SchmidtSpectrum

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
    residual_schmidt: int           # Schmidt number across the (1,2)|(3) cut
    d: int
    n: int

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

    d: int
    n: int
    psi: np.ndarray                 # (d,) the input state
    probabilities: np.ndarray       # (s,) squared norms of the projected branches
    fidelities: np.ndarray          # (s,)
    corrections: np.ndarray         # (s, d) u_j^dagger o_j, trailing zeros dropped
    residual_schmidts: tuple[int, ...]
    classical_bits: float           # log2 of the number of outcomes
    table: ProtocolTable = dataclasses.field(repr=False, compare=False)
    idle: np.ndarray | None = None  # Schmidt matrix (Alice's half, Bob's half) of an idle factor

    def _with_idle(self, bob: np.ndarray) -> np.ndarray:
        """Branch factors (s, table.n) of the measured resource, joined with the
        idle factor if there is one: (s, b1) -> (s, a2 b1 b2)."""
        if self.idle is None:
            return bob
        return np.einsum("ac,jb->jabc", self.idle, bob).reshape(len(bob), -1)

    @functools.cached_property
    def overlaps(self) -> np.ndarray:
        """(s, Bob's dim) projected branch factors o_j, unnormalized, built on first
        access by one einsum over V (a formula table builds V then)."""
        # conj(A) B == conj(A conj(B)) exactly, so conjugate the small operand, not the table
        overlaps = np.einsum("jml,m->jl", self.table.V, self.psi.conj()).conj()
        overlaps *= np.sqrt(self.table.spectrum.as_array())
        return self._with_idle(overlaps)

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
        zero-padded to the table's n and joined with the idle factor, so that it
        has the overlap's length."""
        padded = np.pad(self.corrections, ((0, 0), (0, self.table.n - self.d)))
        corrections = self._with_idle(padded)
        return tuple(
            OutcomeRecord(
                j=j + 1,
                probability=float(self.probabilities[j]),
                measurement_state=self.measurement_states[j],
                overlap=self.overlaps[j],
                correction=corrections[j],
                fidelity=float(self.fidelities[j]),
                residual_schmidt=self.residual_schmidts[j],
                d=self.d,
                n=self.n,
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


def residual_schmidt(record: OutcomeRecord) -> int:
    """Schmidt number of the corrected final state across the (1,2)|(3) cut."""
    shape = BipartiteShape(record.d * record.n, record.n)
    return schmidt_number(record.corrected_state, shape)


def run_protocol(psi, table: ProtocolTable) -> SimulationTrace:
    """Simulate all s outcomes of the protocol for one input state: the sweep's
    quadratic forms q_j = psi^dagger G_j psi at this one input, in O(s*d^2)."""
    d, n, s = table.d, table.n, table.s
    psi = as_input_qudit(psi, d)
    # u_j^dagger o_j = D_j^dagger D_j psi / sqrt(s): o_j lies in the span of the
    # defined columns D_j and the QR completion of u_j is orthogonal to that span,
    # so the correction is zero past entry d and only its first d entries are kept;
    # D_j^dagger D_j = L_j C L_j^dagger, applied without forming it
    lam = table.outcome_phases
    corrections = lam * ((lam.conj() * psi) @ _protocol.checked_phase_gram(table).T) / math.sqrt(s)
    quadratic = math.sqrt(s) * (corrections @ psi.conj()).real
    return SimulationTrace(
        d=d,
        n=n,
        psi=psi,
        probabilities=quadratic / s,
        fidelities=quadratic,
        corrections=corrections,
        residual_schmidts=(1,) * s,  # |M_j> (x) |c_j> is a product state
        classical_bits=math.log2(s),
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


def one_pair_double_bell_trace(psi) -> SimulationTrace:
    """Teleport a qubit through one Bell pair of a two-Bell-pair resource.

    The resource is the four-term uniform state viewed as two Bell pairs;
    Alice measures only her input and her half of the first pair (the
    four-outcome qubit protocol), Bob corrects his half of the first pair,
    and the second pair sits idle.  Two classical bits are sent, and every
    outcome retains residual Schmidt number 2 across the Alice|Bob cut from
    the untouched pair.

    Systems are ordered (input, A-half-1, A-half-2 | B-half-1, B-half-2), so
    the (1,2)|(3) cut is 8 x 4.  The idle pair is normalized, so it leaves
    every probability and fidelity of the one-pair run unchanged.
    """
    pair = SchmidtSpectrum.from_rationals(["1/2", "1/2"])
    table = _protocol.synthesize_d2(pair, _phases.solve_d2(pair))
    idle = np.diag(np.sqrt(pair.as_array()))  # the idle pair sum_k sqrt(p_k) |k>|k>
    trace = dataclasses.replace(run_protocol(psi, table), n=4, idle=idle)
    measured = tuple(residual_schmidt(rec) for rec in trace.outcomes)
    return dataclasses.replace(trace, residual_schmidts=measured)
