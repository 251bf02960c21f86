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
     (`protocol.outcome_grams`): the rest of u_j is never built.

The d x d Gram G_j is all a random input needs: p_j = psi^dagger G_j psi / s
and the fidelity is |M_j|^4 psi^dagger G_j psi.  So `random_input_sweep`
certifies T inputs as quadratic forms in O(T*s*d^2), one GEMM per block of
trials.  `run_protocol` stays the full branch simulation of one input: the
overlaps come from V in O(s*d*n), the `SimulationTrace` holds them as arrays,
its `OutcomeRecord`s are built on first access, and the d*n^2 branch states
only on demand (`OutcomeRecord.post_state`, `OutcomeRecord.corrected_state`).
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
from .errors import DimensionMismatch
from .linalg import RANK_TOL, BipartiteShape, as_state, is_normalized, schmidt_number
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
    probabilities: np.ndarray       # (s,) squared norms of the projected branches
    fidelities: np.ndarray          # (s,)
    measurement_states: np.ndarray  # (s, d*n) |M_j>, flat over (1, 2)
    overlaps: np.ndarray            # (s, Bob's dim) projected branch factors, unnormalized
    corrections: np.ndarray         # (s, Bob's dim) u_j^dagger applied to the overlaps
    residual_schmidts: tuple[int, ...]
    classical_bits: float           # log2 of the number of outcomes

    @property
    def total_probability(self) -> float:
        return float(self.probabilities.sum())

    @property
    def min_fidelity(self) -> float:
        return float(self.fidelities.min())

    @functools.cached_property
    def outcomes(self) -> tuple[OutcomeRecord, ...]:
        """One record per outcome, built on first access."""
        return tuple(
            OutcomeRecord(
                j=j + 1,
                probability=float(self.probabilities[j]),
                measurement_state=self.measurement_states[j],
                overlap=self.overlaps[j],
                correction=self.corrections[j],
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


def resource_state(spectrum: SchmidtSpectrum) -> np.ndarray:
    """The shared resource sum_k sqrt(p_k) |k>|k> as a flat n^2 vector."""
    n = spectrum.n
    chi = np.zeros(n * n, dtype=complex)
    chi[np.arange(n) * n + np.arange(n)] = np.sqrt(spectrum.as_array())
    return chi


def haar_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state: complex Gaussian amplitudes, normalized."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def residual_schmidt(record: OutcomeRecord) -> int:
    """Schmidt number of the corrected final state across the (1,2)|(3) cut."""
    shape = BipartiteShape(record.d * record.n, record.n)
    return schmidt_number(record.corrected_state, shape, rank_tol=RANK_TOL)


def _fidelity_weights(table: ProtocolTable) -> np.ndarray:
    """|M_j|^4 (s,): the fidelity keeps it so off-normal tables are judged as such."""
    states = table.V.reshape(table.s, -1)
    return np.einsum("jx,jx->j", states.conj(), states).real ** 2


def run_protocol(psi, spectrum: SchmidtSpectrum, table: ProtocolTable) -> SimulationTrace:
    """Simulate all s outcomes of the protocol for one input state."""
    d, n, s = table.d, table.n, table.s
    psi = as_input_qudit(psi, d)
    if spectrum.n != n:
        raise DimensionMismatch(f"spectrum length {spectrum.n} != table n = {n}")
    grams = _protocol.checked_grams(table, spectrum)
    # conj(A) B == conj(A conj(B)) exactly, so conjugate the small operand, not the table
    overlaps = np.einsum("jml,m->jl", table.V, psi.conj()).conj() * np.sqrt(spectrum.as_array())
    probabilities = np.einsum("jl,jl->j", overlaps.conj(), overlaps).real
    # u_j^dagger o_j = D_j^dagger D_j psi / sqrt(s): o_j lies in the span of the
    # defined columns D_j and the QR completion of u_j is orthogonal to that span,
    # so the correction is zero past entry d
    corrections = np.zeros((s, n), dtype=complex)
    corrections[:, :d] = grams @ psi / math.sqrt(s)
    overlap_with_input = corrections[:, :d] @ psi.conj()
    fidelities = _fidelity_weights(table) * np.abs(overlap_with_input) ** 2 / probabilities
    return SimulationTrace(
        d=d,
        n=n,
        probabilities=probabilities,
        fidelities=fidelities,
        measurement_states=table.V.reshape(s, d * n),  # a view: the layout of `measurement_basis`
        overlaps=overlaps,
        corrections=corrections,
        residual_schmidts=(1,) * s,  # |M_j> (x) |c_j> is a product state
        classical_bits=math.log2(s),
    )


@dataclass(frozen=True)
class SweepReport:
    """Worst-case deviations over a batch of random input states."""

    d: int
    n: int
    trials: int
    seed: int
    classical_bits: float
    min_fidelity: float
    max_fidelity_deviation: float       # worst |fidelity - 1|
    max_probability_deviation: float    # worst |probability - 1/s|
    max_residual_schmidt: int
    total_probability_deviation: float  # worst |sum_j probability - 1|


def random_input_sweep(
    spectrum: SchmidtSpectrum,
    d: int,
    trials: int,
    seed: int,
    *,
    table: ProtocolTable | None = None,
) -> SweepReport:
    """Synthesize the protocol and certify it on Haar-random inputs.

    The table is synthesized from the spectrum unless one is supplied (the
    qubit construction at d = 2, the general formula otherwise).  The seeded
    generator makes the report bit-for-bit reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if table is None:
        _, table = _protocol.synthesize_auto(spectrum, d)
    grams = _protocol.checked_grams(table, spectrum)
    weights = _fidelity_weights(table)
    block = max(1, SWEEP_BLOCK_BYTES // (16 * table.s))  # complex128 quadratic forms

    rng = np.random.default_rng(seed)
    min_fid, max_fid_dev, max_prob_dev, max_total_dev = 1.0, 0.0, 0.0, 0.0
    for start in range(0, trials, block):
        psis = np.array([haar_random_state(d, rng) for _ in range(min(block, trials - start))])
        # q[t, j] = psi_t^dagger G_j psi_t, one GEMM of the (T, d^2) outer products
        # against the (s, d^2) Grams; then p = q / s and fidelity = |M_j|^4 q
        outer = (psis.conj()[:, :, None] * psis[:, None, :]).reshape(len(psis), -1)
        quadratic = (outer @ grams.reshape(table.s, -1).T).real
        probabilities = quadratic / table.s
        fidelities = weights * quadratic
        min_fid = min(min_fid, float(fidelities.min()))
        max_fid_dev = max(max_fid_dev, float(np.abs(fidelities - 1.0).max()))
        max_prob_dev = max(max_prob_dev, float(np.abs(probabilities - 1.0 / table.s).max()))
        max_total_dev = max(max_total_dev, float(np.abs(probabilities.sum(axis=1) - 1.0).max()))
    return SweepReport(
        d=d,
        n=spectrum.n,
        trials=trials,
        seed=seed,
        classical_bits=math.log2(table.s),
        min_fidelity=min_fid,
        max_fidelity_deviation=max_fid_dev,
        max_probability_deviation=max_prob_dev,
        max_residual_schmidt=1,  # every corrected branch is a product state
        total_probability_deviation=max_total_dev,
    )


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
    single = run_protocol(psi, pair, table)

    idle = resource_state(pair).reshape(2, 2)  # (a2, b2)

    def with_idle(bob: np.ndarray) -> np.ndarray:  # (s, b1) -> (s, a2 b1 b2)
        return np.einsum("ac,jb->jabc", idle, bob).reshape(len(bob), -1)

    trace = dataclasses.replace(
        single, n=4, overlaps=with_idle(single.overlaps), corrections=with_idle(single.corrections)
    )
    measured = tuple(residual_schmidt(rec) for rec in trace.outcomes)
    return dataclasses.replace(trace, residual_schmidts=measured)
