import math
import tracemalloc

import numpy as np
import pytest

from qteleport import sim
from qteleport.errors import DegenerateColumns, DimensionMismatch
from qteleport.phases import solve_general
from qteleport.protocol import (
    Construction,
    ProtocolTable,
    bob_unitaries,
    correction_columns,
    synthesize_auto,
    synthesize_general,
)
from qteleport.sim import (
    as_input_qudit,
    haar_random_state,
    one_pair_double_bell_trace,
    random_input_sweep,
    residual_schmidt,
    run_protocol,
)
from qteleport.spectrum import SchmidtSpectrum

from conftest import feasible_spectrum, random_state

PAIR = SchmidtSpectrum.from_rationals(["1/2", "1/2"])
GOLDEN = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])
# splits into four groups of weight 1/4: (1/5, 1/20), (1/8, 1/8), (1/6, 1/12), (3/16, 1/16)
QUARTERS = SchmidtSpectrum.from_rationals(
    ["1/5", "1/8", "1/6", "3/16", "1/8", "1/12", "1/20", "1/16"]
)
# a float spectrum with no equal-weight split at d = 3: only the search solves it
SEARCH = SchmidtSpectrum.from_probs([0.3, 0.25, 0.2, 0.15, 0.1])
# qubit closed form, partition and search tables
PROTOCOL_CASES = [
    (PAIR, 2),
    (GOLDEN, 2),
    (SchmidtSpectrum.from_rationals(["1/3"] * 3), 3),
    (QUARTERS, 4),
    (SEARCH, 3),
]

# uniform small shapes and the shapes of the benchmark's certify workload
UNIFORM_SHAPES = [
    (SchmidtSpectrum.from_rationals([f"1/{n}"] * n), d)
    for d, n in [(2, 3), (2, 32), (3, 6), (3, 24), (4, 8), (4, 32)]
]


def protocol_table(spectrum, d):
    return synthesize_auto(spectrum, d)[1]


def branches_oracle(psis, spectrum, table):
    """Overlaps (T, s, n), probabilities (T, s), the first d entries of each
    correction (T, s, d) and fidelities (T, s) of T inputs psis (T, d), from the
    full overlaps and Bob's defined columns: O(T*s*d*n), no Gram matrices."""
    sqrt_p = np.sqrt(spectrum.as_array())
    columns = correction_columns(table, spectrum)
    states = table.V.reshape(table.s, -1)
    state_norms = np.einsum("jx,jx->j", states.conj(), states).real
    overlaps = np.einsum("jml,tm->tjl", table.V, psis.conj()).conj() * sqrt_p
    probabilities = np.einsum("tjl,tjl->tj", overlaps.conj(), overlaps).real
    corrections = np.einsum("jlm,tjl->tjm", columns, overlaps.conj()).conj()
    # |<M_j psi | M_j c_j>|^2 / p_j, keeping |M_j|^4 so off-normal tables are judged as such
    overlap_with_input = np.einsum("tjm,tm->tj", corrections, psis.conj())
    fidelities = state_norms**2 * np.abs(overlap_with_input) ** 2 / probabilities
    return overlaps, probabilities, corrections, fidelities


def oracle_sweep(spectrum, d, table, trials, seed):
    """The four sweep deviations from the oracle on the sweep's seeded inputs."""
    rng = np.random.default_rng(seed)
    psis = np.array([haar_random_state(d, rng) for _ in range(trials)])
    _, probs, _, fids = branches_oracle(psis, spectrum, table)
    return (
        min(1.0, fids.min()),
        np.abs(fids - 1).max(),
        np.abs(probs - 1 / table.s).max(),
        np.abs(probs.sum(axis=1) - 1).max(),
    )


def sweep_fields(report):
    return (
        report.min_fidelity,
        report.max_fidelity_deviation,
        report.max_probability_deviation,
        report.total_probability_deviation,
    )


def amplitude_oracle_probability(psi, spectrum, table, j):
    """Outcome probability from the raw coefficient sums, no projectors."""
    total = 0.0
    for k in range(table.n):
        amp = 0.0 + 0.0j
        for m in range(table.d):
            amp += psi[m] * math.sqrt(spectrum.probs[k]) * np.conj(table.V[j, m, k])
        total += abs(amp) ** 2
    return total


class TestBennettSetup:
    def test_four_uniform_faithful_outcomes(self, rng):
        table = protocol_table(PAIR, 2)
        for _ in range(10):
            trace = run_protocol(random_state(rng, 2), PAIR, table)
            assert np.abs(trace.probabilities - 0.25).max() < 1e-10
            assert trace.min_fidelity >= 1 - 1e-10
            assert trace.classical_bits == 2.0


class TestWorkedExample:
    def test_all_six_outcomes_faithful(self, rng):
        table = protocol_table(GOLDEN, 2)
        for _ in range(10):
            trace = run_protocol(random_state(rng, 2), GOLDEN, table)
            assert trace.min_fidelity >= 1 - 1e-10
            assert np.abs(trace.probabilities - 1 / 6).max() < 1e-10
            assert trace.classical_bits == math.log2(6)


class TestProbabilities:
    @pytest.mark.parametrize("probs,d", [(["1/2", "1/2"], 2), (["1/2", "1/3", "1/6"], 2), (["1/3", "1/3", "1/3"], 3)])
    def test_against_amplitude_oracle(self, rng, probs, d):
        spectrum = SchmidtSpectrum.from_rationals(probs)
        table = protocol_table(spectrum, d)
        psi = random_state(rng, d)
        trace = run_protocol(psi, spectrum, table)
        for rec in trace.outcomes:
            oracle = amplitude_oracle_probability(psi, spectrum, table, rec.j - 1)
            assert abs(rec.probability - oracle) < 1e-12
            assert abs(rec.probability - 1 / table.s) < 1e-10

    def test_completeness(self, rng):
        table = protocol_table(GOLDEN, 2)
        for _ in range(20):
            trace = run_protocol(random_state(rng, 2), GOLDEN, table)
            assert abs(trace.total_probability - 1.0) < 1e-10

    def test_normalization_equals_probability(self, rng):
        table = protocol_table(GOLDEN, 2)
        trace = run_protocol(random_state(rng, 2), GOLDEN, table)
        for rec in trace.outcomes:
            assert abs(np.vdot(rec.post_state, rec.post_state).real - rec.probability) < 1e-12


class TestResidualEntanglement:
    def test_full_protocol_leaves_nothing(self, rng):
        for spectrum, d in PROTOCOL_CASES:
            table = protocol_table(spectrum, d)
            trace = run_protocol(random_state(rng, d), spectrum, table)
            for rec in trace.outcomes:
                assert rec.residual_schmidt == 1
                assert residual_schmidt(rec) == 1

    def test_one_pair_of_double_bell_keeps_one_pair(self, rng):
        trace = one_pair_double_bell_trace(random_state(rng, 2))
        assert trace.classical_bits == 2.0
        assert trace.min_fidelity >= 1 - 1e-10
        for rec in trace.outcomes:
            assert rec.residual_schmidt == 2
            assert abs(rec.probability - 0.25) < 1e-10
            # Bob's 4-level system hosts the entangled part and the qubit
            assert rec.residual_schmidt * rec.d <= rec.n


class TestBranchAlgebra:
    def test_against_full_unitary_reference(self, rng):
        # the corrections come from the d defined columns alone; the full QR
        # completion must give the same vector, zeros past entry d included
        for spectrum, d in PROTOCOL_CASES:
            table = protocol_table(spectrum, d)
            unitaries = bob_unitaries(table, spectrum).unitaries
            psi = random_state(rng, d)
            padded = np.concatenate([psi, np.zeros(table.n - d)])
            for rec in run_protocol(psi, spectrum, table).outcomes:
                reference = unitaries[rec.j - 1].conj().T @ rec.overlap
                assert np.abs(rec.correction - reference).max() < 1e-12
                target = np.kron(rec.measurement_state, padded)
                fidelity = abs(np.vdot(target, rec.corrected_state)) ** 2
                assert abs(rec.fidelity - fidelity) < 1e-12

    def test_conjugating_the_inputs_matches_conjugating_the_table(self, rng):
        # conj(A) B == conj(A conj(B)) bit for bit, so the overlaps conjugate the
        # small operand; the Gram corrections G psi / sqrt(s) match the oracle's D^H o
        for spectrum, d in PROTOCOL_CASES:
            table = protocol_table(spectrum, d)
            psi = random_state(rng, d)
            trace = run_protocol(psi, spectrum, table)
            want = np.einsum("jml,m->jl", table.V.conj(), psi) * np.sqrt(spectrum.as_array())
            np.testing.assert_array_equal(trace.overlaps, want)
            overlaps, probs, corrections, fids = (
                out[0] for out in branches_oracle(psi[None, :], spectrum, table)
            )
            np.testing.assert_allclose(trace.overlaps, overlaps, rtol=0, atol=1e-15)
            np.testing.assert_allclose(trace.probabilities, probs, rtol=0, atol=1e-15)
            np.testing.assert_allclose(trace.corrections[:, :d], corrections, rtol=0, atol=1e-14)
            assert not trace.corrections[:, d:].any()
            np.testing.assert_allclose(trace.fidelities, fids, rtol=0, atol=1e-14)

    def test_records_are_built_on_first_access(self, rng):
        table = protocol_table(GOLDEN, 2)
        trace = run_protocol(random_state(rng, 2), GOLDEN, table)
        assert "outcomes" not in vars(trace)
        records = trace.outcomes
        assert trace.outcomes is records
        assert [rec.probability for rec in records] == trace.probabilities.tolist()
        assert trace.min_fidelity == min(rec.fidelity for rec in records)


class TestLinearity:
    def test_superposition_of_basis_inputs(self, rng):
        table = protocol_table(GOLDEN, 2)
        amps = random_state(rng, 2)
        traces = [
            run_protocol(e, GOLDEN, table)
            for e in (np.array([1, 0], complex), np.array([0, 1], complex))
        ]
        combined = run_protocol(amps, GOLDEN, table)
        for j in range(table.s):
            superposed = (
                amps[0] * traces[0].outcomes[j].post_state
                + amps[1] * traces[1].outcomes[j].post_state
            )
            assert np.abs(superposed - combined.outcomes[j].post_state).max() < 1e-10


class TestSweep:
    def test_bennett_sweep(self):
        report = random_input_sweep(PAIR, 2, trials=100, seed=7)
        assert report.min_fidelity >= 1 - 1e-10
        assert report.max_probability_deviation < 1e-10
        assert report.max_residual_schmidt == 1

    def test_worked_example_sweep(self):
        report = random_input_sweep(GOLDEN, 2, trials=100, seed=7)
        assert report.min_fidelity >= 1 - 1e-10

    def test_determinism(self):
        a = random_input_sweep(GOLDEN, 2, trials=25, seed=123)
        b = random_input_sweep(GOLDEN, 2, trials=25, seed=123)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            random_input_sweep(PAIR, 2, trials=0, seed=1)

    @pytest.mark.parametrize("spectrum,d", [(GOLDEN, 2), (QUARTERS, 4), (SEARCH, 3)])
    def test_blocks_agree_with_per_trial_runs(self, monkeypatch, spectrum, d):
        table = protocol_table(spectrum, d)
        # three trials per block, so 10 trials span four blocks, the last one short
        monkeypatch.setattr(sim, "SWEEP_BLOCK_BYTES", 3 * 16 * table.s)
        report = random_input_sweep(spectrum, d, trials=10, seed=5, table=table)
        rng = np.random.default_rng(5)
        traces = [
            run_protocol(haar_random_state(d, rng), spectrum, table) for _ in range(10)
        ]
        fids = np.array([t.fidelities for t in traces])
        probs = np.array([t.probabilities for t in traces])
        totals = np.array([t.total_probability for t in traces])
        assert abs(report.min_fidelity - min(1.0, fids.min())) < 1e-14
        assert abs(report.max_fidelity_deviation - np.abs(fids - 1).max()) < 1e-14
        assert abs(report.max_probability_deviation - np.abs(probs - 1 / table.s).max()) < 1e-14
        assert abs(report.total_probability_deviation - np.abs(totals - 1).max()) < 1e-14
        assert report.max_residual_schmidt == 1

    @pytest.mark.parametrize("spectrum,d", PROTOCOL_CASES + UNIFORM_SHAPES)
    def test_quadratic_forms_agree_with_the_oracle(self, spectrum, d):
        table = protocol_table(spectrum, d)
        report = random_input_sweep(spectrum, d, trials=12, seed=11, table=table)
        want = oracle_sweep(spectrum, d, table, 12, 11)
        np.testing.assert_allclose(sweep_fields(report), want, rtol=0, atol=1e-14)

    def test_memory_does_not_grow_with_trials(self):
        spectrum = SchmidtSpectrum.from_rationals(["1/32"] * 32)
        table = protocol_table(spectrum, 2)

        def peak(trials):
            tracemalloc.start()
            try:
                random_input_sweep(spectrum, 2, trials=trials, seed=3, table=table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2000) <= 2 * peak(20)

    def test_degenerate_columns_raise(self, rng):
        table = protocol_table(GOLDEN, 2)
        scaled = np.array(table.V)
        scaled[0] *= 1 + 1e-6
        broken = ProtocolTable(d=2, n=3, V=scaled, construction=Construction.EXPLICIT)
        with pytest.raises(DegenerateColumns):
            run_protocol(random_state(rng, 2), GOLDEN, broken)
        with pytest.raises(DegenerateColumns):
            random_input_sweep(GOLDEN, 2, trials=5, seed=1, table=broken)


class TestValidation:
    def test_dimension_mismatch(self, rng):
        table = protocol_table(GOLDEN, 2)
        with pytest.raises(DimensionMismatch):
            run_protocol(random_state(rng, 2), PAIR, table)

    def test_input_must_be_normalized(self):
        with pytest.raises(ValueError):
            as_input_qudit([1.0, 1.0])

    def test_overflowing_input_is_not_normalized(self):
        # the norm of [inf, 1] is NaN, which a `> tol` check lets through
        with pytest.raises(ValueError):
            as_input_qudit([math.inf, 1.0])

    def test_haar_states_are_normalized(self, rng):
        for _ in range(10):
            psi = haar_random_state(5, rng)
            assert abs(np.vdot(psi, psi).real - 1) < 1e-12


class TestGeneralFormulaSimulation:
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_setups_are_faithful(self, d):
        rng = np.random.default_rng(31)
        from qteleport.errors import PhaseFactorsNotFound

        done = 0
        for n in range(d, 6):
            s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 1 / d))
            try:
                theta = solve_general(s, d, restarts=6, max_nfev=1500)
            except PhaseFactorsNotFound:
                continue
            table = synthesize_general(s, d, theta)
            trace = run_protocol(random_state(rng, d), s, table)
            assert trace.min_fidelity >= 1 - 1e-10
            assert trace.classical_bits == math.log2(n * d)
            done += 1
        assert done > 0
