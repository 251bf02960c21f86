import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport import cli, sim
from qteleport.errors import DegenerateColumns
from qteleport.phases import CONDITION_TOL, Partition, PhaseMatrix, phases_from_partition, solve_general
from qteleport.protocol import (
    Construction,
    ProtocolTable,
    bob_unitaries,
    correction_columns,
    measurement_basis,
    synthesize_auto,
    synthesize_general,
    verify_conditions,
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

from conftest import STRETCHED_SPECTRUM, STRETCHED_THETA, feasible_spectrum, random_state

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


def branches_oracle(psis, table):
    """Overlaps (T, s, n), probabilities (T, s), the first d entries of each
    correction (T, s, d) and fidelities (T, s) of T inputs psis (T, d), from the
    full overlaps and Bob's defined columns: O(T*s*d*n), no Gram matrices."""
    sqrt_p = np.sqrt(table.spectrum.as_array())
    columns = correction_columns(table)
    states = table.V.reshape(table.s, -1)
    state_norms = np.einsum("jx,jx->j", states.conj(), states).real
    overlaps = np.einsum("jml,tm->tjl", table.V, psis.conj()).conj() * sqrt_p
    probabilities = np.einsum("tjl,tjl->tj", overlaps.conj(), overlaps).real
    corrections = np.einsum("jlm,tjl->tjm", columns, overlaps.conj()).conj()
    # |<M_j psi | M_j c_j>|^2 / p_j, keeping |M_j|^4 so off-normal tables are judged as such
    overlap_with_input = np.einsum("tjm,tm->tj", corrections, psis.conj())
    fidelities = state_norms**2 * np.abs(overlap_with_input) ** 2 / probabilities
    return overlaps, probabilities, corrections, fidelities


def oracle_sweep(table, trials, seed):
    """The two sweep statistics from the oracle on the sweep's seeded inputs."""
    rng = np.random.default_rng(seed)
    psis = np.array([haar_random_state(table.d, rng) for _ in range(trials)])
    fids = branches_oracle(psis, table)[3]
    return min(1.0, fids.min()), np.abs(fids - 1).max()


def sweep_fields(report):
    return report.min_fidelity, report.max_fidelity_deviation


def amplitude_oracle_probability(psi, table, j):
    """Outcome probability from the raw coefficient sums, no projectors."""
    total = 0.0
    for k in range(table.n):
        amp = 0.0 + 0.0j
        for m in range(table.d):
            amp += psi[m] * math.sqrt(table.spectrum.probs[k]) * np.conj(table.V[j, m, k])
        total += abs(amp) ** 2
    return total


class TestBennettSetup:
    def test_four_uniform_faithful_outcomes(self, rng):
        table = protocol_table(PAIR, 2)
        for _ in range(10):
            trace = run_protocol(random_state(rng, 2), table)
            assert np.abs(trace.probabilities - 0.25).max() < 1e-10
            assert trace.min_fidelity >= 1 - 1e-10
            assert trace.classical_bits == 2.0


class TestWorkedExample:
    def test_all_six_outcomes_faithful(self, rng):
        table = protocol_table(GOLDEN, 2)
        for _ in range(10):
            trace = run_protocol(random_state(rng, 2), table)
            assert trace.min_fidelity >= 1 - 1e-10
            assert np.abs(trace.probabilities - 1 / 6).max() < 1e-10
            assert trace.classical_bits == math.log2(6)


class TestProbabilities:
    @pytest.mark.parametrize("probs,d", [(["1/2", "1/2"], 2), (["1/2", "1/3", "1/6"], 2), (["1/3", "1/3", "1/3"], 3)])
    def test_against_amplitude_oracle(self, rng, probs, d):
        spectrum = SchmidtSpectrum.from_rationals(probs)
        table = protocol_table(spectrum, d)
        psi = random_state(rng, d)
        trace = run_protocol(psi, table)
        for rec in trace.outcomes:
            oracle = amplitude_oracle_probability(psi, table, rec.j - 1)
            assert abs(rec.probability - oracle) < 1e-12
            assert abs(rec.probability - 1 / table.s) < 1e-10

    def test_completeness(self, rng):
        table = protocol_table(GOLDEN, 2)
        for _ in range(20):
            trace = run_protocol(random_state(rng, 2), table)
            assert abs(trace.total_probability - 1.0) < 1e-10

    def test_normalization_equals_probability(self, rng):
        table = protocol_table(GOLDEN, 2)
        trace = run_protocol(random_state(rng, 2), table)
        for rec in trace.outcomes:
            assert abs(np.vdot(rec.post_state, rec.post_state).real - rec.probability) < 1e-12


class TestResidualEntanglement:
    def test_full_protocol_leaves_nothing(self, rng):
        for spectrum, d in PROTOCOL_CASES:
            table = protocol_table(spectrum, d)
            trace = run_protocol(random_state(rng, d), table)
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
            unitaries = bob_unitaries(table)
            psi = random_state(rng, d)
            padded = np.concatenate([psi, np.zeros(table.n - d)])
            for rec in run_protocol(psi, table).outcomes:
                reference = unitaries[rec.j - 1].conj().T @ rec.overlap
                assert np.abs(rec.correction - reference).max() < 1e-12
                target = np.kron(rec.measurement_state, padded)
                fidelity = abs(np.vdot(target, rec.corrected_state)) ** 2
                assert abs(rec.fidelity - fidelity) < 1e-12

    def test_conjugating_the_inputs_matches_conjugating_the_table(self, rng):
        # conj(A) B == conj(A conj(B)) bit for bit, so the overlaps, read from V on
        # demand, conjugate the small operand; the Gram corrections G psi / sqrt(s)
        # match the oracle's D^H o
        for spectrum, d in PROTOCOL_CASES:
            table = protocol_table(spectrum, d)
            psi = random_state(rng, d)
            trace = run_protocol(psi, table)
            want = np.einsum("jml,m->jl", table.V.conj(), psi) * np.sqrt(spectrum.as_array())
            np.testing.assert_array_equal(trace.overlaps, want)
            overlaps, probs, corrections, fids = (
                out[0] for out in branches_oracle(psi[None, :], table)
            )
            np.testing.assert_allclose(trace.overlaps, overlaps, rtol=0, atol=1e-15)
            np.testing.assert_allclose(trace.probabilities, probs, rtol=0, atol=1e-15)
            np.testing.assert_allclose(trace.corrections, corrections, rtol=0, atol=1e-14)
            for rec in trace.outcomes:
                np.testing.assert_array_equal(rec.correction[:d], trace.corrections[rec.j - 1])
                assert rec.correction.shape == (table.n,)
                assert not rec.correction[d:].any()
            np.testing.assert_allclose(trace.fidelities, fids, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spectrum,d,formula", [
        *((spectrum, d, "auto") for spectrum, d in PROTOCOL_CASES + UNIFORM_SHAPES),
        (GOLDEN, 2, "general"),
        (SchmidtSpectrum.from_rationals(["1/32"] * 32), 2, "general"),
    ])
    def test_formula_overlaps_from_theta_match_the_table(self, rng, spectrum, d, formula):
        # a run is the quadratic form psi^H G_j psi: it builds neither V nor the
        # (s, n) overlaps, which are read from V on demand and square to the
        # probabilities, in agreement with the oracle
        if formula == "general":  # the general formula at d = 2, where synthesize_auto takes the qubit one
            table = synthesize_general(spectrum, solve_general(spectrum, d))
        else:
            table = synthesize_auto(spectrum, d)[1]
        psis = [random_state(rng, d) for _ in range(3)]
        traces = [run_protocol(psi, table) for psi in psis]
        assert "V" not in vars(table)
        for psi, trace in zip(psis, traces):
            _, probs, corrections, fids = (out[0] for out in branches_oracle(psi[None, :], table))
            assert "overlaps" not in vars(trace)
            np.testing.assert_allclose(trace.probabilities, probs, rtol=0, atol=1e-15)
            np.testing.assert_allclose(trace.fidelities, fids, rtol=0, atol=1e-14)
            np.testing.assert_allclose(trace.corrections, corrections, rtol=0, atol=1e-14)
            squared = np.abs(trace.overlaps) ** 2
            np.testing.assert_allclose(trace.probabilities, squared.sum(axis=1), rtol=0, atol=1e-15)

    def test_measurement_states_are_built_on_demand(self, rng):
        table = protocol_table(GOLDEN, 2)
        trace = run_protocol(random_state(rng, 2), table)
        assert "V" not in vars(table) and "measurement_states" not in vars(trace)
        np.testing.assert_array_equal(trace.measurement_states, table.V.reshape(table.s, -1))
        np.testing.assert_array_equal(trace.outcomes[1].measurement_state, table.V[1].ravel())

    def test_records_are_built_on_first_access(self, rng):
        table = protocol_table(GOLDEN, 2)
        trace = run_protocol(random_state(rng, 2), table)
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
            run_protocol(e, table)
            for e in (np.array([1, 0], complex), np.array([0, 1], complex))
        ]
        combined = run_protocol(amps, table)
        for j in range(table.s):
            superposed = (
                amps[0] * traces[0].outcomes[j].post_state
                + amps[1] * traces[1].outcomes[j].post_state
            )
            assert np.abs(superposed - combined.outcomes[j].post_state).max() < 1e-10


class TestSweep:
    def test_bennett_sweep(self):
        report = random_input_sweep(protocol_table(PAIR, 2), trials=100, seed=7)
        assert report.min_fidelity >= 1 - 1e-10
        assert report.max_fidelity_deviation < 1e-10

    def test_worked_example_sweep(self):
        report = random_input_sweep(protocol_table(GOLDEN, 2), trials=100, seed=7)
        assert report.min_fidelity >= 1 - 1e-10

    def test_determinism(self):
        a = random_input_sweep(protocol_table(GOLDEN, 2), trials=25, seed=123)
        b = random_input_sweep(protocol_table(GOLDEN, 2), trials=25, seed=123)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            random_input_sweep(protocol_table(PAIR, 2), trials=0, seed=1)

    @pytest.mark.parametrize("spectrum,d", [(GOLDEN, 2), (QUARTERS, 4), (SEARCH, 3)])
    def test_blocks_agree_with_per_trial_runs(self, monkeypatch, spectrum, d):
        table = protocol_table(spectrum, d)
        # three trials per block, so 10 trials span four blocks, the last one short
        monkeypatch.setattr(sim, "SWEEP_BLOCK_BYTES", 3 * 16 * table.s)
        report = random_input_sweep(table, trials=10, seed=5)
        rng = np.random.default_rng(5)
        traces = [
            run_protocol(haar_random_state(d, rng), table) for _ in range(10)
        ]
        fids = np.array([t.fidelities for t in traces])
        assert abs(report.min_fidelity - min(1.0, fids.min())) < 1e-14
        assert abs(report.max_fidelity_deviation - np.abs(fids - 1).max()) < 1e-14

    @pytest.mark.parametrize("spectrum,d", PROTOCOL_CASES + UNIFORM_SHAPES)
    def test_quadratic_forms_agree_with_the_oracle(self, spectrum, d):
        table = protocol_table(spectrum, d)
        report = random_input_sweep(table, trials=12, seed=11)
        want = oracle_sweep(table, 12, 11)
        np.testing.assert_allclose(sweep_fields(report), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spectrum,d", PROTOCOL_CASES)
    def test_off_normal_explicit_tables_agree_with_the_oracle(self, rng, spectrum, d):
        # explicitly given angles moved by 3e-11 off the solution: the phase Gram
        # deviates from I by a few 1e-12, inside CONDITION_TOL, and the sweep and
        # a run read that deviation as the dense oracle does
        table = protocol_table(spectrum, d)
        theta = np.array(table.phases.theta)
        theta[1, 0] = (theta[1, 0] + 3e-11) % (2 * np.pi)
        off = ProtocolTable(spectrum, PhaseMatrix(theta), table.construction)
        defect = np.abs(off.phase_gram - np.eye(d)).max()
        assert 1e-13 < defect <= CONDITION_TOL
        report = random_input_sweep(off, trials=12, seed=11)
        np.testing.assert_allclose(sweep_fields(report), oracle_sweep(off, 12, 11), rtol=0, atol=1e-14)
        psi = random_state(rng, d)
        fids = branches_oracle(psi[None, :], off)[3][0]
        np.testing.assert_allclose(run_protocol(psi, off).fidelities, fids, rtol=0, atol=1e-14)
        eigenvalues = np.linalg.eigvalsh(off.phase_gram)
        assert 1e-13 < report.max_fidelity_deviation <= np.abs(eigenvalues - 1).max() + 1e-14
        # moved by 1e-6 the Gram is past CONDITION_TOL
        theta[1, 0] = (theta[1, 0] + 1e-6) % (2 * np.pi)
        with pytest.raises(DegenerateColumns):
            random_input_sweep(ProtocolTable(spectrum, PhaseMatrix(theta), table.construction), trials=12, seed=11)

    def test_memory_does_not_grow_with_trials(self):
        # a formula table's Grams take a few KiB, so a sweep's peak is its own block
        # arrays: two trial counts that both span many blocks peak alike, and below
        # a small multiple of the block budget
        spectrum = SchmidtSpectrum.from_rationals(["1/32"] * 32)
        random_input_sweep(protocol_table(spectrum, 2), trials=1, seed=3)  # first-use imports
        block = sim.SWEEP_BLOCK_BYTES // (16 * 2 * 32)

        def peak(trials):
            # a fresh table each time: the Grams are built once per table, on its
            # first use, so both sweeps pay for them
            table = protocol_table(spectrum, 2)
            tracemalloc.start()
            try:
                random_input_sweep(table, trials=trials, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        many = peak(100 * block)
        assert many <= 2 * peak(10 * block)
        assert many <= 4 * sim.SWEEP_BLOCK_BYTES

    def test_degenerate_columns_raise(self, rng):
        table = protocol_table(GOLDEN, 2)
        theta = np.array(table.phases.theta)
        theta[1, 0] = (theta[1, 0] + 1e-6) % (2 * np.pi)
        broken = ProtocolTable(GOLDEN, PhaseMatrix(theta), table.construction)
        with pytest.raises(DegenerateColumns):
            run_protocol(random_state(rng, 2), broken)
        with pytest.raises(DegenerateColumns):
            random_input_sweep(broken, trials=5, seed=1)

    def test_eigenvalue_defect_past_the_tolerance_raises(self, rng):
        # C within CONDITION_TOL of I entrywise once passed the gate, so a run
        # returned a fidelity of 1 + 1.26e-10; the gate reads C's eigenvalues, as
        # solve_general does, and this theta is one solve_general refuses
        spectrum = SchmidtSpectrum.from_rationals(STRETCHED_SPECTRUM)
        table = ProtocolTable(spectrum, PhaseMatrix(STRETCHED_THETA), Construction.GENERAL_FORMULA)
        assert np.abs(table.phase_gram - np.eye(3)).max() <= CONDITION_TOL
        assert np.linalg.eigvalsh(table.phase_gram)[-1] - 1 > CONDITION_TOL
        with pytest.raises(DegenerateColumns, match=r"eigenvalue defect 1\.899e-10 exceeds 1e-10"):
            run_protocol(random_state(rng, 3), table)
        with pytest.raises(DegenerateColumns):
            random_input_sweep(table, trials=5, seed=1)
        with pytest.raises(DegenerateColumns):
            correction_columns(table)


class TestValidation:
    def test_dimension_mismatch(self):
        # a table is a protocol only for a spectrum of its own length
        table = protocol_table(GOLDEN, 2)
        with pytest.raises(ValueError, match="2-term"):
            ProtocolTable(PAIR, table.phases, table.construction)

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
            table = synthesize_general(s, theta)
            trace = run_protocol(random_state(rng, d), table)
            assert trace.min_fidelity >= 1 - 1e-10
            assert trace.classical_bits == math.log2(n * d)
            done += 1
        assert done > 0


@st.composite
def formula_tables(draw):
    """A formula table at d = 2..5 with s <= 96, of either construction at d = 2:
    for random angles, which almost surely violate the constraint, or for a
    split spectrum's angles, column-shifted and moved by up to 1e-12."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(d, 96 // d))
    construction = draw(st.sampled_from(list(Construction) if d == 2 else [Construction.GENERAL_FORMULA]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        spectrum = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 1 / d))
        theta = rng.uniform(0, 2 * np.pi, (d, n))
    else:  # d groups of weight 1/d each: the split's angles solve the constraint
        labels = rng.permutation(np.arange(n) % d)
        weights = rng.random(n) + 0.1
        spectrum = SchmidtSpectrum.from_probs(weights / (d * np.bincount(labels, weights)[labels]))
        theta = phases_from_partition(Partition(tuple(int(g) + 1 for g in labels), d)).theta
        theta = theta + rng.uniform(0, 2 * np.pi, n) + rng.uniform(-1e-12, 1e-12, (d, n))
    return ProtocolTable(spectrum, PhaseMatrix(np.mod(theta, 2 * np.pi)), construction)


class TestOnePath:
    @settings(max_examples=80, deadline=None)
    @given(formula_tables(), st.integers(0, 2**32 - 1))
    def test_the_phase_gram_agrees_with_the_dense_oracle(self, table, seed):
        # every figure read from the d x d phase Gram C, against the s x s Gram
        # and the W_j W_j^dagger built from the dense V
        s, d = table.s, table.d
        states = measurement_basis(table)
        assert np.abs(states.conj() @ states.T - np.eye(s)).max() <= 1e-13
        assert verify_conditions(table).orthonormality_residual == 0.0
        weighted = table.V * np.sqrt(s * table.spectrum.as_array())
        dense = weighted @ weighted.conj().transpose(0, 2, 1)
        np.testing.assert_allclose(table.grams, dense, rtol=0, atol=1e-13)
        defect = np.abs(dense - np.eye(d)).max()
        assert abs(verify_conditions(table).unitarity_residual - defect) <= 1e-13
        eigenvalues = np.linalg.eigvalsh(table.phase_gram)
        assert np.abs(np.linalg.eigvalsh(dense) - eigenvalues).max() <= 1e-13
        np.testing.assert_array_equal(table.gram_eigenvalues, eigenvalues)
        psi = random_state(np.random.default_rng(seed), d)
        if not np.abs(eigenvalues - 1).max() <= CONDITION_TOL:  # the one gate
            with pytest.raises(DegenerateColumns):
                run_protocol(psi, table)
            return
        trace = run_protocol(psi, table)
        _, probs, corrections, fids = (out[0] for out in branches_oracle(psi[None, :], table))
        np.testing.assert_allclose(trace.probabilities, probs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace.corrections, corrections, rtol=0, atol=1e-13)
        np.testing.assert_allclose(trace.fidelities, fids, rtol=0, atol=1e-13)
        report = random_input_sweep(table, trials=8, seed=seed)
        np.testing.assert_allclose(sweep_fields(report), oracle_sweep(table, 8, seed), rtol=0, atol=1e-13)
        # and the sweep lies in the bracket verify holds it to
        ulps = cli.BRACKET_ULPS * d * d * np.finfo(float).eps
        spread = np.abs(eigenvalues - 1).max()
        assert eigenvalues[0] - ulps <= report.min_fidelity <= eigenvalues[-1] + ulps
        assert report.max_fidelity_deviation <= spread + ulps

    def test_nan_angles_are_refused(self):
        # a NaN angle once made a table whose NaN defect passed every `> tol` gate:
        # run_protocol returned NaN fidelities and a sweep reported min_fidelity 1.0
        with pytest.raises(ValueError, match="angles must lie in"):
            PhaseMatrix([[0, 0, 0], [0, 2, np.nan], [0, 4, 1]])
