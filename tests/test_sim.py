import math

import numpy as np
import pytest

from qteleport.errors import DimensionMismatch
from qteleport.phases import solve_general
from qteleport.protocol import (
    bob_unitaries,
    measurement_basis,
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


def protocol_parts(spectrum, d, method="auto"):
    table = synthesize_auto(spectrum, d, method=method)
    return table, measurement_basis(table), bob_unitaries(table, spectrum)


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
        table, basis, ubob = protocol_parts(PAIR, 2)
        for _ in range(10):
            trace = run_protocol(random_state(rng, 2), PAIR, table, basis, ubob)
            assert np.abs(trace.probabilities - 0.25).max() < 1e-10
            assert trace.min_fidelity >= 1 - 1e-10
            assert trace.classical_bits == 2.0


class TestWorkedExample:
    def test_all_six_outcomes_faithful(self, rng):
        table, basis, ubob = protocol_parts(GOLDEN, 2)
        for _ in range(10):
            trace = run_protocol(random_state(rng, 2), GOLDEN, table, basis, ubob)
            assert trace.min_fidelity >= 1 - 1e-10
            assert np.abs(trace.probabilities - 1 / 6).max() < 1e-10
            assert trace.classical_bits == math.log2(6)


class TestProbabilities:
    @pytest.mark.parametrize("probs,d", [(["1/2", "1/2"], 2), (["1/2", "1/3", "1/6"], 2), (["1/3", "1/3", "1/3"], 3)])
    def test_against_amplitude_oracle(self, rng, probs, d):
        spectrum = SchmidtSpectrum.from_rationals(probs)
        table, basis, ubob = protocol_parts(spectrum, d)
        psi = random_state(rng, d)
        trace = run_protocol(psi, spectrum, table, basis, ubob)
        for rec in trace.outcomes:
            oracle = amplitude_oracle_probability(psi, spectrum, table, rec.j - 1)
            assert abs(rec.probability - oracle) < 1e-12
            assert abs(rec.probability - 1 / table.s) < 1e-10

    def test_completeness(self, rng):
        table, basis, ubob = protocol_parts(GOLDEN, 2)
        for _ in range(20):
            trace = run_protocol(random_state(rng, 2), GOLDEN, table, basis, ubob)
            assert abs(trace.total_probability - 1.0) < 1e-10

    def test_normalization_equals_probability(self, rng):
        table, basis, ubob = protocol_parts(GOLDEN, 2)
        trace = run_protocol(random_state(rng, 2), GOLDEN, table, basis, ubob)
        for rec in trace.outcomes:
            assert abs(np.vdot(rec.post_state, rec.post_state).real - rec.probability) < 1e-12


class TestResidualEntanglement:
    def test_full_protocol_leaves_nothing(self, rng):
        cases = [
            (PAIR, 2),
            (GOLDEN, 2),
            (SchmidtSpectrum.from_rationals(["1/3"] * 3), 3),
            (QUARTERS, 4),
            (SEARCH, 3),
        ]
        for spectrum, d in cases:
            table, basis, ubob = protocol_parts(spectrum, d)
            trace = run_protocol(random_state(rng, d), spectrum, table, basis, ubob)
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


class TestLinearity:
    def test_superposition_of_basis_inputs(self, rng):
        table, basis, ubob = protocol_parts(GOLDEN, 2)
        amps = random_state(rng, 2)
        traces = [
            run_protocol(e, GOLDEN, table, basis, ubob)
            for e in (np.array([1, 0], complex), np.array([0, 1], complex))
        ]
        combined = run_protocol(amps, GOLDEN, table, basis, ubob)
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


class TestValidation:
    def test_dimension_mismatch(self, rng):
        table, basis, ubob = protocol_parts(GOLDEN, 2)
        with pytest.raises(DimensionMismatch):
            run_protocol(random_state(rng, 2), PAIR, table, basis, ubob)

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
            basis, ubob = measurement_basis(table), bob_unitaries(table, s)
            trace = run_protocol(random_state(rng, d), s, table, basis, ubob)
            assert trace.min_fidelity >= 1 - 1e-10
            assert trace.classical_bits == math.log2(n * d)
            done += 1
        assert done > 0
