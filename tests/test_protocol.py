from fractions import Fraction

import numpy as np
import pytest

from qteleport.errors import DegenerateColumns, InfeasibleSpectrum, PhaseFactorsNotFound
from qteleport.phases import PhaseMatrix, solve_d2, solve_general
from qteleport.protocol import (
    Construction,
    ProtocolTable,
    bob_unitaries,
    measurement_basis,
    synthesize_auto,
    synthesize_d2,
    synthesize_general,
    verify_conditions,
)
from qteleport.spectrum import SchmidtSpectrum

from conftest import feasible_spectrum

PAIR = SchmidtSpectrum.from_rationals(["1/2", "1/2"])
GOLDEN = SchmidtSpectrum.from_rationals(["1/2", "1/3", "1/6"])
UNIFORM_12 = SchmidtSpectrum.from_rationals(["1/12"] * 12)
UNIFORM_32 = SchmidtSpectrum.from_rationals(["1/32"] * 32)


def bennett_table() -> ProtocolTable:
    return synthesize_d2(PAIR, solve_d2(PAIR))


def golden_table() -> ProtocolTable:
    return synthesize_d2(GOLDEN, solve_d2(GOLDEN))


class TestBennettRecovery:
    # the four-outcome table has entries +1/2 exactly at these (j, m, k)
    # positions (1-based) and -1/2 everywhere else
    POSITIVE = {
        (2, 1, 1), (3, 1, 1),
        (1, 1, 2), (2, 1, 2), (3, 1, 2), (4, 1, 2),
        (2, 2, 1), (4, 2, 1),
        (3, 2, 2), (4, 2, 2),
    }

    def test_sign_pattern(self):
        table = bennett_table()
        for j in range(1, 5):
            for m in range(1, 3):
                for k in range(1, 3):
                    want = 0.5 if (j, m, k) in self.POSITIVE else -0.5
                    got = table.V[j - 1, m - 1, k - 1]
                    assert abs(got - want) < 1e-12, (j, m, k, got)

    def test_corrections_are_rescaled_coefficients(self):
        table = bennett_table()
        ubob = bob_unitaries(table, PAIR)
        for j in range(4):
            u_dag = ubob.unitaries[j].conj().T
            assert np.abs(u_dag - np.sqrt(2) * table.V[j]).max() < 1e-12

    def test_rotated_bell_identification(self):
        # with the first system read in the (|1>+|2>)/sqrt(2), (|1>-|2>)/sqrt(2)
        # basis, the four measurement states are exactly the Bell basis
        table = bennett_table()
        states = measurement_basis(table).states
        change = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        transformed = [
            (np.kron(change.conj().T, np.eye(2)) @ state) for state in states
        ]
        bells = [
            np.array([1, 0, 0, 1]) / np.sqrt(2),
            np.array([1, 0, 0, -1]) / np.sqrt(2),
            np.array([0, 1, 1, 0]) / np.sqrt(2),
            np.array([0, 1, -1, 0]) / np.sqrt(2),
        ]
        matches = []
        for vec in transformed:
            hits = [i for i, bell in enumerate(bells) if abs(abs(np.vdot(bell, vec)) - 1) < 1e-12]
            assert len(hits) == 1
            matches.append(hits[0])
        assert sorted(matches) == [0, 1, 2, 3]


class TestWorkedExampleTable:
    def test_six_outcomes(self):
        table = golden_table()
        assert table.s == 6

    def test_displayed_coefficient_blocks(self):
        table = golden_table()
        root6 = np.sqrt(6)
        for j in range(1, 4):
            a = np.exp(2j * np.pi * j / 3) / root6
            b = np.exp(4j * np.pi * j / 3) / root6
            c = 1 / root6
            want = {(1, 1): a, (2, 1): a, (1, 2): b, (2, 2): -b, (1, 3): c, (2, 3): -c}
            for (m, k), value in want.items():
                assert abs(table.V[j - 1, m - 1, k - 1] - value) < 1e-12
        for j in range(4, 7):
            a = np.exp(2j * np.pi * j / 3) / root6
            b = np.exp(4j * np.pi * j / 3) / root6
            c = 1 / root6
            want = {(1, 1): -a, (2, 1): a, (1, 2): b, (2, 2): b, (1, 3): c, (2, 3): c}
            for (m, k), value in want.items():
                assert abs(table.V[j - 1, m - 1, k - 1] - value) < 1e-12

    def test_conditions(self):
        report = verify_conditions(golden_table(), GOLDEN)
        assert report.orthonormality_residual < 1e-10
        assert report.unitarity_residual < 1e-10


class TestSynthesis:
    def test_flat_modulus(self):
        for table, spectrum in [
            (bennett_table(), PAIR),
            (golden_table(), GOLDEN),
            (synthesize_general(GOLDEN, 2, solve_d2(GOLDEN)), GOLDEN),
        ]:
            assert np.abs(np.abs(table.V) - 1 / np.sqrt(table.s)).max() < 1e-15

    def test_both_constructions_valid_for_same_phases(self):
        rng = np.random.default_rng(17)
        for n in range(2, 7):
            s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 0.5))
            theta = solve_d2(s)
            for table in (synthesize_d2(s, theta), synthesize_general(s, 2, theta)):
                assert verify_conditions(table, s).ok(1e-10)

    def test_qutrit_uniform(self):
        s = SchmidtSpectrum.from_rationals(["1/3"] * 3)
        table = synthesize_general(s, 3, solve_general(s, 3))
        assert table.s == 9
        assert verify_conditions(table, s).ok(1e-10)

    def test_eight_outcome_qubit_protocol(self):
        s = SchmidtSpectrum.from_probs([0.3, 0.3, 0.2, 0.2])
        table = synthesize_d2(s, solve_d2(s))
        assert table.s == 8
        assert verify_conditions(table, s).ok(1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_feasible_spectra(self, d):
        rng = np.random.default_rng(23)
        checked = 0
        for n in range(d, 7):
            for _ in range(8):
                s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 1 / d))
                try:
                    table = synthesize_auto(s, d, restarts=6, max_nfev=1500)
                except PhaseFactorsNotFound:
                    continue
                assert verify_conditions(table, s).ok(1e-10)
                checked += 1
        assert checked > 0

    def test_gate_raises_exactly_when_infeasible(self):
        rng = np.random.default_rng(29)
        theta_dummy = PhaseMatrix(np.zeros((3, 4)))
        for _ in range(100):
            p = rng.random(4)
            p /= p.sum()
            s = SchmidtSpectrum.from_probs(p)
            if s.p_max > 1 / 3 + 1e-12:
                with pytest.raises(InfeasibleSpectrum):
                    synthesize_general(s, 3, theta_dummy)
            else:
                synthesize_general(s, 3, theta_dummy)  # must not raise the gate

    def test_exact_spectrum_just_above_half_is_infeasible(self):
        # float slack once let this exact spectrum through the gate at d = 2
        excess = Fraction(1, 10**14)
        s = SchmidtSpectrum.from_rationals([Fraction(1, 2) + excess, Fraction(1, 2) - excess])
        assert not s.admits(2)
        with pytest.raises(InfeasibleSpectrum):
            solve_general(s, 2)
        with pytest.raises(InfeasibleSpectrum):
            synthesize_d2(s, PhaseMatrix(np.array([[0.0, 0.0], [0.0, np.pi]])))

    def test_method_dispatch(self):
        assert synthesize_auto(GOLDEN, 2).construction is Construction.D2_FORMULA
        assert (
            synthesize_auto(GOLDEN, 2, method="general").construction
            is Construction.GENERAL_FORMULA
        )
        with pytest.raises(ValueError):
            synthesize_auto(SchmidtSpectrum.from_rationals(["1/3"] * 3), 3, method="d2")


class TestMeasurementBasis:
    def test_gram_identity(self):
        for table, _ in [(bennett_table(), PAIR), (golden_table(), GOLDEN)]:
            states = measurement_basis(table).states
            gram = states.conj() @ states.T
            assert np.abs(gram - np.eye(table.s)).max() < 1e-10

    def test_completeness(self):
        table = golden_table()
        states = measurement_basis(table).states
        total = sum(np.outer(state, state.conj()) for state in states)
        assert np.abs(total - np.eye(table.d * table.n)).max() < 1e-10


class TestBobUnitaries:
    def test_unitarity(self):
        # (3, 12) partition tables and (2, 32) tables leave n - d >= 2d columns to complete
        thirds = SchmidtSpectrum.from_rationals(
            ["1/6", "1/9", "1/15", "1/12", "1/9", "1/15", "1/24", "1/15", "1/9", "1/24",
             "1/15", "1/15"]
        )
        rng = np.random.default_rng(37)
        wide = SchmidtSpectrum.from_probs(feasible_spectrum(rng, 32, 1 / 2))
        cases = [
            (GOLDEN, golden_table()),
            (thirds, synthesize_auto(thirds, 3)),
            (UNIFORM_12, synthesize_auto(UNIFORM_12, 3)),
            (UNIFORM_32, synthesize_auto(UNIFORM_32, 2)),
            (UNIFORM_32, synthesize_auto(UNIFORM_32, 2, method="general")),
            (wide, synthesize_auto(wide, 2)),
        ]
        for spectrum, table in cases:
            ubob = bob_unitaries(table, spectrum)
            for u in ubob.unitaries:
                assert np.abs(u.conj().T @ u - np.eye(table.n)).max() < 1e-10

    def test_square_case_needs_no_completion(self):
        s = SchmidtSpectrum.from_rationals(["1/3"] * 3)
        table = synthesize_general(s, 3, solve_general(s, 3))
        ubob = bob_unitaries(table, s)
        for j, u in enumerate(ubob.unitaries):
            assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-10
            # in the square case the correction is the whole rescaled block
            assert np.abs(u.conj().T - np.sqrt(3) * table.V[j]).max() < 1e-10

    def test_degenerate_columns_detected(self):
        table = golden_table()
        broken = np.array(table.V)
        broken[0, 0, 0] = 0.0
        with pytest.raises(DegenerateColumns):
            bob_unitaries(
                ProtocolTable(d=2, n=3, V=broken, construction=Construction.EXPLICIT),
                GOLDEN,
            )

    def test_completion_is_deterministic(self):
        table = golden_table()
        a = bob_unitaries(table, GOLDEN).unitaries
        b = bob_unitaries(table, GOLDEN).unitaries
        np.testing.assert_array_equal(a, b)


class TestVerifyConditions:
    def test_zeroed_entry_breaks_orthonormality(self):
        table = golden_table()
        broken = np.array(table.V)
        broken[2, 1, 1] = 0.0
        report = verify_conditions(
            ProtocolTable(d=2, n=3, V=broken, construction=Construction.EXPLICIT), GOLDEN
        )
        assert report.orthonormality_residual >= 1 / table.s - 1e-12

    def test_wrong_spectrum_breaks_unitarity(self):
        table = golden_table()
        other = SchmidtSpectrum.from_probs([0.4, 0.35, 0.25])
        report = verify_conditions(table, other)
        assert report.orthonormality_residual < 1e-10  # spectrum-independent
        assert report.unitarity_residual > 1e-6

    def test_reports_do_not_raise(self):
        junk = ProtocolTable(
            d=2, n=2, V=np.zeros((4, 2, 2)), construction=Construction.EXPLICIT
        )
        report = verify_conditions(junk, PAIR)
        assert report.orthonormality_residual == 1.0
