from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qteleport.errors import DegenerateColumns, InfeasibleSpectrum, PhaseFactorsNotFound
from qteleport.phases import PhaseMatrix, solve_d2, solve_general
from qteleport.protocol import (
    Construction,
    ProtocolTable,
    bob_unitaries,
    correction_columns,
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


def conditions_hold(table: ProtocolTable) -> bool:
    conditions = verify_conditions(table)
    return max(conditions.orthonormality_residual, conditions.unitarity_residual) <= 1e-10


def orthonormality_defect(table: ProtocolTable) -> float:
    """max |<M_j|M_j'> - delta(j, j')| over the dense measurement basis: a formula
    table reports 0 for every theta, and this measures that theorem on the floats."""
    states = measurement_basis(table)
    return float(np.abs(states.conj() @ states.T - np.eye(table.s)).max())


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
        unitaries = bob_unitaries(table)
        for j in range(4):
            u_dag = unitaries[j].conj().T
            assert np.abs(u_dag - np.sqrt(2) * table.V[j]).max() < 1e-12

    def test_rotated_bell_identification(self):
        # with the first system read in the (|1>+|2>)/sqrt(2), (|1>-|2>)/sqrt(2)
        # basis, the four measurement states are exactly the Bell basis
        table = bennett_table()
        states = measurement_basis(table)
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
        table = golden_table()
        assert orthonormality_defect(table) < 1e-10
        assert verify_conditions(table).unitarity_residual < 1e-10


class TestSynthesis:
    def test_flat_modulus(self):
        for table in [bennett_table(), golden_table(), synthesize_general(GOLDEN, solve_d2(GOLDEN))]:
            assert np.abs(np.abs(table.V) - 1 / np.sqrt(table.s)).max() < 1e-15

    def test_both_constructions_valid_for_same_phases(self):
        rng = np.random.default_rng(17)
        for n in range(2, 7):
            s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 0.5))
            theta = solve_d2(s)
            for table in (synthesize_d2(s, theta), synthesize_general(s, theta)):
                assert conditions_hold(table)

    def test_qutrit_uniform(self):
        s = SchmidtSpectrum.from_rationals(["1/3"] * 3)
        table = synthesize_general(s, solve_general(s, 3))
        assert table.s == 9
        assert conditions_hold(table)

    def test_eight_outcome_qubit_protocol(self):
        s = SchmidtSpectrum.from_probs([0.3, 0.3, 0.2, 0.2])
        table = synthesize_d2(s, solve_d2(s))
        assert table.s == 8
        assert conditions_hold(table)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_feasible_spectra(self, d):
        rng = np.random.default_rng(23)
        checked = 0
        for n in range(d, 7):
            for _ in range(8):
                s = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 1 / d))
                try:
                    _, table = synthesize_auto(s, d, restarts=6, max_nfev=1500)
                except PhaseFactorsNotFound:
                    continue
                assert conditions_hold(table)
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
                    synthesize_general(s, theta_dummy)
            else:
                synthesize_general(s, theta_dummy)  # must not raise the gate

    def test_exact_spectrum_just_above_half_is_infeasible(self):
        # float slack once let this exact spectrum through the gate at d = 2
        excess = Fraction(1, 10**14)
        s = SchmidtSpectrum.from_rationals([Fraction(1, 2) + excess, Fraction(1, 2) - excess])
        assert not s.admits(2)
        with pytest.raises(InfeasibleSpectrum):
            solve_general(s, 2)
        with pytest.raises(InfeasibleSpectrum):
            synthesize_d2(s, PhaseMatrix(np.array([[0.0, 0.0], [0.0, np.pi]])))

    def test_auto_returns_the_phases_its_table_uses(self):
        thirds = SchmidtSpectrum.from_rationals(["1/3"] * 3)
        for spectrum, d, build in [
            (GOLDEN, 2, lambda th: synthesize_d2(GOLDEN, th)),
            (thirds, 3, lambda th: synthesize_general(thirds, th)),
        ]:
            theta, table = synthesize_auto(spectrum, d)
            np.testing.assert_array_equal(theta.theta, solve_general(spectrum, d).theta)
            np.testing.assert_array_equal(table.V, build(theta).V)


    @pytest.mark.parametrize("d,n", [(2, 3), (2, 32), (3, 7), (4, 32)])
    def test_root_of_unity_indices_match_the_exponential_formula(self, d, n):
        # the tables read exact indices into the roots of unity; the textbook
        # formulas take exp of arguments up to ~4 pi s and agree to their rounding
        rng = np.random.default_rng(n)
        theta = PhaseMatrix(rng.uniform(0, 2 * np.pi, (d, n)))
        spectrum = SchmidtSpectrum.from_rationals([f"1/{n}"] * n)
        s = d * n
        j = np.arange(1, s + 1, dtype=float)[:, None, None]
        m = np.arange(1, d + 1, dtype=float)[None, :, None]
        k = np.arange(1, n + 1, dtype=float)[None, None, :]
        general = np.exp(1j * theta.theta) * np.exp(2j * np.pi * j * (m / s + k / n)) / np.sqrt(s)
        got = synthesize_general(spectrum, theta).V
        assert np.abs(got - general).max() < 1e-12
        if d == 2:
            e = np.exp(2j * np.pi * j[:, :, 0] * k[:, 0, :] / n)
            phasor = np.exp(1j * theta.row_differences())
            qubit = np.stack([
                np.concatenate([e[:n], -e[n:] / phasor]),
                np.concatenate([e[:n] * phasor, e[n:]]),
            ], axis=1) / np.sqrt(s)
            assert np.abs(synthesize_d2(spectrum, theta).V - qubit).max() < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 64), (3, 24), (4, 32)])
    def test_uniform_tables_hold_to_a_few_ulps(self, d, n):
        # exp of the large textbook arguments left 7e-15 .. 5e-14 here
        spectrum = SchmidtSpectrum.from_rationals([f"1/{n}"] * n)
        table = synthesize_auto(spectrum, d)[1]
        assert orthonormality_defect(table) < 4e-15
        assert verify_conditions(table).unitarity_residual < 4e-15


def defined_columns(table):
    """sqrt(s) conj(V[j])^T sqrt(p), without correction_columns' check."""
    sqrt_p = np.sqrt(table.spectrum.as_array())
    return np.sqrt(table.s) * table.V.conj().transpose(0, 2, 1) * sqrt_p[None, :, None]


class TestOutcomeGrams:
    @staticmethod
    def cases():
        quarters = SchmidtSpectrum.from_rationals(
            ["1/5", "1/8", "1/6", "3/16", "1/8", "1/12", "1/20", "1/16"]
        )
        search = SchmidtSpectrum.from_probs([0.3, 0.25, 0.2, 0.15, 0.1])
        return [
            bennett_table(),
            golden_table(),
            synthesize_auto(UNIFORM_32, 2)[1],
            synthesize_auto(quarters, 4)[1],
            synthesize_auto(search, 3)[1],
        ]

    @staticmethod
    def broken(table):
        """The table with one angle moved by 1e-6, and its angles against the wrong
        spectrum: both violate the unitarity condition."""
        theta = np.array(table.phases.theta)
        theta[-1, 0] = (theta[-1, 0] + 1e-6) % (2 * np.pi)
        ramp = np.linspace(1, 2, table.n)
        other = SchmidtSpectrum.from_probs(ramp / ramp.sum())
        return [
            ProtocolTable(table.spectrum, PhaseMatrix(theta), table.construction),
            ProtocolTable(other, table.phases, table.construction),
        ]

    def test_equals_the_columns_gram_and_the_weighted_sum(self):
        for table in self.cases():
            columns = correction_columns(table)
            np.testing.assert_array_equal(columns, defined_columns(table))
            for candidate in [table, *self.broken(table)]:
                grams = candidate.grams
                assert grams.shape == (table.s, table.d, table.d)
                columns = defined_columns(candidate)
                np.testing.assert_allclose(
                    grams, columns.conj().transpose(0, 2, 1) @ columns, rtol=0, atol=1e-15
                )
                weighted = np.einsum(
                    "jmk,jlk,k->jml", candidate.V, candidate.V.conj(),
                    table.s * candidate.spectrum.as_array(),
                )
                np.testing.assert_allclose(grams, weighted, rtol=0, atol=1e-15)

    def test_built_once_and_read_only(self):
        table = golden_table()
        assert table.grams is table.grams
        with pytest.raises(ValueError):
            table.grams[0, 0, 0] = 0.0

    def test_broken_tables_raise_and_report(self):
        for table in self.cases():
            for candidate in self.broken(table):
                with pytest.raises(DegenerateColumns):
                    correction_columns(candidate)
                columns = defined_columns(candidate)
                dense = columns.conj().transpose(0, 2, 1) @ columns
                defect = np.abs(dense - np.eye(table.d)).max()
                assert abs(verify_conditions(candidate).unitarity_residual - defect) <= 1e-15
                assert defect > 1e-8


@st.composite
def unsolved_phases(draw, dims=(2, 3, 4)):
    """(spectrum, theta) at d in dims: a feasible spectrum and angles that, almost
    surely, do not solve its phase constraints."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(d, 3 * d + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spectrum = SchmidtSpectrum.from_probs(feasible_spectrum(rng, n, 1 / d))
    angles = hnp.arrays(float, (d, n), elements=st.floats(0, 2 * np.pi, exclude_max=True))
    return spectrum, PhaseMatrix(draw(angles))


class TestFormulaStructure:
    @settings(max_examples=60, deadline=None)
    @given(unsolved_phases())
    def test_orthonormality_and_gram_spectra_do_not_need_a_solution(self, case):
        # the s x s Gram is I for any angles, and every G_j = D C D^dagger for a
        # diagonal unitary D, with C = A A^dagger and A[m, k] = sqrt(p_k) e^{i theta[m, k]}
        spectrum, theta = case
        a = np.sqrt(spectrum.as_array()) * np.exp(1j * theta.theta)
        want = np.linalg.eigvalsh(a @ a.conj().T)
        tables = [synthesize_general(spectrum, theta)]
        if theta.d == 2:
            tables.append(synthesize_d2(spectrum, theta))
        for table in tables:
            assert orthonormality_defect(table) <= 1e-13
            got = np.linalg.eigvalsh(table.grams)
            assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(unsolved_phases(dims=(2, 3, 4, 5)))
    def test_structured_grams_equal_the_dense_ones(self, case):
        # G_j = L_j C L_j^dagger from theta alone, against W_j W_j^dagger from the
        # dense V, W = V sqrt(s p); and |M_j| = 1 against the rows of V
        spectrum, theta = case
        tables = [synthesize_general(spectrum, theta)]
        if theta.d == 2:
            tables.append(synthesize_d2(spectrum, theta))
        for table in tables:
            grams = table.grams
            assert "V" not in vars(table)
            weighted = table.V * np.sqrt(table.s * spectrum.as_array())
            dense = weighted @ weighted.conj().transpose(0, 2, 1)
            np.testing.assert_allclose(grams, dense, rtol=0, atol=1e-14)
            norms = np.linalg.norm(measurement_basis(table), axis=1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-14)
            assert verify_conditions(table).orthonormality_residual == 0.0


class TestMeasurementBasis:
    def test_gram_identity(self):
        for table in [bennett_table(), golden_table()]:
            states = measurement_basis(table)
            gram = states.conj() @ states.T
            assert np.abs(gram - np.eye(table.s)).max() < 1e-10

    def test_completeness(self):
        table = golden_table()
        states = measurement_basis(table)
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
            golden_table(),
            synthesize_auto(thirds, 3)[1],
            synthesize_auto(UNIFORM_12, 3)[1],
            synthesize_auto(UNIFORM_32, 2)[1],
            synthesize_general(UNIFORM_32, solve_general(UNIFORM_32, 2)),
            synthesize_auto(wide, 2)[1],
        ]
        for table in cases:
            for u in bob_unitaries(table):
                assert np.abs(u.conj().T @ u - np.eye(table.n)).max() < 1e-10

    def test_square_case_needs_no_completion(self):
        s = SchmidtSpectrum.from_rationals(["1/3"] * 3)
        table = synthesize_general(s, solve_general(s, 3))
        for j, u in enumerate(bob_unitaries(table)):
            assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-10
            # in the square case the correction is the whole rescaled block
            assert np.abs(u.conj().T - np.sqrt(3) * table.V[j]).max() < 1e-10

    def test_degenerate_columns_detected(self):
        table = golden_table()
        theta = np.array(table.phases.theta)
        theta[1, 0] = (theta[1, 0] + 0.1) % (2 * np.pi)
        with pytest.raises(DegenerateColumns):
            bob_unitaries(ProtocolTable(GOLDEN, PhaseMatrix(theta), table.construction))

    def test_completion_is_deterministic(self):
        table = golden_table()
        a = bob_unitaries(table)
        b = bob_unitaries(table)
        np.testing.assert_array_equal(a, b)


class TestVerifyConditions:
    def test_wrong_spectrum_breaks_unitarity(self):
        table = golden_table()
        other = SchmidtSpectrum.from_probs([0.4, 0.35, 0.25])
        report = verify_conditions(ProtocolTable(other, table.phases, table.construction))
        assert report.orthonormality_residual == 0.0  # spectrum-independent
        assert report.unitarity_residual > 1e-6

    def test_reports_do_not_raise(self):
        # all-zero angles: C is the all-ones matrix, the farthest from I a Gram gets
        junk = ProtocolTable(PAIR, PhaseMatrix(np.zeros((2, 2))), Construction.GENERAL_FORMULA)
        report = verify_conditions(junk)
        assert report.unitarity_residual == 1.0
        with pytest.raises(DegenerateColumns):
            correction_columns(junk)

    def test_table_and_phases_must_agree(self):
        theta = PhaseMatrix(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="3-term"):
            ProtocolTable(GOLDEN, theta, Construction.GENERAL_FORMULA)
        with pytest.raises(ValueError, match=r"\(d, n\) = \(2, 2\)"):
            ProtocolTable(PAIR, theta, Construction.D2_FORMULA)
        assert [c.value for c in Construction] == ["GeneralFormula", "D2Formula"]
